/**
 * @file
 * Multi-core guest tests (ctest label: concurrency; CI additionally
 * runs this binary under ThreadSanitizer via -DDARCO_TSAN=ON).
 *
 * N guest hardware contexts share one TOL — one translation registry,
 * code cache, eviction clock, and async translator — while each core
 * runs its own instance of the workload (core i seeded seed+i):
 *
 * - cores=1 is bit-for-bit today's behavior (the interleaver draws
 *   nothing, the obs layout is unchanged);
 * - multi-core results are a pure function of the config: repeat runs
 *   and async worker counts never change a simulated number;
 * - each core retires exactly its own golden execution, validated
 *   against its per-core reference component;
 * - cross-core pressure (tiny evicting code cache) stays correct;
 * - checkpoints round-trip per-core state (snapshot v5) and refuse a
 *   core-count mismatch;
 * - two controllers on two host threads don't share mutable state
 *   (the TSan hammer).
 */

#include <gtest/gtest.h>

#include <cstring>
#include <sstream>
#include <thread>
#include <vector>

#include "sim/controller.hh"
#include "snapshot/io.hh"
#include "workloads/synth.hh"

using namespace darco;

namespace
{

guest::Program
workload()
{
    workloads::WorkloadParams p;
    p.name = "mc-wl";
    p.seed = 177;
    p.numBlocks = 40;
    p.outerIters = 200;
    p.fpFrac = 0.15;
    p.loopFrac = 0.10;
    p.indirectFrac = 0.03;
    return workloads::synthesize(p);
}

Config
baseCfg(u64 cores)
{
    // Fast promotion so the run exercises BBM/SBM within test budget.
    Config cfg({"tol.bb_threshold=4", "tol.sb_threshold=12",
                "tol.min_edge_total=8"});
    cfg.set("cores", s64(cores));
    return cfg;
}

std::unique_ptr<sim::Controller>
run(const Config &cfg)
{
    auto ctl = std::make_unique<sim::Controller>(cfg);
    ctl->load(workload());
    ctl->run();
    EXPECT_TRUE(ctl->finished());
    return ctl;
}

void
expectSameStats(sim::Controller &a, sim::Controller &b)
{
    const auto &ca = a.stats().counters();
    const auto &cb = b.stats().counters();
    ASSERT_EQ(ca.size(), cb.size());
    for (const auto &[name, c] : ca)
        EXPECT_EQ(b.stats().value(name), c.value()) << name;
}

void
expectSameCores(sim::Controller &a, sim::Controller &b)
{
    ASSERT_EQ(a.numCores(), b.numCores());
    for (u32 i = 0; i < a.numCores(); ++i) {
        EXPECT_TRUE(a.tol().state(i) == b.tol().state(i))
            << "core " << i << ": "
            << a.tol().state(i).diff(b.tol().state(i));
        EXPECT_EQ(a.tol().completedInsts(i), b.tol().completedInsts(i))
            << "core " << i;
        EXPECT_EQ(a.tol().completedBBs(i), b.tol().completedBBs(i))
            << "core " << i;
    }
    EXPECT_EQ(a.exitCode(), b.exitCode());
}

} // namespace

// ---------------------------------------------------------------------
// Single-core compatibility
// ---------------------------------------------------------------------

// cores=1 (explicit or default) must be today's behavior bit-for-bit:
// same state, same retirement, same value in every stat counter.
TEST(MultiCore, SingleCoreIsDefaultBehavior)
{
    Config defaults({"tol.bb_threshold=4", "tol.sb_threshold=12",
                     "tol.min_edge_total=8"});
    auto a = run(defaults);
    auto b = run(baseCfg(1));
    EXPECT_TRUE(a->tol().state() == b->tol().state());
    expectSameStats(*a, *b);
}

// ---------------------------------------------------------------------
// Determinism
// ---------------------------------------------------------------------

TEST(MultiCore, RepeatRunsIdentical)
{
    auto a = run(baseCfg(3));
    auto b = run(baseCfg(3));
    expectSameCores(*a, *b);
    expectSameStats(*a, *b);
}

// Async worker count is a wall-clock knob only: with cores=2 every
// simulated number must be byte-identical for threads in {1, 2, 4},
// and threads=0 (the legacy synchronous model, with its different
// overhead accounting) must still retire the exact same per-core
// architectural execution.
TEST(MultiCore, WorkerCountInvariant)
{
    auto async = [](u64 threads) {
        Config cfg = baseCfg(2);
        cfg.set("tol.async.threads", s64(threads));
        cfg.set("tol.async.vthreads", s64(2));
        cfg.set("tol.async.rate", s64(4));
        cfg.set("tol.async.queue", s64(16));
        return cfg;
    };
    auto t1 = run(async(1));
    auto t2 = run(async(2));
    auto t4 = run(async(4));
    expectSameCores(*t1, *t2);
    expectSameCores(*t1, *t4);
    expectSameStats(*t1, *t2);
    expectSameStats(*t1, *t4);

    auto t0 = run(async(0));
    expectSameCores(*t1, *t0); // architectural identity only
}

// The dispatch interleaver is part of the simulated model: changing
// its seed changes the schedule, but each core still retires exactly
// its own execution (per-core results are schedule-independent).
TEST(MultiCore, InterleaveSeedPreservesArchitecture)
{
    Config a = baseCfg(2);
    Config b = baseCfg(2);
    b.set("tol.interleave_seed", s64(12345));
    auto ra = run(a);
    auto rb = run(b);
    expectSameCores(*ra, *rb);
}

// ---------------------------------------------------------------------
// Per-core architecture
// ---------------------------------------------------------------------

// Each core runs its own deterministic instance of the workload; the
// run end-validates every core against its reference component
// (sync.validate_end defaults on), and global retirement is the sum
// of the per-core counters.
TEST(MultiCore, PerCoreRetirementSumsToGlobal)
{
    auto ctl = run(baseCfg(2));
    u64 insts = 0, bbs = 0;
    for (u32 i = 0; i < ctl->numCores(); ++i) {
        EXPECT_GT(ctl->tol().completedInsts(i), 0u) << "core " << i;
        EXPECT_TRUE(ctl->tol().finished(i)) << "core " << i;
        insts += ctl->tol().completedInsts(i);
        bbs += ctl->tol().completedBBs(i);
        EXPECT_EQ(ctl->tol().completedInsts(i),
                  ctl->ref(i).instCount())
            << "core " << i;
    }
    EXPECT_EQ(ctl->tol().completedInsts(), insts);
    EXPECT_EQ(ctl->tol().completedBBs(), bbs);

    // Mode accounting must sum to the retired count globally.
    StatGroup &st = ctl->stats();
    EXPECT_EQ(st.value("tol.guest_im") + st.value("tol.guest_bbm") +
                  st.value("tol.guest_sbm"),
              insts);
}

// Two cores hammering one tiny evicting code cache: cross-core
// eviction storms and cross-core chaining must stay architecturally
// correct (the run end-validates each core).
TEST(MultiCore, CrossCoreEvictionStorm)
{
    Config cfg = baseCfg(2);
    cfg.set("cc.capacity_words", s64(768));
    cfg.parseLine("cc.policy=evict");
    cfg.set("tol.max_sb_insts", s64(120));
    auto ctl = run(cfg);
    EXPECT_GT(ctl->stats().value("cc.evictions"), 0u);
    EXPECT_TRUE(ctl->registry().checkInvariants().empty());
}

// ---------------------------------------------------------------------
// Snapshot v5
// ---------------------------------------------------------------------

TEST(MultiCore, SnapshotRoundTrip)
{
    guest::Program prog = workload();
    Config cfg = baseCfg(2);

    sim::Controller full(cfg);
    full.load(prog);
    full.run();
    ASSERT_TRUE(full.finished());

    u64 mid = full.tol().completedInsts() * 2 / 5;
    sim::Controller part(cfg);
    part.load(prog);
    part.run(mid);
    ASSERT_FALSE(part.finished());
    std::stringstream img;
    part.saveCheckpoint(img);

    sim::Controller resumed(cfg);
    img.seekg(0);
    resumed.restoreCheckpoint(img);
    EXPECT_GE(resumed.tol().completedInsts(), mid);
    // Re-saving right after the restore yields the identical image.
    std::stringstream again;
    resumed.saveCheckpoint(again);
    EXPECT_TRUE(again.str() == img.str());
    resumed.run();
    ASSERT_TRUE(resumed.finished());

    expectSameCores(resumed, full);
    for (u32 i = 0; i < resumed.numCores(); ++i) {
        for (GAddr page : resumed.emulatedMemory(i).residentPages()) {
            ASSERT_EQ(
                std::memcmp(resumed.emulatedMemory(i).page(page),
                            full.ref(i).memory().page(page),
                            pageSizeBytes),
                0)
                << "core " << i << " emulated page 0x" << std::hex
                << page;
        }
    }
    EXPECT_TRUE(resumed.registry().checkInvariants().empty());
}

// `cores` is execution-relevant: a checkpoint taken with cores=2 must
// refuse to restore into a cores=1 controller, naming the parameter.
TEST(MultiCore, RestoreRefusesCoreCountMismatch)
{
    guest::Program prog = workload();
    sim::Controller part(baseCfg(2));
    part.load(prog);
    part.run(2000);
    std::stringstream img;
    part.saveCheckpoint(img);

    sim::Controller other(baseCfg(1));
    img.seekg(0);
    try {
        other.restoreCheckpoint(img);
        FAIL() << "restore with a different core count must throw";
    } catch (const snapshot::SnapshotError &e) {
        EXPECT_NE(std::string(e.what()).find("cores"),
                  std::string::npos)
            << e.what();
    }
}

// ---------------------------------------------------------------------
// Concurrency hammer (the TSan target)
// ---------------------------------------------------------------------

// Two multi-core controllers with live async workers on two host
// threads: no shared mutable state — per-thread results must equal a
// serial reference run of the same config.
TEST(MultiCore, ConcurrentControllersAreIndependent)
{
    auto cfg = [] {
        Config c = baseCfg(2);
        c.set("tol.async.threads", s64(2));
        c.set("tol.async.vthreads", s64(2));
        return c;
    };
    auto serial = run(cfg());

    std::vector<std::unique_ptr<sim::Controller>> out(2);
    std::vector<std::thread> threads;
    for (int t = 0; t < 2; ++t) {
        threads.emplace_back([&, t] { out[t] = run(cfg()); });
    }
    for (std::thread &th : threads)
        th.join();
    for (auto &ctl : out) {
        ASSERT_TRUE(ctl && ctl->finished());
        expectSameCores(*ctl, *serial);
        expectSameStats(*ctl, *serial);
    }
}

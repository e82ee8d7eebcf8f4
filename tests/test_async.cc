/**
 * @file
 * Asynchronous-translation-pipeline tests (ctest label: concurrency;
 * CI additionally runs this binary under ThreadSanitizer via
 * -DDARCO_TSAN=ON).
 *
 * - determinism: simulated results are a pure function of the config,
 *   not of tol.async.threads (real workers), repetition, or host
 *   scheduling; threads=0 bypasses the pipeline entirely;
 * - architectural equivalence: async runs retire the exact same guest
 *   execution as synchronous runs — only the overhead accounting and
 *   mode distribution move;
 * - backpressure: a full bounded queue forces the synchronous
 *   fallback, deterministically;
 * - timing overlap: translation charges published to the
 *   concurrent_translator category overlap with guest execution in
 *   the trace-driven core instead of stretching the critical path;
 * - AsyncTranslator unit behavior: virtual-time publish order,
 *   queue-bound accounting, drain.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "sim/controller.hh"
#include "timing/core.hh"
#include "tol/async.hh"
#include "tol/cost_model.hh"
#include "tol/registry.hh"
#include "verify/verifier.hh"
#include "workloads/synth.hh"

using namespace darco;

namespace
{

guest::Program
workload()
{
    workloads::WorkloadParams p;
    p.name = "async-wl";
    p.seed = 133;
    p.numBlocks = 44;
    p.outerIters = 240;
    p.fpFrac = 0.15;
    p.loopFrac = 0.10;
    p.indirectFrac = 0.03;
    return workloads::synthesize(p);
}

Config
baseCfg()
{
    // Fast promotion so the run exercises BBM/SBM within test budget.
    return Config({"tol.bb_threshold=4", "tol.sb_threshold=12",
                   "tol.min_edge_total=8"});
}

Config
asyncCfg(u64 threads, u64 vthreads = 2, u64 rate = 4, u64 queue = 16)
{
    Config cfg = baseCfg();
    cfg.set("tol.async.threads", s64(threads));
    cfg.set("tol.async.vthreads", s64(vthreads));
    cfg.set("tol.async.rate", s64(rate));
    cfg.set("tol.async.queue", s64(queue));
    return cfg;
}

struct RunResult
{
    std::unique_ptr<sim::Controller> ctl;
};

RunResult
run(const Config &cfg)
{
    RunResult r;
    r.ctl = std::make_unique<sim::Controller>(cfg);
    r.ctl->load(workload());
    r.ctl->run();
    EXPECT_TRUE(r.ctl->finished());
    return r;
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

} // namespace

// ---------------------------------------------------------------------
// Determinism
// ---------------------------------------------------------------------

// Worker count is a wall-clock knob only: every simulated number must
// be byte-identical for threads in {1, 2, 4}.
TEST(AsyncDeterminism, WorkerCountInvariant)
{
    RunResult t1 = run(asyncCfg(1));
    RunResult t2 = run(asyncCfg(2));
    RunResult t4 = run(asyncCfg(4));

    EXPECT_TRUE(t2.ctl->tol().state() == t1.ctl->tol().state());
    EXPECT_TRUE(t4.ctl->tol().state() == t1.ctl->tol().state());
    EXPECT_EQ(t2.ctl->exitCode(), t1.ctl->exitCode());
    EXPECT_EQ(t4.ctl->exitCode(), t1.ctl->exitCode());
    expectSameStats(*t1.ctl, *t2.ctl);
    expectSameStats(*t1.ctl, *t4.ctl);
}

TEST(AsyncDeterminism, RepeatRunsIdentical)
{
    RunResult a = run(asyncCfg(2));
    RunResult b = run(asyncCfg(2));
    EXPECT_TRUE(a.ctl->tol().state() == b.ctl->tol().state());
    expectSameStats(*a.ctl, *b.ctl);
}

// threads=0 must not touch the async machinery at all: identical to a
// config that never mentions tol.async.* (the schema default).
TEST(AsyncDeterminism, ZeroThreadsIsLegacySync)
{
    Config zero = baseCfg();
    zero.set("tol.async.threads", s64(0));
    RunResult z = run(zero);
    RunResult legacy = run(baseCfg());

    EXPECT_FALSE(z.ctl->tol().asyncEnabled());
    EXPECT_EQ(z.ctl->stats().value("tol.async.enqueued_bb"), 0u);
    EXPECT_EQ(z.ctl->stats().value("tol.async.published_bb"), 0u);
    EXPECT_TRUE(z.ctl->tol().state() == legacy.ctl->tol().state());
    expectSameStats(*z.ctl, *legacy.ctl);
}

// ---------------------------------------------------------------------
// Architectural equivalence & overhead accounting
// ---------------------------------------------------------------------

TEST(AsyncPipeline, ArchitecturallyEqualToSync)
{
    RunResult sync = run(baseCfg());
    RunResult async = run(asyncCfg(2));

    // Same guest execution, bit for bit (the Controller additionally
    // validated both runs against the reference component).
    EXPECT_TRUE(async.ctl->tol().state() == sync.ctl->tol().state())
        << sync.ctl->tol().state().diff(async.ctl->tol().state());
    EXPECT_EQ(async.ctl->exitCode(), sync.ctl->exitCode());
    EXPECT_EQ(async.ctl->tol().completedInsts(),
              sync.ctl->tol().completedInsts());
    EXPECT_EQ(async.ctl->tol().completedBBs(),
              sync.ctl->tol().completedBBs());
    EXPECT_TRUE(async.ctl->registry().checkInvariants().empty());

    // Mode accounting still sums to the retired count.
    StatGroup &st = async.ctl->stats();
    EXPECT_EQ(st.value("tol.guest_im") + st.value("tol.guest_bbm") +
                  st.value("tol.guest_sbm"),
              async.ctl->tol().completedInsts());
}

TEST(AsyncPipeline, TranslationChargesMoveOffCriticalPath)
{
    RunResult sync = run(baseCfg());
    RunResult async = run(asyncCfg(2));

    StatGroup &st = async.ctl->stats();
    EXPECT_GT(st.value("tol.async.enqueued_bb"), 0u);
    EXPECT_GT(st.value("tol.async.published_bb"), 0u);

    const tol::CostModel &cs = sync.ctl->tol().costModel();
    const tol::CostModel &ca = async.ctl->tol().costModel();
    EXPECT_EQ(cs.total(tol::Overhead::ConcTranslator), 0u);
    EXPECT_GT(ca.total(tol::Overhead::ConcTranslator), 0u);
    // Published translations are charged concurrently, so the
    // critical-path overhead must shrink vs the synchronous run.
    EXPECT_LT(ca.totalCritical(), cs.totalCritical());
    EXPECT_EQ(ca.totalAll(),
              ca.totalCritical() +
                  ca.total(tol::Overhead::ConcTranslator));
}

TEST(AsyncPipeline, TimingCoreOverlapsConcurrentTranslator)
{
    guest::Program prog = workload();
    auto timedRun = [&prog](const Config &cfg, u64 &cycles,
                            u64 &translator_insts) {
        sim::Controller ctl(cfg);
        StatGroup tstats("timing");
        timing::InOrderCore core(cfg, tstats);
        ctl.load(prog);
        ctl.tol().setTraceSink(&core);
        ctl.run();
        ASSERT_TRUE(ctl.finished());
        cycles = core.cycles();
        translator_insts = tstats.value("core.translator_insts");
    };

    u64 cyc_sync = 0, ti_sync = 0, cyc_async = 0, ti_async = 0;
    timedRun(baseCfg(), cyc_sync, ti_sync);
    timedRun(asyncCfg(2), cyc_async, ti_async);

    EXPECT_EQ(ti_sync, 0u);
    EXPECT_GT(ti_async, 0u);
    // The moved charges overlap with guest execution instead of being
    // synthesized into the main core's instruction stream.
    EXPECT_LT(cyc_async, cyc_sync);
}

TEST(AsyncPipeline, BackpressureForcesSyncFallback)
{
    // One-deep queue and a slow modeled translator: enqueues collide
    // with the in-flight window and fall back to inline translation.
    RunResult r = run(asyncCfg(2, /*vthreads=*/1, /*rate=*/1,
                               /*queue=*/1));
    StatGroup &st = r.ctl->stats();
    EXPECT_GT(st.value("tol.async.queue_full"), 0u);
    EXPECT_GT(st.value("tol.async.sync_fallbacks"), 0u);

    RunResult sync = run(baseCfg());
    EXPECT_TRUE(r.ctl->tol().state() == sync.ctl->tol().state());
    EXPECT_TRUE(r.ctl->registry().checkInvariants().empty());
}

// Eviction storms under a tiny code cache: a pending job whose entry
// was evicted (or re-translated) before its publish point must not
// resurrect stale state.
TEST(AsyncPipeline, TinyCacheEvictionStorm)
{
    Config sync_cfg = baseCfg();
    sync_cfg.parseLine("cc.capacity_words=768");
    sync_cfg.parseLine("cc.policy=evict");
    sync_cfg.parseLine("tol.max_sb_insts=120");
    Config async_cfg = asyncCfg(2, 2, 2);
    async_cfg.parseLine("cc.capacity_words=768");
    async_cfg.parseLine("cc.policy=evict");
    async_cfg.parseLine("tol.max_sb_insts=120");

    RunResult sync = run(sync_cfg);
    RunResult async = run(async_cfg);
    EXPECT_GT(async.ctl->stats().value("cc.evictions"), 0u);
    EXPECT_TRUE(async.ctl->tol().state() == sync.ctl->tol().state());
    EXPECT_TRUE(async.ctl->registry().checkInvariants().empty());
}

// The verifier must see every asynchronously published translation —
// including those queued at run end and flushed by the drain — and
// prove all of them even while an evicting cache recycles code space.
// This is the install-time verify + async-publish quiesce target.
TEST(AsyncPipeline, InstallTimeProofsUnderAsyncPublish)
{
    Config cfg = asyncCfg(4, 2, 2);
    cfg.parseLine("cc.capacity_words=768");
    cfg.parseLine("cc.policy=evict");
    cfg.parseLine("tol.verify=true");

    RunResult r = run(cfg);
    r.ctl->tol().verifyFinal();
    const verify::VerifyReport &rep = r.ctl->tol().verifyReport();
    EXPECT_TRUE(rep.clean()) << rep.summary();
    EXPECT_GT(rep.proved, 0u);
}

// ---------------------------------------------------------------------
// AsyncTranslator unit behavior
// ---------------------------------------------------------------------

TEST(AsyncTranslatorUnit, PublishOrderIsVirtualTime)
{
    tol::AsyncTranslator at(2, 8, [](tol::TranslationJob &j) {
        j.passWork = j.seq + 1; // marker: worker ran
    });

    // Enqueue in seq order 0,1,2 with completion points 30,10,10:
    // publish order must be (10, seq1), (10, seq2), (30, seq0).
    for (u64 comp : {30u, 10u, 10u}) {
        auto job = std::make_unique<tol::TranslationJob>();
        job->entry = GAddr(comp);
        job->completesAt = comp;
        at.enqueue(std::move(job));
    }
    EXPECT_EQ(at.pendingCount(), 3u);
    EXPECT_TRUE(at.pendingFor(GAddr(30)));
    EXPECT_FALSE(at.pendingFor(GAddr(99)));

    auto none = at.takeDue(5);
    EXPECT_TRUE(none.empty());

    auto due = at.takeDue(10);
    ASSERT_EQ(due.size(), 2u);
    EXPECT_EQ(due[0]->seq, 1u);
    EXPECT_EQ(due[1]->seq, 2u);
    for (const auto &j : due) {
        EXPECT_TRUE(j->ready);
        EXPECT_EQ(j->passWork, j->seq + 1);
    }
    EXPECT_EQ(at.pendingCount(), 1u);

    auto rest = at.takeDue(1000);
    ASSERT_EQ(rest.size(), 1u);
    EXPECT_EQ(rest[0]->seq, 0u);
    EXPECT_EQ(at.pendingCount(), 0u);
}

// A completesAt that wraps past ~0 (enqueuedAt + latency overflow) or
// lands exactly on the ~0 idle sentinel must be clamped to
// maxCompletesAt: the sentinel alias would otherwise leave nextDue_
// reading "idle" and the publish pump would skip the job forever,
// while a wrapped value would publish a just-enqueued job immediately.
TEST(AsyncTranslatorUnit, CompletesAtSentinelBoundaryIsClamped)
{
    tol::AsyncTranslator at(1, 8, [](tol::TranslationJob &) {});

    auto alias = std::make_unique<tol::TranslationJob>();
    alias->entry = GAddr(1);
    alias->enqueuedAt = ~0ull - 5;
    alias->completesAt = ~0ull; // idle-sentinel alias
    at.enqueue(std::move(alias));

    auto wrapped = std::make_unique<tol::TranslationJob>();
    wrapped->entry = GAddr(2);
    wrapped->enqueuedAt = ~0ull - 5;
    wrapped->completesAt = 3; // enqueuedAt + latency wrapped past ~0
    at.enqueue(std::move(wrapped));

    // Neither publishes early (the wrapped value must not look due at
    // small virtual times)...
    EXPECT_TRUE(at.takeDue(1000).empty());
    EXPECT_TRUE(
        at.takeDue(tol::AsyncTranslator::maxCompletesAt - 1).empty());
    // ...and both publish at the saturation point instead of being
    // lost to the sentinel.
    auto due = at.takeDue(tol::AsyncTranslator::maxCompletesAt);
    ASSERT_EQ(due.size(), 2u);
    for (const auto &j : due)
        EXPECT_EQ(j->completesAt,
                  tol::AsyncTranslator::maxCompletesAt);
}

TEST(AsyncTranslatorUnit, QueueBoundIsEnqueueHistory)
{
    // Workers that never finish fast: the bound must still be pure
    // enqueue/publish accounting, independent of worker progress.
    tol::AsyncTranslator at(1, 2, [](tol::TranslationJob &) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    });
    EXPECT_FALSE(at.full());
    for (int i = 0; i < 2; ++i) {
        auto job = std::make_unique<tol::TranslationJob>();
        job->completesAt = 100;
        at.enqueue(std::move(job));
    }
    EXPECT_TRUE(at.full());
    auto due = at.takeDue(100); // blocks (wall clock) until prepared
    EXPECT_EQ(due.size(), 2u);
    EXPECT_FALSE(at.full());
}

TEST(AsyncTranslatorUnit, DrainWaitsForAllWorkers)
{
    std::atomic<int> prepared{0};
    tol::AsyncTranslator at(4, 16, [&](tol::TranslationJob &) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        prepared.fetch_add(1);
    });
    for (int i = 0; i < 8; ++i) {
        auto job = std::make_unique<tol::TranslationJob>();
        job->completesAt = u64(1000 + i);
        at.enqueue(std::move(job));
    }
    at.drain();
    EXPECT_EQ(prepared.load(), 8);
    EXPECT_EQ(at.pendingCount(), 8u); // drain prepares, never publishes
}

TEST(AsyncTranslatorUnit, WorkerExceptionSurfacesAtPublish)
{
    tol::AsyncTranslator at(1, 4, [](tol::TranslationJob &) {
        throw std::runtime_error("verifier rejected region");
    });
    auto job = std::make_unique<tol::TranslationJob>();
    job->completesAt = 1;
    at.enqueue(std::move(job));
    auto due = at.takeDue(1);
    ASSERT_EQ(due.size(), 1u);
    EXPECT_EQ(due[0]->verifyError, "verifier rejected region");
}

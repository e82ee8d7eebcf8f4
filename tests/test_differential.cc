/**
 * @file
 * Randomized differential testing: the strongest correctness check in
 * the repository. Synthetic programs with aggressive ISA coverage run
 * through the full co-designed path (IM + BBM + SBM with every
 * optimization enabled) and through the reference interpreter; final
 * architectural state, instruction counts, and all touched memory
 * must match bit-exactly.
 *
 * This mirrors the paper's correctness architecture (Section V-D):
 * the x86 component's authoritative state validates the co-designed
 * component's emulated state. The co-designed side runs under a
 * Controller (its own validation stays on); the comparisons below are
 * against a separate golden reference run.
 */

#include <gtest/gtest.h>

#include <memory>

#include "common/schema.hh"
#include "sim/controller.hh"
#include "workloads/synth.hh"
#include "xemu/ref_component.hh"

using namespace darco;
using namespace darco::guest;
using namespace darco::tol;
using darco::workloads::synthesize;
using darco::workloads::WorkloadParams;
using darco::xemu::RefComponent;

namespace
{

struct DiffCase
{
    u64 seed;
    const char *cfgName;
    std::vector<std::string> cfg;
};

void
PrintTo(const DiffCase &c, std::ostream *os)
{
    *os << "seed" << c.seed << "/" << c.cfgName;
}

class Differential : public ::testing::TestWithParam<DiffCase>
{
};

WorkloadParams
paramsFor(u64 seed)
{
    WorkloadParams p;
    p.seed = seed;
    p.name = "diff" + std::to_string(seed);
    // Rotate through structurally different shapes.
    switch (seed % 4) {
      case 0: // branchy integer
        p.bbLenMin = 3;
        p.bbLenMax = 7;
        p.coldFrac = 0.2;
        p.coldMask = 7;
        p.indirectFrac = 0.05;
        p.callFrac = 0.1;
        break;
      case 1: // fp + trig
        p.fpFrac = 0.5;
        p.trigFrac = 0.25;
        p.bbLenMin = 8;
        p.bbLenMax = 18;
        break;
      case 2: // memory + strings
        p.memFrac = 0.5;
        p.strFrac = 0.08;
        p.loopFrac = 0.15;
        break;
      default: // everything at once
        p.fpFrac = 0.3;
        p.trigFrac = 0.15;
        p.strFrac = 0.05;
        p.indirectFrac = 0.04;
        p.callFrac = 0.08;
        p.coldFrac = 0.15;
        break;
    }
    p.numBlocks = 40;
    p.outerIters = 160; // enough to reach SBM with test thresholds
    return p;
}

} // namespace

TEST_P(Differential, CoDesignedMatchesReference)
{
    const DiffCase &c = GetParam();
    Program prog = synthesize(paramsFor(c.seed));

    RefComponent ref(c.seed);
    ref.load(prog);
    ref.runToCompletion(100'000'000);
    ASSERT_TRUE(ref.finished());

    Config cfg(c.cfg);
    cfg.set("seed", s64(c.seed));
    if (!cfg.has("tol.bb_threshold"))
        cfg.set("tol.bb_threshold", s64(4));
    if (!cfg.has("tol.sb_threshold"))
        cfg.set("tol.sb_threshold", s64(12));
    if (!cfg.has("tol.min_edge_total"))
        cfg.set("tol.min_edge_total", s64(8));
    sim::Controller ctl(cfg);
    ctl.load(prog);
    ctl.run();
    Tol &tol = ctl.tol();
    ASSERT_TRUE(tol.finished());

    EXPECT_TRUE(ref.state() == tol.state())
        << "diverged: " << ref.state().diff(tol.state());
    EXPECT_EQ(ref.instCount(), tol.completedInsts());
    EXPECT_EQ(ref.bbCount(), tol.completedBBs());

    PagedMemory &mem = ctl.emulatedMemory();
    for (GAddr page : mem.residentPages()) {
        std::vector<u8> mine(pageSizeBytes), theirs(pageSizeBytes);
        mem.readBlock(page, mine.data(), pageSizeBytes);
        ref.memory().readBlock(page, theirs.data(), pageSizeBytes);
        ASSERT_EQ(mine, theirs)
            << "memory diverged at page 0x" << std::hex << page;
    }

    // The point of the exercise: the optimized path must actually be
    // exercised, not accidentally interpreted (unless the config
    // deliberately disables SBM).
    if (conf::getBool(cfg, "tol.enable_sbm")) {
        EXPECT_GT(ctl.stats().value("tol.guest_sbm"), 0u);
    }
}

static std::vector<DiffCase>
makeCases()
{
    std::vector<DiffCase> cases;
    for (u64 seed = 1; seed <= 24; ++seed)
        cases.push_back({seed, "default", {}});
    // Config axes on a few seeds each: every ablation must stay
    // correct, not just fast/slow.
    for (u64 seed = 1; seed <= 6; ++seed) {
        cases.push_back({seed, "nosched", {"tol.sched=false"}});
        cases.push_back({seed, "nospec", {"tol.spec_mem=false"}});
        cases.push_back({seed, "noopt", {"tol.opt=false"}});
        cases.push_back({seed, "nochain", {"tol.chaining=false"}});
        cases.push_back({seed, "nounroll", {"tol.unroll=false"}});
        cases.push_back({seed, "nofuse", {"tol.fuse_flags=false"}});
        cases.push_back({seed, "bbonly", {"tol.enable_sbm=false"}});
        cases.push_back(
            {seed, "noassert", {"tol.max_assert_fails=0"}});
        cases.push_back({seed, "tinycc",
                         {"cc.capacity_words=6000"}}); // forces flushes
    }
    return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, Differential, ::testing::ValuesIn(makeCases()),
    [](const ::testing::TestParamInfo<DiffCase> &info) {
        return "seed" + std::to_string(info.param.seed) + "_" +
               info.param.cfgName;
    });

/**
 * @file
 * Workload-generator determinism tests.
 *
 * The repeatability contract everything else leans on (differential
 * testing, fuzzing, figure reproduction): the same seed through
 * workloads::synth must produce a bit-identical program image, and two
 * full co-designed runs of it must retire the same instructions into
 * the same final architectural state with identical stats.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "sim/controller.hh"
#include "workloads/synth.hh"

using namespace darco;
using namespace darco::guest;
using darco::workloads::synthesize;
using darco::workloads::WorkloadParams;

namespace
{

WorkloadParams
testParams(u64 seed)
{
    WorkloadParams p;
    p.seed = seed;
    p.name = "det" + std::to_string(seed);
    p.numBlocks = 24;
    p.outerIters = 120;
    p.fpFrac = 0.2;
    p.trigFrac = 0.1;
    p.memFrac = 0.35;
    p.strFrac = 0.05;
    p.indirectFrac = 0.04;
    p.callFrac = 0.08;
    return p;
}

struct RunResult
{
    CpuState state;
    u64 insts;
    u64 bbs;
    std::string stats;
};

RunResult
runOnce(const Program &prog, u64 seed)
{
    Config cfg;
    cfg.set("seed", s64(seed));
    cfg.set("tol.bb_threshold", s64(4));
    cfg.set("tol.sb_threshold", s64(12));
    cfg.set("tol.min_edge_total", s64(8));
    sim::Controller ctl(cfg);
    ctl.load(prog);
    ctl.run();
    tol::Tol &tol = ctl.tol();
    EXPECT_TRUE(tol.finished());

    RunResult r;
    r.state = tol.state();
    r.insts = tol.completedInsts();
    r.bbs = tol.completedBBs();
    std::ostringstream os;
    ctl.stats().dumpJson(os);
    r.stats = os.str();
    return r;
}

} // namespace

TEST(WorkloadDeterminism, SameSeedSameProgramImage)
{
    for (u64 seed : {1ull, 3ull, 11ull}) {
        Program a = synthesize(testParams(seed));
        Program b = synthesize(testParams(seed));
        EXPECT_EQ(a.code, b.code) << "seed " << seed;
        EXPECT_EQ(a.data, b.data) << "seed " << seed;
        EXPECT_EQ(a.entry, b.entry) << "seed " << seed;
    }
}

TEST(WorkloadDeterminism, DifferentSeedsDifferentPrograms)
{
    Program a = synthesize(testParams(2));
    Program b = synthesize(testParams(9));
    EXPECT_NE(a.code, b.code);
}

TEST(WorkloadDeterminism, SameSeedBitIdenticalRuns)
{
    const u64 seed = 7;
    Program prog = synthesize(testParams(seed));

    RunResult r1 = runOnce(prog, seed);
    RunResult r2 = runOnce(prog, seed);

    EXPECT_TRUE(r1.state == r2.state)
        << "state drift: " << r1.state.diff(r2.state);
    EXPECT_EQ(r1.insts, r2.insts);
    EXPECT_EQ(r1.bbs, r2.bbs);
    // The full stats dump — mode distribution, translation counts,
    // rollbacks, cost model — must be reproduced line for line.
    EXPECT_EQ(r1.stats, r2.stats);
}

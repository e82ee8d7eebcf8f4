/**
 * @file
 * Warm-up methodology tests (case study VI-E): threshold downscaling
 * accelerates TOL-state maturation, short warm-up without scaling is
 * inaccurate, and the offline heuristic picks a configuration that
 * beats naive short warm-up at a fraction of the authoritative cost.
 */

#include <gtest/gtest.h>

#include "sampling/warmup.hh"
#include "workloads/synth.hh"

using namespace darco;
using namespace darco::sampling;
using darco::workloads::synthesize;
using darco::workloads::WorkloadParams;

namespace
{

guest::Program
longWorkload()
{
    WorkloadParams p;
    p.seed = 31;
    p.name = "sampled";
    p.numBlocks = 64;
    p.outerIters = 3000;
    p.fpFrac = 0.2;
    return synthesize(p);
}

Config
cfg()
{
    // Paper-like thresholds: promotion takes a while, which is what
    // makes TOL warm-up expensive.
    return Config({"tol.bb_threshold=32", "tol.sb_threshold=512",
                   "tol.min_edge_total=16"});
}

const SampleSpec spec{600'000, 60'000};

} // namespace

TEST(Sampling, AuthoritativeSampleIsMostlySbm)
{
    SampleMetrics auth = runAuthoritative(longWorkload(), cfg(), spec);
    EXPECT_GT(auth.sbmFrac, 0.5)
        << "by 600k instructions the hot code must be superblocks";
    EXPECT_GT(auth.translationsAtSampleStart, 10u);
}

TEST(Sampling, ShortUnscaledWarmupIsInaccurate)
{
    guest::Program p = longWorkload();
    SampleMetrics auth = runAuthoritative(p, cfg(), spec);
    // Microarchitecture-scale warm-up (a few thousand instructions)
    // with original thresholds: TOL state is cold, statistics wrong
    // (the paper's core observation).
    SampleMetrics naive = runSample(p, cfg(), spec, 20'000, 1);
    EXPECT_GT(modeError(naive, auth), 0.25)
        << "im/bbm/sbm = " << naive.imFrac << "/" << naive.bbmFrac
        << "/" << naive.sbmFrac << " vs auth " << auth.imFrac << "/"
        << auth.bbmFrac << "/" << auth.sbmFrac;
}

TEST(Sampling, DownscaledThresholdsRecoverAccuracy)
{
    guest::Program p = longWorkload();
    SampleMetrics auth = runAuthoritative(p, cfg(), spec);
    SampleMetrics naive = runSample(p, cfg(), spec, 20'000, 1);
    SampleMetrics scaled = runSample(p, cfg(), spec, 20'000, 8);
    EXPECT_LT(modeError(scaled, auth), modeError(naive, auth))
        << "same warm-up length, downscaled thresholds must be closer";
    EXPECT_LT(modeError(scaled, auth), 0.15);
}

TEST(Sampling, MismatchedScalingOverPromotes)
{
    // The paper's trade-off: the scaling factor must match the
    // warm-up length. A large factor applied over a long warm-up
    // promotes far more code to SBM than the authoritative execution
    // has at the sample point — this non-monotonicity is exactly why
    // the offline heuristic exists.
    guest::Program p = longWorkload();
    SampleMetrics auth = runAuthoritative(p, cfg(), spec);
    SampleMetrics matched = runSample(p, cfg(), spec, 20'000, 8);
    SampleMetrics overscaled = runSample(p, cfg(), spec, 100'000, 8);
    EXPECT_LT(modeError(matched, auth), 0.15);
    EXPECT_GT(modeError(overscaled, auth), modeError(matched, auth));
    EXPECT_GT(overscaled.sbmFrac, auth.sbmFrac + 0.1)
        << "over-promotion shows up as inflated SBM share";
}

TEST(Sampling, HeuristicPicksAccurateCheapConfig)
{
    guest::Program p = longWorkload();
    std::vector<WarmupCandidate> cands = {
        {5'000, 1},  {20'000, 1},  {5'000, 8},
        {20'000, 8}, {20'000, 16}, {60'000, 8},
    };
    HeuristicResult r = pickWarmup(p, cfg(), spec, cands);
    ASSERT_EQ(r.scores.size(), cands.size());
    // The winner must beat the naive unscaled candidates.
    double naive_err = 1e9;
    for (auto &[c, e] : r.scores) {
        if (c.scale == 1)
            naive_err = std::min(naive_err, e);
    }
    EXPECT_LE(r.bestError, naive_err);
    EXPECT_GT(r.best.scale, 1u) << "scaling should win for this setup";

    // Simulation-cost reduction vs authoritative (the paper's 65x is
    // for full-length workloads; the shape is what matters).
    double speedup = double(r.authoritative.detailedInsts) /
                     double(r.best.warmupLen + spec.length);
    EXPECT_GT(speedup, 4.0);
}

TEST(Sampling, SharedFastForwardCutsSimulationCost)
{
    guest::Program p = longWorkload();
    std::vector<WarmupCandidate> cands = {
        {5'000, 1}, {20'000, 8}, {60'000, 8}, {100'000, 8},
    };
    HeuristicResult r = pickWarmup(p, cfg(), spec, cands);

    // One shared checkpoint at skip - max(warmupLen), then deltas:
    // ffmin + sum(max_warmup - warmup_i) instead of sum(skip - warmup_i).
    u64 max_warmup = 100'000;
    u64 ffmin = spec.skip - max_warmup;
    u64 expect_exec = ffmin; // the checkpoint itself
    u64 expect_naive = 0;
    for (const WarmupCandidate &c : cands) {
        expect_exec += max_warmup - c.warmupLen;
        expect_naive += spec.skip - c.warmupLen;
    }
    EXPECT_EQ(r.ffInstsExecuted, expect_exec);
    EXPECT_EQ(r.ffInstsNaive, expect_naive);
    EXPECT_LT(r.ffInstsExecuted, r.ffInstsNaive);
}

TEST(Sampling, CheckpointedSampleMatchesColdSample)
{
    guest::Program p = longWorkload();
    SampleMetrics cold = runSample(p, cfg(), spec, 20'000, 8);
    FastForwardCheckpoint ckpt =
        makeFastForwardCheckpoint(p, cfg(), spec.skip - 100'000);
    SampleMetrics warm =
        runSample(p, cfg(), spec, 20'000, 8, false, &ckpt);

    // Restoring the shared snapshot must not change the measurement.
    EXPECT_EQ(warm.imFrac, cold.imFrac);
    EXPECT_EQ(warm.bbmFrac, cold.bbmFrac);
    EXPECT_EQ(warm.sbmFrac, cold.sbmFrac);
    EXPECT_EQ(warm.translationsAtSampleStart,
              cold.translationsAtSampleStart);
    // Only the fast-forward cost differs.
    EXPECT_EQ(cold.ffInsts, spec.skip - 20'000);
    EXPECT_EQ(warm.ffInsts, 100'000u - 20'000u);
}

TEST(Sampling, WarmupClampedToSkip)
{
    guest::Program p = longWorkload();
    // warmup longer than skip: starts at program begin, no crash.
    SampleMetrics m =
        runSample(p, cfg(), SampleSpec{10'000, 20'000}, 50'000, 4);
    EXPECT_EQ(m.detailedInsts, 10'000u + 20'000u);
}

TEST(Sampling, TimingIpcAvailableWhenRequested)
{
    guest::Program p = longWorkload();
    SampleMetrics m = runSample(p, cfg(), SampleSpec{100'000, 30'000},
                                30'000, 8, true);
    EXPECT_GT(m.ipc, 0.05);
    EXPECT_LT(m.ipc, 4.0);
}

TEST(Sampling, TwoCoreRunsComplete)
{
    // Every core fast-forwards its own reference component and gets
    // its own co-designed memory; budgets count both cores.
    guest::Program p = longWorkload();
    Config c = cfg();
    c.set("cores", s64(2));
    const SampleSpec two{100'000, 30'000};
    SampleMetrics auth = runAuthoritative(p, c, two, true);
    SampleMetrics m = runSample(p, c, two, 20'000, 8, true);
    for (const SampleMetrics *x : {&auth, &m}) {
        EXPECT_NEAR(x->imFrac + x->bbmFrac + x->sbmFrac, 1.0, 1e-9);
        EXPECT_GT(x->ipc, 0.05);
    }
    EXPECT_EQ(m.ffInsts, 80'000u);
    EXPECT_GT(auth.translationsAtSampleStart, 0u);
}

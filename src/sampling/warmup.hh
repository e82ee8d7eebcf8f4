/**
 * @file
 * Warm-up simulation methodology for HW/SW co-designed processors
 * (the paper's Section VI-E case study; Brankovic et al. [20]).
 *
 * Sampling-based simulation fast-forwards functionally to a sample,
 * warms up state, then collects detailed statistics. For co-designed
 * processors the *software-layer* state (translations, profile
 * counters) needs a warm-up 3-4 orders of magnitude longer than the
 * microarchitectural state — a mispredicted code region costs a
 * translation (thousands of cycles), not a cache miss (hundreds).
 *
 * The methodology here reproduces the paper's solution: *downscale
 * the promotion thresholds* during warm-up so code is promoted to
 * higher optimization levels quickly, then restore the original
 * thresholds while collecting statistics. An offline heuristic picks
 * the (scale factor, warm-up length) pair whose sample-window
 * execution distribution best matches the authoritative (full,
 * no-fast-forward) execution.
 */

#ifndef DARCO_SAMPLING_WARMUP_HH
#define DARCO_SAMPLING_WARMUP_HH

#include <vector>

#include "common/config.hh"
#include "guest/program.hh"

namespace darco::sampling
{

/** The sample to measure: guest instructions [skip, skip+length). */
struct SampleSpec
{
    u64 skip = 0;
    u64 length = 100'000;
};

/** One warm-up configuration candidate. */
struct WarmupCandidate
{
    u64 warmupLen = 0; //!< guest instructions simulated before sample
    u32 scale = 1;     //!< promotion-threshold downscale factor
};

/** Metrics collected over the sample window. */
struct SampleMetrics
{
    double imFrac = 0;   //!< guest-instruction share per mode
    double bbmFrac = 0;
    double sbmFrac = 0;
    double tolOverheadFrac = 0; //!< TOL overhead share of host stream
    u64 detailedInsts = 0; //!< warm-up + sample (the simulation cost)
    u64 ffInsts = 0;       //!< functional fast-forward insts executed
    u64 translationsAtSampleStart = 0;
    double ipc = 0;        //!< only when with_timing
};

/**
 * A controller checkpoint at a shared fast-forward point, so a
 * candidate sweep pays the functional fast-forward once instead of
 * once per candidate (see pickWarmup). The image is saved right after
 * sim::Controller::fastForward(ffPoint): the reference components at
 * ffPoint and a cold co-designed component.
 */
struct FastForwardCheckpoint
{
    u64 ffPoint = 0;   //!< guest-instruction count of the snapshot
    std::string image; //!< Controller::saveCheckpoint bytes

    bool valid() const { return !image.empty(); }
};

/** Fast-forward `prog` to `ff_point` once and snapshot the state. */
FastForwardCheckpoint makeFastForwardCheckpoint(
    const guest::Program &prog, const Config &cfg, u64 ff_point);

/**
 * Run one sampled simulation on a sim::Controller: functional
 * fast-forward to (skip - warmup) (Controller::fastForward), warm up
 * with thresholds downscaled by `scale`, restore thresholds, measure
 * the sample. With more than one guest core, every core fast-forwards
 * to (skip - warmup) and the warm-up and sample budgets count the
 * instructions of all cores.
 *
 * warmupLen > skip is clamped (warm-up starts at program start).
 *
 * When `ckpt` is given and lies at or before this run's fast-forward
 * point, the controller restores from it and the reference components
 * only execute the remaining (ff - ckpt->ffPoint) instructions;
 * SampleMetrics::ffInsts reports the fast-forward instructions
 * actually executed.
 */
SampleMetrics runSample(const guest::Program &prog, const Config &cfg,
                        const SampleSpec &spec, u64 warmup_len,
                        u32 scale, bool with_timing = false,
                        const FastForwardCheckpoint *ckpt = nullptr);

/** The authoritative measurement: a full detailed Controller run,
 *  no fast-forward. */
SampleMetrics runAuthoritative(const guest::Program &prog,
                               const Config &cfg,
                               const SampleSpec &spec,
                               bool with_timing = false);

/** Mode-distribution distance (L1 on mode fractions; the paper's
 *  "execution distribution" correlation, lower is better). */
double modeError(const SampleMetrics &a, const SampleMetrics &b);

/** Offline heuristic result. */
struct HeuristicResult
{
    WarmupCandidate best;
    double bestError = 0;
    /** (candidate, error) for every configuration tried. */
    std::vector<std::pair<WarmupCandidate, double>> scores;
    SampleMetrics authoritative;
    /**
     * Fast-forward instructions actually executed across the whole
     * sweep (shared checkpoint + per-candidate deltas) vs what the
     * pre-checkpoint implementation would have executed (every
     * candidate fast-forwarding from instruction 0).
     */
    u64 ffInstsExecuted = 0;
    u64 ffInstsNaive = 0;
};

/**
 * The paper's offline heuristic: evaluate every candidate's sample
 * execution distribution against the authoritative distribution and
 * pick the best match (ties go to the cheaper configuration).
 *
 * The functional fast-forward is shared: one checkpoint is taken at
 * skip - max(warmupLen) and every candidate restores from it, paying
 * only its delta instead of re-running from instruction 0.
 */
HeuristicResult pickWarmup(const guest::Program &prog, const Config &cfg,
                           const SampleSpec &spec,
                           const std::vector<WarmupCandidate> &cands);

} // namespace darco::sampling

#endif // DARCO_SAMPLING_WARMUP_HH

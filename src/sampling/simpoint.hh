/**
 * @file
 * SimPoint-style sampled simulation (Sherwood et al., ASPLOS'02),
 * built on DARCO's BBV profiler and checkpoint infrastructure.
 *
 * Detailed (timing + power) simulation of a full workload is the cost
 * the paper's evaluation methodology fights; sampled simulation runs
 * the detailed models only over a handful of *representative*
 * intervals and weight-combines their measurements into a
 * whole-program estimate. The pipeline:
 *
 *  1. BBV profiling — a functional sim::Controller run with
 *     tol.bbv_interval set collects one basic-block vector per
 *     fixed-length instruction interval (tol::Profiler attributes
 *     every retired instruction to the entry of the retiring region,
 *     so interval sums are exact); harvestBbv reads it out;
 *  2. projection — each BBV is frequency-normalized, randomly
 *     projected to a low dimension (deterministic ±1 projection keyed
 *     by (seed, bb entry, dim), independent of discovery order), and
 *     L2-normalized;
 *  3. clustering — seeded k-means (k-means++ initialization off a
 *     fixed Rng stream, deterministic tie-breaking) swept over
 *     k = 1..maxK and scored with the BIC; the smallest k whose
 *     score gets 90% of the way from the worst score to the best
 *     wins;
 *  4. selection — per cluster, the interval closest to the centroid
 *     becomes a simpoint, weighted by the cluster's *instruction*
 *     share of the program (not interval count), so the final
 *     partial interval contributes exactly its true fraction;
 *  5. measurement — campaign::runJob in SampleMode::SimPoint brings a
 *     controller to each simpoint's warm-up start through the
 *     campaign's checkpoint store (campaign::simpointKey, fetched or
 *     computed), then runs the detailed models over the window.
 *     This header covers stages 1-4, a sampled job's plan: the
 *     campaign reports it (JobResult::plan, "simpoint_plan" in the
 *     JSON report), and with timing off the job stops after it.
 *
 * Every stage is deterministic for a fixed seed: repeated runs, runs
 * after a profiler snapshot round-trip, and runs on different worker
 * counts all produce identical simpoints.
 */

#ifndef DARCO_SAMPLING_SIMPOINT_HH
#define DARCO_SAMPLING_SIMPOINT_HH

#include <vector>

#include "common/rng.hh"
#include "tol/profiler.hh"

namespace darco::sampling
{

/** A workload's interval-granular BBV profile. */
struct BbvProfile
{
    u64 interval = 0;   //!< guest instructions per interval
    u64 totalInsts = 0; //!< retired instructions covered
    /** Closed intervals plus the final partial one (if non-empty). */
    std::vector<tol::Profiler::BbvInterval> intervals;

    std::size_t numIntervals() const { return intervals.size(); }
};

/**
 * Read the collected profile out of a BBV-enabled Profiler
 * (tol.bbv_interval must have been set on that run's config).
 * Appends the open partial interval when non-empty.
 */
BbvProfile harvestBbv(const tol::Profiler &prof);

/** Clustering/selection knobs. */
struct SimPointOptions
{
    u64 interval = 100'000; //!< BBV interval length (guest insts)
    u32 maxK = 16;          //!< k-sweep upper bound
    u64 seed = 42;          //!< Rng stream for init; projection key
};

/** One representative interval. */
struct SimPoint
{
    u32 intervalIndex = 0; //!< which profiling interval
    u32 cluster = 0;
    double weight = 0;     //!< cluster instruction share, sums to 1
    u64 startInst = 0;     //!< intervalIndex * interval
};

/** Result of clustering + selection. */
struct SimPointResult
{
    std::vector<SimPoint> points; //!< sorted by intervalIndex
    u32 k = 0;                    //!< chosen cluster count
    double bic = 0;               //!< score of the chosen k
    std::vector<std::pair<u32, double>> bicSweep; //!< (k, BIC) tried
    std::vector<u32> assignment;  //!< per-interval cluster id
    u64 interval = 0;
    u64 totalInsts = 0;
};

/**
 * Project every interval's BBV: frequency-normalize, apply the
 * deterministic ±1 random projection keyed by `seed`, L2-normalize.
 */
std::vector<std::vector<double>> projectBbvs(const BbvProfile &profile,
                                             u32 dim, u64 seed);

/** Plain k-means (k-means++ init off `rng`, deterministic ties). */
struct KMeans
{
    std::vector<u32> assignment;
    std::vector<std::vector<double>> centroids;
    double sse = 0;
};
KMeans kmeans(const std::vector<std::vector<double>> &points, u32 k,
              Rng &rng, u32 iters);

/** BIC of a clustering (spherical-Gaussian likelihood, X-means). */
double bicScore(const KMeans &km,
                const std::vector<std::vector<double>> &points);

/** The full pipeline stages 2-4 over a collected profile. */
SimPointResult pickSimPoints(const BbvProfile &profile,
                             const SimPointOptions &opts);

} // namespace darco::sampling

#endif // DARCO_SAMPLING_SIMPOINT_HH

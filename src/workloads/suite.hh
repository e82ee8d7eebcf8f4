/**
 * @file
 * The named benchmark suites: one synthetic workload per benchmark the
 * paper evaluates (SPECINT2006, SPECFP2006, Physicsbench), with
 * parameters calibrated to each benchmark's published structural
 * characteristics (see DESIGN.md substitution table), and the small
 * proof suite that translation verification (tol.verify) runs over.
 */

#ifndef DARCO_WORKLOADS_SUITE_HH
#define DARCO_WORKLOADS_SUITE_HH

#include <vector>

#include "workloads/synth.hh"

namespace darco::workloads
{

/** Benchmark-suite grouping, as in the paper's figures. */
enum class SuiteGroup : u8
{
    SpecInt,
    SpecFp,
    Physics,
    Proof, //!< proofSuite, not a paper benchmark
};

const char *suiteGroupName(SuiteGroup g);

/** A named benchmark: generator parameters + its group. */
struct Benchmark
{
    WorkloadParams params;
    SuiteGroup group;
};

/**
 * The full 31-entry evaluation suite: 11 SPECINT2006, 13 SPECFP2006,
 * 7 Physicsbench, in the paper's figure order.
 *
 * @param scale multiplies each workload's dynamic length (outer
 *        iterations); 1.0 is the default bench size (~1-4 M guest
 *        instructions per workload).
 */
std::vector<Benchmark> paperSuite(double scale = 1.0);

/**
 * The proof suite: six small, structurally diverse programs that
 * between them exercise every translation shape (plain BBs, biased
 * superblocks with asserts, counted-loop unrolling, memory
 * speculation, FP/trig, calls and indirect dispatch), all in group
 * Proof. Every translation they produce under every preset proves
 * (the paper suite's do not all decide). `scale` is paperSuite's.
 */
std::vector<Benchmark> proofSuite(double scale = 1.0);

/** Find a suite benchmark by name (nullptr if unknown). */
const Benchmark *findBenchmark(const std::vector<Benchmark> &suite,
                               const std::string &name);

} // namespace darco::workloads

#endif // DARCO_WORKLOADS_SUITE_HH

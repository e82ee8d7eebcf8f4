/**
 * @file
 * Multi-config differential execution of one guest program.
 *
 * The fuzzer's oracle. One golden run of the reference component
 * provides the authoritative final state; the same program then runs
 * through the full Controller (co-designed component + sync protocol +
 * built-in validation) under a matrix of TOL configurations:
 *
 *   interp   IM only (no translation at all)
 *   noopt    BBM+SBM translation with every optimization disabled
 *   fullopt  the default, fully optimizing pipeline
 *   tinycc   fullopt squeezed into a tiny code cache (eviction storm)
 *
 * Every run is cross-checked against the golden state: architectural
 * registers, exit code, resident memory image, deterministic OS
 * output, and the stats invariants (retired instructions and dynamic
 * basic blocks equal across all configs; IM+BBM+SBM mode counts sum
 * to the retired-instruction count — so e.g. an eviction storm with
 * cc.evictions > 0 must still show zero divergence). When a cell runs
 * with BBV profiling enabled (tol.bbv_interval in the overrides), the
 * oracle additionally enforces the BBV conservation invariant: every
 * closed profiling interval sums to exactly the interval length and
 * the per-interval counts total the retired-instruction count
 * (Profiler::checkBbvInvariants). Hangs are caught
 * with an instruction budget derived from the golden run; divergence
 * exceptions thrown by the Controller's own validation are captured
 * as failures, and an optional lockstep replay (sim/debug.hh)
 * pinpoints the first divergent region for the report.
 */

#ifndef DARCO_FUZZ_DIFFRUN_HH
#define DARCO_FUZZ_DIFFRUN_HH

#include <string>
#include <vector>

#include "common/config.hh"
#include "guest/program.hh"
#include "guest/state.hh"

namespace darco::fuzz
{

/** One cell of the config matrix. */
struct DiffConfig
{
    std::string name;
    std::vector<std::string> overrides; //!< "key=value" strings
};

/**
 * The standard cross-validation matrix: the campaign presets interp,
 * noopt, fullopt, tinycc and async (campaign::presetOverrides), then
 * mc, which is tinycc on two guest cores.
 */
std::vector<DiffConfig> defaultMatrix();

/**
 * The standard matrix plus `n` random cells ("rand0".."rand<n-1>"),
 * each drawn from the schema's declared fuzz ranges/domains
 * (deterministic in `seed`): every config is valid by construction,
 * widening coverage beyond the four hand-written presets.
 */
std::vector<DiffConfig> randomMatrix(u64 seed, unsigned n);

/** Per-config execution record. */
struct RunOutcome
{
    std::string config;
    bool finished = false; //!< program completed within budget
    std::string error;     //!< exception text (divergence, fault...)
    guest::CpuState state;
    u32 exitCode = 0;
    u64 insts = 0;
    u64 bbs = 0;
    u64 evictions = 0;
    u64 flushes = 0;
    u64 imInsts = 0, bbmInsts = 0, sbmInsts = 0;
    u64 bbvIntervals = 0; //!< closed BBV intervals (when profiling)
    bool bbvChecked = false; //!< conservation invariant was evaluated
    bool proofsChecked = false; //!< symbolic proofs ran (opts.proofs)
    u64 proved = 0, refuted = 0, unproven = 0; //!< proof verdicts
    std::string osOutput;
};

/** Result of one differential run. */
struct DiffResult
{
    bool ok = true;
    std::string failConfig; //!< config of the first failure
    std::string failure;    //!< human-readable description
    std::vector<RunOutcome> runs;

    /** Multi-line report (all configs + failure details). */
    std::string report() const;
};

/** Budget of each golden reference run. */
constexpr u64 maxRefInsts = 50'000'000;
/** Co-designed budget = ref insts * budgetSlack + budgetFloor: a
 *  run that outgrows it hangs. */
constexpr u64 budgetSlack = 4;
constexpr u64 budgetFloor = 100'000;

/** Knobs for diffRun(). */
struct DiffOptions
{
    /**
     * Extra "key=value" overrides applied to every matrix cell after
     * its own overrides (fault injection, threshold sweeps).
     */
    std::vector<std::string> extra;
    /** The config matrix; defaults to defaultMatrix(). */
    std::vector<DiffConfig> matrix;
    /**
     * On a state divergence, lockstep-replay the failing config with
     * sim::findFirstDivergence and append the guilty region's guest
     * pc and disassembly to the failure report.
     */
    bool pinpoint = false;
    /**
     * Discharge a symbolic equivalence proof for every translation
     * each cell installs (tol.verify=true) and cross-check the
     * verdicts against the differential oracle: a refuted/unknown
     * proof on a cell the oracle passed is a failure (a silent
     * miscompile the end-to-end comparison happened to miss), and an
     * oracle divergence with every proof clean is flagged in the
     * failure report (sync-protocol bug or verifier gap).
     */
    bool proofs = false;
};

/**
 * Build the effective Config for one matrix cell: fuzzing thresholds
 * (fast promotion so small programs reach SBM), the cell's overrides,
 * then `extra`, then the program seed.
 */
Config makeConfig(const DiffConfig &cell, u64 seed,
                  const std::vector<std::string> &extra);

/**
 * Execute `prog` under the whole matrix and cross-validate.
 * Never throws for program-level failures: they land in the result.
 */
DiffResult diffRun(const guest::Program &prog, u64 seed,
                   const DiffOptions &opts = DiffOptions());

} // namespace darco::fuzz

#endif // DARCO_FUZZ_DIFFRUN_HH

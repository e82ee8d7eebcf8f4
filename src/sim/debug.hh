/**
 * @file
 * Divergence debug toolchain (paper Sections IV/V-D).
 *
 * When validation detects a mismatch between the co-designed and
 * authoritative states, this tool re-executes the run under a
 * Controller in region-sized slices, brings each core's reference
 * component to that core's execution point after every slice, and
 * pinpoints the first region whose retirement produced divergent
 * state — reporting the core, its guest entry pc, the covered
 * instruction range, the state diff, and a disassembly of the guilty
 * guest code ("pinpoints the exact basic block where the problem
 * originated").
 *
 * The replay takes the same path as the failed run, page transfers
 * and syscall synchronization included, and deterministic
 * re-execution makes it reliable: a divergence seen once reproduces
 * identically.
 */

#ifndef DARCO_SIM_DEBUG_HH
#define DARCO_SIM_DEBUG_HH

#include <functional>
#include <optional>
#include <string>

#include "common/config.hh"
#include "guest/program.hh"
#include "tol/tol.hh"

namespace darco::sim
{

/** Report for the first divergent region. */
struct DivergencePoint
{
    u32 core = 0;              //!< guest core whose state diverged
    GAddr regionEntryPc = 0;   //!< guest pc the bad region started at
    u64 instFrom = 0;          //!< core's retired insts at region entry
    u64 instTo = 0;            //!< core's retired insts after it
    std::string stateDiff;     //!< authoritative vs emulated
    std::string disassembly;   //!< guest code of the region's first BB
};

/**
 * Replay a program slice by slice and locate the first divergent
 * region, on any core. The replay validates state at every syscall
 * (whatever `cfg` says), so a slice that ends in a syscall on
 * diverged state is reported like any other; the end-of-run
 * validation is left to the per-slice comparison.
 *
 * @param max_insts budget in retired instructions, all cores.
 * @param sabotage optional fault-injection hook called after every
 *        co-designed execution slice with (tol, completed_insts) —
 *        used by tests and the debug example to emulate a translator
 *        bug.
 * @return nullopt if the run completes with no divergence.
 */
std::optional<DivergencePoint> findFirstDivergence(
    const guest::Program &prog, const Config &cfg, u64 max_insts,
    const std::function<void(tol::Tol &, u64)> &sabotage = {});

} // namespace darco::sim

#endif // DARCO_SIM_DEBUG_HH

/**
 * @file
 * The Controller: DARCO's main user interface (paper Section V).
 *
 * Owns both components and implements the three-phase execution flow:
 *
 *  1. Initialization — load the program into the reference component,
 *     transfer the initial architectural state to the co-designed
 *     component;
 *  2. Execution — the co-designed component (TOL + host emulator)
 *     makes forward progress while the reference component idles;
 *  3. Synchronization — on data requests (first touch of a guest
 *     page), syscalls (executed only by the reference component), and
 *     end of application. The reference component runs forward to the
 *     same execution point (completed-instruction count), then pages /
 *     syscall effects / final state cross the boundary.
 *
 * The controller also owns correctness validation: the co-designed
 * component's emulated state is compared against the reference
 * component's authoritative state at syscalls and at program end
 * (configurable), and the divergence debug toolchain (debug.hh) can
 * pinpoint the first bad region.
 */

#ifndef DARCO_SIM_CONTROLLER_HH
#define DARCO_SIM_CONTROLLER_HH

#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "common/config.hh"
#include "common/logging.hh"
#include "common/stats.hh"
#include "guest/program.hh"
#include "obs/session.hh"
#include "tol/tol.hh"
#include "xemu/ref_component.hh"

namespace darco::sim
{

/** Raised when validation finds reference/co-designed divergence. */
class DivergenceError : public std::runtime_error
{
  public:
    explicit DivergenceError(const std::string &what)
        : std::runtime_error(what)
    {}
};

/**
 * The DARCO controller.
 *
 * Configuration: every parameter (the sync.* validation toggles, all
 * forwarded Tol/HostEmu/CostModel/timing/power keys) is declared in
 * the central schema (src/common/schema.cc); see the generated
 * reference in docs/CONFIG.md or `darco_campaign --list-config`. The
 * constructor validates the whole Config against that schema:
 * unknown keys (with a nearest-match suggestion), out-of-range
 * values and bad enum strings raise FatalError.
 */
class Controller : public tol::Tol::Env
{
  public:
    explicit Controller(const Config &cfg = Config());
    /** Flushes and writes the observability outputs (if enabled). */
    ~Controller();

    /**
     * Initialization phase. Builds the co-designed component (Tol):
     * the controller is inert until the first load(), and loading
     * again restarts cleanly with a fresh Tol and emulated memory.
     */
    void load(const guest::Program &prog);

    /** Has load() been called yet? */
    bool loaded() const { return tol_ != nullptr; }

    /** Execution phase; returns when the program finishes. */
    void run(u64 max_guest_insts = ~0ull);

    /** One bounded execution slice; false once finished. */
    bool step(u64 guest_insts);

    bool finished() const { return tol_ && tol_->finished(); }
    /** Core 0's exit code (the single-core exit code). */
    u32 exitCode() const { return refs_[0]->exitCode(); }

    /** Guest hardware contexts (`cores` parameter). */
    u32 numCores() const { return cores_; }

    /**
     * Compare co-designed vs authoritative state now (both sides must
     * be at the same completed-instruction count).
     * @return empty string if equal, else a diff description.
     */
    std::string validateState(u32 core = 0);

    /** Full end-of-application validation (registers + memory),
     *  applied to every core. */
    void validateFinal();

    xemu::RefComponent &ref(u32 core = 0) { return *refs_[core]; }

    tol::Tol &
    tol()
    {
        darco_assert(tol_, "Controller::load() must run first");
        return *tol_;
    }

    /** Code-cache / translation introspection (tests, debug tools). */
    host::CodeCache &codeCache() { return tol().codeCache(); }
    tol::TranslationRegistry &registry() { return tol().registry(); }

    guest::PagedMemory &emulatedMemory(u32 core = 0)
    {
        return *mems_[core];
    }
    StatGroup &stats() { return stats_; }
    const Config &config() const { return cfg_; }

    /** The run's tracing/metrics session; null when obs.* disabled. */
    obs::Session *obsSession() { return obs_.get(); }

    // --- checkpoint/restore ----------------------------------------------
    /**
     * Serialize the full simulation state (both components, stats)
     * as a versioned checkpoint. Host code is not serialized:
     * restoreCheckpoint() retranslates every registered region, so
     * the image is host-agnostic. If execution paused inside a
     * translated region, the runtime first runs to the next region
     * boundary (Tol::quiesce), so the saved point can overshoot a
     * step() budget by up to one region's remainder.
     */
    void saveCheckpoint(std::ostream &os);

    /**
     * Restore a checkpoint written by saveCheckpoint(). Works on a
     * fresh Controller (no load() needed — the memory images carry
     * the program). The Controller's *execution-relevant* effective
     * config (see docs/CONFIG.md) must match the checkpoint's
     * exactly; parameters that only affect measurement or validation
     * (sync.*, core.*, power.*, ...) may differ freely. A mismatch
     * is refused naming the offending parameter and both values;
     * bad magic/version/truncated streams also throw
     * snapshot::SnapshotError.
     */
    void restoreCheckpoint(std::istream &is);

    // --- Tol::Env (Synchronization phase) --------------------------------
    void dataRequest(u32 core, GAddr page, u64 completed_insts) override;
    bool syscall(u32 core, u64 completed_insts) override;

  private:
    /** Point the Tol at the session's tracer/metrics (if any). */
    void attachObs();
    /** Wire per-core memories into the (fresh) Tol. */
    void attachCoreMemories();

    Config cfg_;
    StatGroup stats_;
    u32 cores_; //!< guest hardware contexts (`cores` parameter)
    /** One authoritative reference component per core (core i seeded
     *  seed+i, matching the Tol's per-core GuestOS streams). */
    std::vector<std::unique_ptr<xemu::RefComponent>> refs_;
    /** One co-designed (demand-paged) memory image per core. */
    std::vector<std::unique_ptr<guest::PagedMemory>> mems_;
    std::unique_ptr<tol::Tol> tol_;
    /** Outlives Tol rebuilds (load/restore); declared before tol_'s
     *  users is irrelevant — tol_ only borrows raw pointers. */
    std::unique_ptr<obs::Session> obs_;
    bool validateSyscalls_;
    bool validateEnd_;
    bool validateMemory_;
};

} // namespace darco::sim

#endif // DARCO_SIM_CONTROLLER_HH

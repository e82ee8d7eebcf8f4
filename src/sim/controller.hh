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
 *     makes forward progress. With one core and no trace sink (which
 *     gets the spare CPU instead), the reference component meanwhile
 *     runs ahead on a thread of its own, under four rules that keep
 *     every page transfer and validation as if it had waited:
 *       1. it stops before writing a page the co-designed memory does
 *          not hold yet, so such a page holds the same bytes at every
 *          count from the co-designed side's request to the
 *          reference's (a store spanning two pages checks both first);
 *       2. it stops before every SYSCALL and HLT, which the
 *          controller executes;
 *       3. it never passes the end of the current run() budget, and
 *          when run() returns it stands at the co-designed count, as
 *          it does on the serial path;
 *       4. if the controller needs it at count n while it is stopped
 *          at m < n (by rule 1 or 2, or before a faulting
 *          instruction), the co-designed side diverged: it catches up
 *          inline, as on the serial path, and raises what that path
 *          raises.
 *     It retires a block per call (guest::retireBlock), so it reads
 *     the budget and publishes its count once per block. A
 *     full-state need at n (a syscall, the end of a run) that finds
 *     the reference already past n is a divergence too, reported
 *     with a message that does not depend on how far it got. The first
 *     run() claims the thread while a CPU is spare
 *     (host::claimSpareCpu); a process allowed one CPU takes the
 *     serial path, which catches the reference up at each
 *     synchronization;
 *  3. Synchronization — on data requests (first touch of a guest
 *     page), syscalls (executed only by the reference component), and
 *     end of application. The reference component is brought to the
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
     * Initialization phase. Builds the co-designed component (Tol)
     * with every counter at zero: the controller is inert until the
     * first load(), and loading again restarts cleanly with a fresh
     * Tol, emulated memory and stats map, as a fresh Controller
     * would.
     */
    void load(const guest::Program &prog);

    /** Has load() been called yet? */
    bool loaded() const { return tol_ != nullptr; }

    /**
     * Functional fast-forward (sampled simulation): run every core's
     * reference component to `n` retired instructions, then restart a
     * cold co-designed component from that state — no translations,
     * no resident pages, each core's retirement count at `n`, so the
     * sync protocol is unchanged. Stats carry on. Every reference must
     * be at or before `n` and still running there.
     */
    void fastForward(u64 n);

    /**
     * Execution phase: run until the program finishes or
     * `max_guest_insts` more guest instructions retire, whichever
     * comes first; call again to continue in slices. A finished
     * program is validated once, when it finishes: a run() after that
     * returns at once and changes nothing.
     * @return true while the program is still running.
     */
    bool run(u64 max_guest_insts = ~0ull);

    bool finished() const { return tol_ && tol_->finished(); }
    /** Core 0's exit code (the single-core exit code). */
    u32 exitCode() const { return refs_[0]->exitCode(); }

    /** Guest hardware contexts (`cores` parameter). */
    u32 numCores() const { return cores_; }

    /**
     * Compare co-designed vs authoritative state now. Both sides stand
     * at the same completed-instruction count after every run().
     * @return empty string if equal, else a diff description.
     */
    std::string validateState(u32 core = 0);

    /** Full end-of-application validation (registers + memory),
     *  applied to every core. */
    void validateFinal();

    xemu::RefComponent &ref(u32 core = 0) { return *refs_[core]; }

    /** Does core 0's reference run ahead on its own thread? */
    bool threaded() const { return ahead_ != nullptr; }

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
     * run() budget by up to one region's remainder.
     */
    void saveCheckpoint(std::ostream &os);

    /**
     * Restore a checkpoint written by saveCheckpoint(). Works on a
     * fresh Controller (no load() needed — the memory images carry
     * the program) and on a used one alike: the state and the full
     * stats map are rebuilt from the image alone, so restoring into
     * a controller that ran anything before equals restoring into a
     * fresh one. The Controller's *execution-relevant* effective
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
    class RunAhead;

    /** Point the Tol at the session's tracer/metrics (if any). */
    void attachObs();
    /**
     * Drop the Tol and start an empty stats map, which the next
     * makeTol() binds its counters in (load and restore).
     */
    void dropTol();
    /** Build a fresh Tol over the current per-core memories. */
    void makeTol();
    /**
     * A cold co-designed component at the references' state: empty
     * memories, a fresh Tol, each core at its reference's count.
     */
    void coldStart();

    /** Core 0's run-ahead thread while run() may use it, else null
     *  (run-ahead needs cores=1). */
    RunAhead *live() const;
    /**
     * Bring the core's reference to count n, for a need of its whole
     * state, and own it: it then stands at n, at its end if that came
     * first (as runUntilInstCount(n) leaves it), or past n if the
     * run-ahead thread had already passed it.
     */
    void reach(u32 core, u64 n);
    /** Restart a run-ahead thread stopped short of n, if it stopped
     *  at the run budget or on a page that has arrived since. */
    bool restart(u32 core, u64 n);
    /** Hand a stopped run-ahead thread the reference again, while
     *  the run budget leaves it room. */
    void resume(u32 core);
    /** Give the run-ahead thread (stopped) and its CPU back. */
    void releaseAhead();

    Config cfg_;
    StatGroup stats_;
    u32 cores_; //!< guest hardware contexts (`cores` parameter)
    /** One authoritative reference component per core (core i seeded
     *  seed+i, so every core runs its own instance of the workload). */
    std::vector<std::unique_ptr<xemu::RefComponent>> refs_;
    /** One co-designed (demand-paged) memory image per core. */
    std::vector<std::unique_ptr<guest::PagedMemory>> mems_;
    std::unique_ptr<tol::Tol> tol_;
    /** Outlives Tol rebuilds (load/restore); declared before tol_'s
     *  users is irrelevant — tol_ only borrows raw pointers. */
    std::unique_ptr<obs::Session> obs_;
    bool validateSyscalls_;
    bool validateEnd_;
    /** Sync-path counters, bound on first use in each stats map. */
    Counter *cPages_ = nullptr, *cSyscalls_ = nullptr,
            *cValidations_ = nullptr;
    /** Core 0's reference on its own thread: claimed by the first
     *  run() without a trace sink after a load, restore or
     *  fastForward, and given back by the next one of those, a run()
     *  with a sink, and the destructor. */
    std::unique_ptr<RunAhead> ahead_;
    bool aheadTried_ = false;
    bool inRun_ = false; //!< the thread may run (inside run())
};

} // namespace darco::sim

#endif // DARCO_SIM_CONTROLLER_HH

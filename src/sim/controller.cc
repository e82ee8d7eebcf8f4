#include "sim/controller.hh"

#include <chrono>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <sstream>
#include <system_error>
#include <thread>
#include <vector>

#include "common/logging.hh"
#include "common/schema.hh"
#include "host/trace_pipeline.hh"
#include "snapshot/io.hh"

namespace darco::sim
{

using namespace guest;
using Stop = xemu::RefComponent::Stop;

namespace
{

/** One step of a spin wait. */
inline void
cpuRelax()
{
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#endif
}

/**
 * Validation choke point: every key must be declared, in range, and
 * inside its enum domain before anything reads it — a typo'd sweep
 * key ("tol.sb_treshold") must never silently run the default
 * experiment. Runs in a member-initializer so it precedes every
 * schema-bound read in the initializer list.
 */
const Config &
validated(const Config &cfg)
{
    cfg.validate(conf::schema(), "controller");
    return cfg;
}

} // namespace

/**
 * A thread that retires a reference component ahead of the
 * co-designed side (rules 1-4 in the file comment of controller.hh).
 * The reference belongs to the thread from go() until the thread
 * stops, and to the controller otherwise; while the thread runs, the
 * controller only reads its published count and copies pages the
 * co-designed side lacks.
 *
 * A Controller claims one with a spare CPU in run() and gives both
 * back on load, restore, fastForward and destruction. Given-back
 * threads sleep in a process-wide idle list until the next claim, and
 * are joined at exit: a thread per Controller would start and end
 * with every campaign job, and a new thread can take a new malloc
 * arena, which raised perfbench `campaign`'s peak RSS by 17-30% in a
 * quarter of the runs.
 */
class Controller::RunAhead
{
  public:
    RunAhead() = default;

    /** Joins the thread, which must have stopped. */
    ~RunAhead()
    {
        if (!thread_.joinable())
            return;
        {
            std::lock_guard<std::mutex> lk(m_);
            quit_.store(true);
        }
        wake_.notify_one();
        thread_.join();
    }

    RunAhead(const RunAhead &) = delete;
    RunAhead &operator=(const RunAhead &) = delete;

    /** An idle or new thread, pinned off this one's CPU, if a CPU is
     *  spare; else null. */
    static std::unique_ptr<RunAhead>
    claim()
    {
        if (!host::claimSpareCpu())
            return nullptr;
        std::unique_ptr<RunAhead> ra;
        {
            std::lock_guard<std::mutex> lk(idle().m);
            if (!idle().threads.empty()) {
                ra = std::move(idle().threads.back());
                idle().threads.pop_back();
            }
        }
        if (!ra) {
            ra = std::make_unique<RunAhead>();
            try {
                ra->thread_ = std::thread([p = ra.get()] { p->loop(); });
            } catch (const std::system_error &) {
                host::releaseSpareCpu();
                return nullptr; // no thread to be had: catch up inline
            }
        }
        host::pinHelper(ra->thread_);
        return ra;
    }

    /** Give a stopped thread and its CPU back. */
    static void
    release(std::unique_ptr<RunAhead> ra)
    {
        ra->ref_ = nullptr;
        ra->holder_ = nullptr;
        std::lock_guard<std::mutex> lk(idle().m);
        idle().threads.push_back(std::move(ra));
        host::releaseSpareCpu();
    }

    /** Hand `ref` over to retire up to `limit` under `holder`'s write
     *  guard. */
    void
    go(xemu::RefComponent &ref, const PagedMemory &holder, u64 limit)
    {
        ref_ = &ref;
        holder_ = &holder;
        limit_.store(limit, std::memory_order_relaxed);
        progress_.store(ref.instCount(), std::memory_order_relaxed);
        // seq_cst store and load: either the thread sees its turn
        // before it sleeps, or this sees it asleep.
        turn_.store(true);
        if (asleep_.load()) {
            std::lock_guard<std::mutex> lk(m_);
            wake_.notify_one();
        }
    }

    /** Does the thread own the reference? */
    bool running() const { return turn_.load(std::memory_order_acquire); }

    /** Wait until the thread stops or publishes a count >= n. */
    void
    await(u64 n) const
    {
        for (u32 spins = 0; running(); ++spins) {
            if (progress_.load(std::memory_order_acquire) >= n)
                return;
            cpuRelax();
            if (spins >= 4096)
                std::this_thread::yield();
        }
    }

    /** Stop the thread at the end of its current block and wait
     *  until it has. */
    void
    halt()
    {
        limit_.store(0, std::memory_order_relaxed);
        await(~0ull);
    }

    /** Why the thread last stopped (the controller's turn only). */
    Stop stop() const { return stop_; }
    u64 limit() const { return limit_.load(std::memory_order_relaxed); }

  private:
    struct Idle
    {
        std::mutex m;
        std::vector<std::unique_ptr<RunAhead>> threads;
    };
    static Idle &
    idle()
    {
        static Idle list;
        return list;
    }

    void
    loop()
    {
        using Clock = std::chrono::steady_clock;
        for (;;) {
            // Spin a while for the next turn (the controller hands the
            // reference back within microseconds inside a run), then
            // sleep.
            const auto until = Clock::now() + std::chrono::microseconds(200);
            for (u32 spins = 0; !running() && !quit_.load(); ++spins) {
                cpuRelax();
                if (spins % 64 == 0 && Clock::now() > until) {
                    std::unique_lock<std::mutex> lk(m_);
                    asleep_.store(true);
                    wake_.wait(lk, [&] { return quit_.load() || running(); });
                    asleep_.store(false, std::memory_order_relaxed);
                }
            }
            if (quit_.load())
                return;
            stop_ = ref_->runAhead(limit_, progress_, *holder_);
            turn_.store(false, std::memory_order_release);
        }
    }

    xemu::RefComponent *ref_ = nullptr;   //!< set by go()
    const PagedMemory *holder_ = nullptr; //!< set by go()
    Stop stop_ = Stop::Limit;             //!< set by the thread
    alignas(64) std::atomic<u64> limit_{0};
    alignas(64) std::atomic<u64> progress_{0};
    alignas(64) std::atomic<bool> turn_{false}; //!< the thread's turn
    std::mutex m_;
    std::condition_variable wake_;
    std::atomic<bool> asleep_{false};
    std::atomic<bool> quit_{false};
    std::thread thread_;
};

Controller::Controller(const Config &cfg)
    : cfg_(validated(cfg)),
      stats_("darco"),
      cores_(u32(conf::getUint(cfg_, "cores"))),
      validateSyscalls_(conf::getBool(cfg_, "sync.validate_syscalls")),
      validateEnd_(conf::getBool(cfg_, "sync.validate_end"))
{
    // One reference component and one demand-paged memory image per
    // guest core. Core i's reference is seeded seed+i, so every core
    // runs its own deterministic instance of the workload. Built here
    // (not in load()) because restoreCheckpoint() works on a fresh
    // controller.
    u64 seed = conf::getUint(cfg_, "seed");
    for (u32 i = 0; i < cores_; ++i) {
        refs_.push_back(std::make_unique<xemu::RefComponent>(seed + i));
        mems_.push_back(
            std::make_unique<PagedMemory>(MissPolicy::Signal));
    }
    // The co-designed component is built lazily in load(): it holds a
    // reference to the emulated memory, which load() replaces, so an
    // eagerly-built Tol would be discarded unused.
    obs_ = obs::Session::fromConfig(cfg_);
}

Controller::~Controller()
{
    releaseAhead();
    if (!obs_)
        return;
    if (tol_)
        tol_->flushObs();
    obs_->write();
}

void
Controller::attachObs()
{
    if (obs_ && tol_)
        tol_->attachObs(obs_->tracer(), obs_->metrics());
}

void
Controller::dropTol()
{
    // The Tol goes first: it holds Counter pointers into the map.
    tol_.reset();
    stats_ = StatGroup(stats_.name());
    cPages_ = cSyscalls_ = cValidations_ = nullptr;
}

void
Controller::releaseAhead()
{
    if (ahead_)
        RunAhead::release(std::move(ahead_));
    aheadTried_ = false;
}

Controller::RunAhead *
Controller::live() const
{
    return inRun_ ? ahead_.get() : nullptr;
}

void
Controller::makeTol()
{
    // Core 0's memory is bound by the Tol constructor; the extra
    // cores' images are wired here, before Tol::restore(), which
    // re-targets the shared host emulator at the restored current
    // core's memory.
    tol_ = std::make_unique<tol::Tol>(*this, *mems_[0], cfg_, stats_);
    for (u32 i = 1; i < cores_; ++i)
        tol_->setCoreMemory(i, *mems_[i]);
}

void
Controller::coldStart()
{
    // The co-designed side starts with empty memory images and
    // demand-fetches every page; each core takes its reference's
    // architectural state and retirement count.
    for (u32 i = 0; i < cores_; ++i)
        mems_[i]->clear();
    makeTol();
    for (u32 i = 0; i < cores_; ++i)
        tol_->setState(i, refs_[i]->state(), refs_[i]->instCount());
    attachObs();
}

void
Controller::load(const Program &prog)
{
    releaseAhead();
    dropTol();
    // Each reference component launches its own instance of the
    // application and produces the initial architectural state.
    for (u32 i = 0; i < cores_; ++i)
        refs_[i]->load(prog);
    coldStart();
}

void
Controller::fastForward(u64 n)
{
    darco_assert(tol_, "Controller::load() must run first");
    releaseAhead();
    for (u32 i = 0; i < cores_; ++i) {
        xemu::RefComponent &ref = *refs_[i];
        ref.runUntilInstCount(n);
        darco_assert(ref.instCount() == n && !ref.finished(),
                     "fastForward: core ", i, " cannot stop at ", n,
                     " (reference at ", ref.instCount(), ")");
    }
    coldStart();
}

bool
Controller::restart(u32 core, u64 n)
{
    RunAhead &ra = *ahead_;
    if (ra.stop() == Stop::Limit) {
        // At the run budget, which the co-designed side overshot by
        // part of a region.
        ra.go(*refs_[core], *mems_[core], n);
        return true;
    }
    if (ra.stop() == Stop::Guard &&
        mems_[core]->hasPage(refs_[core]->guardPage())) {
        // The page arrived after the thread looked.
        ra.go(*refs_[core], *mems_[core], ra.limit());
        return true;
    }
    return false;
}

void
Controller::reach(u32 core, u64 n)
{
    xemu::RefComponent &ref = *refs_[core];
    if (RunAhead *ra = live()) {
        for (;;) {
            ra->await(n + 1);
            if (ra->running()) {
                ra->halt(); // past n: a divergence the caller reports
                return;
            }
            if (ref.instCount() >= n || !restart(core, n))
                break;
        }
    }
    // The serial path, and rule 4: stopped short of n otherwise, the
    // reference catches up inline.
    ref.runUntilInstCount(n);
}

void
Controller::resume(u32 core)
{
    RunAhead *ra = live();
    xemu::RefComponent &ref = *refs_[core];
    if (ra && !ra->running() && !ref.finished() &&
        ref.instCount() < ra->limit())
        ra->go(ref, *mems_[core], ra->limit());
}

void
Controller::dataRequest(u32 core, GAddr page, u64 completed_insts)
{
    // The requested page crosses to the co-designed side as of the
    // core's own completed-instruction count. A run-ahead reference
    // at or past that count will do (rule 1: it has not written the
    // page since), even while it runs on.
    xemu::RefComponent &ref = *refs_[core];
    const u64 n = completed_insts;
    if (RunAhead *ra = live()) {
        for (;;) {
            ra->await(n);
            if (ra->running() || ref.instCount() >= n)
                break;
            if (!restart(core, n)) {
                ref.runUntilInstCount(n); // rule 4
                break;
            }
        }
    } else {
        ref.runUntilInstCount(n);
    }
    mems_[core]->installPage(page, ref.memory().page(page));
    stats_.bind(cPages_, "sync.pages_transferred").inc();
    RunAhead *ra = live();
    if (ra && !ra->running() && ra->stop() == Stop::Guard &&
        ref.guardPage() == page)
        resume(core); // it was waiting for this page
}

bool
Controller::syscall(u32 core, u64 completed_insts)
{
    xemu::RefComponent &ref = *refs_[core];
    PagedMemory &mem = *mems_[core];
    reach(core, completed_insts);
    stats_.bind(cSyscalls_, "sync.syscalls").inc();

    // The reference must stand at a SYSCALL at this count. Judged
    // before its state is read: a run-ahead reference may have passed
    // the count already.
    if (ref.finished() || ref.instCount() != completed_insts ||
        fetchInst(ref.memory(), ref.state().pc).op != GOp::SYSCALL) {
        std::ostringstream os;
        os << "syscall sync failed (core " << core << ", inst "
           << completed_insts << "): the co-designed side is at a "
           << "syscall at pc 0x" << std::hex << tol_->state(core).pc
           << ", the reference has none at that count";
        throw DivergenceError(os.str());
    }

    if (validateSyscalls_) {
        std::string diff = validateState(core);
        if (!diff.empty()) {
            throw DivergenceError(
                "state validation failed at syscall (core " +
                std::to_string(core) + ", inst " +
                std::to_string(completed_insts) + "): " + diff);
        }
        stats_.bind(cValidations_, "sync.validations").inc();
    }

    // System code executes only in the reference component; its
    // effects then cross the boundary.
    ref.step();

    // Register effects: the syscall ABI clobbers RAX only; pc advances.
    tol_->state(core).gpr[RAX] = ref.state().gpr[RAX];
    tol_->state(core).pc = ref.state().pc;

    // Memory effects: pages the OS wrote (e.g. sysRead) that the
    // co-designed side already holds must be refreshed; absent pages
    // are fetched later with correct content by the data-request path.
    for (GAddr page : ref.lastSyscallDirtiedPages()) {
        if (mem.hasPage(page))
            mem.installPage(page, ref.memory().page(page));
    }

    const bool more = !ref.finished();
    resume(core);
    return more;
}

std::string
Controller::validateState(u32 core)
{
    darco_assert(tol_, "Controller::load() must run first");
    CpuState a = refs_[core]->state();
    CpuState b = tol_->state(core);
    if (a == b)
        return "";
    return a.diff(b);
}

void
Controller::validateFinal()
{
    for (u32 core = 0; core < cores_; ++core) {
        xemu::RefComponent &ref = *refs_[core];
        PagedMemory &mem = *mems_[core];
        const u64 insts = tol_->completedInsts(core);

        // Bring the core's reference component to the co-designed
        // core's final execution point; it may be one HLT behind, and
        // must not be anything else. Judged before its state is read,
        // as at a syscall.
        reach(core, insts);
        if (ref.instCount() > insts ||
            (!ref.finished() &&
             fetchInst(ref.memory(), ref.state().pc).op != GOp::HLT)) {
            throw DivergenceError(
                "final state validation failed (core " +
                std::to_string(core) + "): the reference does not halt "
                "at inst " + std::to_string(insts));
        }
        if (!ref.finished())
            ref.step(); // consume the trailing HLT

        std::string diff = validateState(core);
        if (!diff.empty())
            throw DivergenceError("final state validation failed "
                                  "(core " + std::to_string(core) +
                                  "): " + diff);
        if (ref.instCount() != insts) {
            throw DivergenceError(
                "retired-instruction mismatch (core " +
                std::to_string(core) + "): ref " +
                std::to_string(ref.instCount()) + " vs co-designed " +
                std::to_string(insts));
        }

        for (GAddr page : mem.residentPages()) {
            const u8 *mine = mem.page(page);
            const u8 *theirs = ref.memory().page(page);
            if (std::memcmp(mine, theirs, pageSizeBytes) != 0) {
                std::ostringstream os;
                os << "memory validation failed at core " << core
                   << " page 0x" << std::hex << page;
                throw DivergenceError(os.str());
            }
        }
        stats_.counter("sync.pages_validated").inc(mem.pageCount());
    }
}

bool
Controller::run(u64 max_guest_insts)
{
    darco_assert(tol_, "Controller::load() must run first");
    if (tol_->finished())
        return false;
    host::TracePipeline::Running running;

    // Core 0's reference runs ahead to the end of this run's budget
    // (rule 3) when the Controller serves the Tol itself, and while no
    // timing model is attached: the trace consumer makes better use of
    // a spare CPU (in perfbench `timed` the consumer is busy most of
    // the run, the reference's catch-up a fifth of it).
    const bool want = cores_ == 1 && tol_->env() == this &&
                      !tol_->tracePipeline().attached();
    if (!want && ahead_)
        releaseAhead();
    if (want && !aheadTried_) {
        ahead_ = RunAhead::claim();
        aheadTried_ = true;
    }
    inRun_ = ahead_ != nullptr;
    if (inRun_) {
        const u64 at = tol_->completedInsts();
        ahead_->go(*refs_[0], *mems_[0],
                   max_guest_insts > ~0ull - at ? ~0ull
                                                : at + max_guest_insts);
    }
    try {
        tol_->run(max_guest_insts);
        // Rule 3: every reference stands at its co-designed count.
        for (u32 core = 0; core < cores_; ++core)
            reach(core, tol_->completedInsts(core));
    } catch (...) {
        if (inRun_)
            ahead_->halt();
        inRun_ = false;
        throw;
    }
    if (inRun_)
        ahead_->halt();
    inRun_ = false;
    if (tol_->finished() && validateEnd_)
        validateFinal();
    return !tol_->finished();
}

// ---------------------------------------------------------------------
// Checkpoint/restore
// ---------------------------------------------------------------------

void
Controller::saveCheckpoint(std::ostream &os)
{
    darco_assert(tol_, "Controller::load() must run first");
    tol_->quiesce();
    // The image holds every reference at its co-designed count, which
    // finishing a region in quiesce() may have moved.
    for (u32 i = 0; i < cores_; ++i)
        refs_[i]->runUntilInstCount(tol_->completedInsts(i));
    if (obs_ && obs_->tracer())
        obs_->tracer()->instant("ckpt", "checkpoint.save");

    snapshot::Serializer s(os);

    // Config snapshot: the schema-normalized effective values of the
    // *execution-relevant* parameters only. Restore refuses a
    // mismatch on any of them (the replayed translations depend on
    // them), but measurement/validation parameters — sync toggles,
    // timing and power models — may differ freely, so e.g. a
    // checkpoint taken with validation on restores into a campaign
    // running with it off. Default-resolved comparison also makes
    // "explicitly set to the default" equal to "unset".
    s.beginSection("cfg");
    std::map<std::string, std::string> exec =
        conf::schema().executionRelevant(cfg_);
    s.w64(exec.size());
    for (const auto &[k, v] : exec) {
        s.wstr(k);
        s.wstr(v);
    }
    s.endSection();

    // One ref/emem section pair per core; core 0 keeps the
    // unsuffixed v4 names so single-core images look unchanged.
    for (u32 i = 0; i < cores_; ++i) {
        std::string suffix = i == 0 ? "" : std::to_string(i);
        s.beginSection("ref" + suffix);
        refs_[i]->save(s);
        s.endSection();

        s.beginSection("emem" + suffix);
        mems_[i]->save(s);
        s.endSection();
    }

    s.beginSection("tol");
    tol_->save(s);
    s.endSection();

    s.beginSection("stats");
    s.w64(stats_.counters().size());
    for (const auto &[name, c] : stats_.counters()) {
        s.wstr(name);
        s.w64(c.value());
    }
    s.endSection();

    s.finish();
}

void
Controller::restoreCheckpoint(std::istream &is)
{
    snapshot::Deserializer d(is);

    // Schema-aware compatibility check: compare the checkpoint's
    // execution-relevant effective config against ours, parameter by
    // parameter, and name the exact offender on refusal. Cosmetic
    // differences (sync/timing/power parameters) never appear here.
    d.expectSection("cfg");
    std::map<std::string, std::string> mine =
        conf::schema().executionRelevant(cfg_);
    u64 ncfg = d.r64();
    std::map<std::string, std::string> theirs;
    for (u64 i = 0; i < ncfg; ++i) {
        std::string k = d.rstr();
        std::string v = d.rstr();
        theirs[k] = std::move(v);
    }
    d.endSection();
    for (const auto &[k, v] : theirs) {
        auto it = mine.find(k);
        if (it == mine.end())
            throw snapshot::SnapshotError(
                "checkpoint execution-relevant parameter '" + k +
                "' (value '" + v + "') is not declared in this "
                "build's schema");
        if (it->second != v)
            throw snapshot::SnapshotError(
                "config mismatch at execution-relevant parameter '" +
                k + "': checkpoint '" + v + "' vs controller '" +
                it->second + "'");
    }
    for (const auto &[k, v] : mine) {
        if (!theirs.count(k))
            throw snapshot::SnapshotError(
                "execution-relevant parameter '" + k +
                "' (controller value '" + v +
                "') is missing from the checkpoint");
    }

    // Nothing of what ran before survives: the Tol and the counters
    // are rebuilt below, and every other section replaces its state.
    releaseAhead();
    dropTol();

    // Per-core sections. The `cores` parameter is execution-relevant,
    // so the cfg comparison above already refused any count mismatch.
    for (u32 i = 0; i < cores_; ++i) {
        std::string suffix = i == 0 ? "" : std::to_string(i);
        d.expectSection("ref" + suffix);
        refs_[i]->restore(d);
        d.endSection();

        d.expectSection("emem" + suffix);
        mems_[i]->restore(d);
        d.endSection();
    }

    // Fresh co-designed component over the restored memory images; its
    // restore() replays translation installation (host code is
    // re-materialized, not deserialized). Core memories must be wired
    // first: restore re-targets the emulator at the current core.
    makeTol();
    d.expectSection("tol");
    tol_->restore(d);
    d.endSection();

    // Attach only after restore: the install replay above must not be
    // traced (it reconstructs pre-checkpoint history, not new events).
    attachObs();
    if (obs_ && obs_->tracer())
        obs_->tracer()->instant("ckpt", "checkpoint.restore");

    // Last: the counters. The map held only what the replay created
    // and bumped; zero those and take the checkpointed values.
    d.expectSection("stats");
    stats_.resetAll();
    u64 nstats = d.r64();
    for (u64 i = 0; i < nstats; ++i) {
        std::string name = d.rstr();
        stats_.counter(name).set(d.r64());
    }
    d.endSection();
}

} // namespace darco::sim

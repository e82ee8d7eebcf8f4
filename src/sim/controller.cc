#include "sim/controller.hh"

#include <cstring>
#include <sstream>

#include "common/logging.hh"
#include "common/schema.hh"
#include "snapshot/io.hh"

namespace darco::sim
{

using namespace guest;

namespace
{

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
        mems_[i] = std::make_unique<PagedMemory>(MissPolicy::Signal);
    makeTol();
    for (u32 i = 0; i < cores_; ++i)
        tol_->setState(i, refs_[i]->state(), refs_[i]->instCount());
    attachObs();
}

void
Controller::load(const Program &prog)
{
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
    for (u32 i = 0; i < cores_; ++i) {
        xemu::RefComponent &ref = *refs_[i];
        ref.runUntilInstCount(n);
        darco_assert(ref.instCount() == n && !ref.finished(),
                     "fastForward: core ", i, " cannot stop at ", n,
                     " (reference at ", ref.instCount(), ")");
    }
    coldStart();
}

void
Controller::dataRequest(u32 core, GAddr page, u64 completed_insts)
{
    // The core's reference component runs forward to the same
    // execution point (the core's own completed-instruction count),
    // then the requested page crosses to the co-designed side.
    refs_[core]->runUntilInstCount(completed_insts);
    mems_[core]->installPage(page, refs_[core]->memory().page(page));
    stats_.counter("sync.pages_transferred").inc();
}

bool
Controller::syscall(u32 core, u64 completed_insts)
{
    xemu::RefComponent &ref = *refs_[core];
    PagedMemory &mem = *mems_[core];
    ref.runUntilInstCount(completed_insts);
    stats_.counter("sync.syscalls").inc();

    if (validateSyscalls_) {
        std::string diff = validateState(core);
        if (!diff.empty()) {
            throw DivergenceError(
                "state validation failed at syscall (core " +
                std::to_string(core) + ", inst " +
                std::to_string(completed_insts) + "): " + diff);
        }
        stats_.counter("sync.validations").inc();
    }

    // System code executes only in the reference component; its
    // effects then cross the boundary.
    GInst gi = fetchInst(ref.memory(), ref.state().pc);
    darco_assert(gi.op == GOp::SYSCALL,
                 "syscall sync at a non-syscall pc");
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

    return !ref.finished();
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

        // Bring the core's reference component to the co-designed
        // core's final execution point (it may be one HLT behind).
        ref.runUntilInstCount(tol_->completedInsts(core));
        if (!ref.finished())
            ref.step(); // consume a trailing HLT

        std::string diff = validateState(core);
        if (!diff.empty())
            throw DivergenceError("final state validation failed "
                                  "(core " + std::to_string(core) +
                                  "): " + diff);
        if (ref.instCount() != tol_->completedInsts(core)) {
            throw DivergenceError(
                "retired-instruction mismatch (core " +
                std::to_string(core) + "): ref " +
                std::to_string(ref.instCount()) + " vs co-designed " +
                std::to_string(tol_->completedInsts(core)));
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
    tol_->run(max_guest_insts);
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

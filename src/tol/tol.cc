#include "tol/tol.hh"

#include <algorithm>
#include <cstring>

#include "common/logging.hh"
#include "common/schema.hh"
#include "guest/semantics.hh"
#include "obs/metrics.hh"
#include "obs/tracer.hh"
#include "snapshot/io.hh"
#include "tol/codegen.hh"
#include "tol/ddg.hh"
#include "tol/passes.hh"
#include "tol/regalloc.hh"

namespace darco::tol
{

using namespace guest;
using host::ExitInfo;
using host::HInst;
using host::HOp;
// NB: host::ExitKind (emulator exits) is kept fully qualified to avoid
// colliding with tol::ExitKind (IR exit kinds).
using HExit = host::ExitKind;

namespace
{
/** Local-memory base of the profiling counter area (below: spills). */
constexpr u32 profBase = 0x4000;
} // namespace

Tol::Tol(Env &env, PagedMemory &mem, const Config &cfg,
         StatGroup &stats)
    : mem_(mem),
      cfg_(cfg),
      stats_(stats),
      cache_(u32(conf::getUint(cfg, "cc.capacity_words"))),
      emu_(cache_, mem, cfg),
      profiler_(emu_, profBase),
      registry_(cache_, emu_.ibtc(), stats),
      cost_(cfg, stats),
      env_(&env),
      cores_(conf::getUint(cfg, "cores"))
{
    emu_.setRetireSink(this);

    // Guest hardware contexts: extra cores get their address space
    // via setCoreMemory().
    cores_[0].mem = &mem_;
    // Interleaver RNG: part of the simulated model, so it is seeded
    // from config only (tol.interleave_seed, or derived from `seed`)
    // and never from host state. xorshift64 needs a nonzero state.
    const u64 seed = conf::getUint(cfg, "seed");
    u64 ivseed = conf::getUint(cfg, "tol.interleave_seed");
    if (ivseed == 0)
        ivseed = seed ^ 0x6a09e667f3bcc909ull;
    ivRng_ = ivseed ? ivseed : 0x9e3779b97f4a7c15ull;

    bbThreshold_ = u32(conf::getUint(cfg, "tol.bb_threshold"));
    sbThreshold_ = u32(conf::getUint(cfg, "tol.sb_threshold"));
    baseBbThreshold_ = bbThreshold_;
    baseSbThreshold_ = sbThreshold_;
    biasThreshold_ = conf::getFloat(cfg, "tol.bias_threshold");
    cumThreshold_ = conf::getFloat(cfg, "tol.cum_threshold");
    minEdgeTotal_ = u32(conf::getUint(cfg, "tol.min_edge_total"));
    maxSbInsts_ = u32(conf::getUint(cfg, "tol.max_sb_insts"));
    maxSbBbs_ = u32(conf::getUint(cfg, "tol.max_sb_bbs"));
    maxBbInsts_ = u32(conf::getUint(cfg, "tol.max_bb_insts"));
    maxAssertFails_ = u32(conf::getUint(cfg, "tol.max_assert_fails"));
    maxAliasFails_ = u32(conf::getUint(cfg, "tol.max_alias_fails"));
    unroll_ = conf::getBool(cfg, "tol.unroll");
    unrollFactor_ = u32(conf::getUint(cfg, "tol.unroll_factor"));
    useAsserts_ = conf::getBool(cfg, "tol.asserts");
    bbmEnabled_ = conf::getBool(cfg, "tol.enable_bbm");
    sbmEnabled_ = conf::getBool(cfg, "tol.enable_sbm");
    chaining_ = conf::getBool(cfg, "tol.chaining");
    specMem_ = conf::getBool(cfg, "tol.spec_mem");
    sched_ = conf::getBool(cfg, "tol.sched");
    opt_ = conf::getBool(cfg, "tol.opt");
    fuseFlags_ = conf::getBool(cfg, "tol.fuse_flags");
    hostChunk_ = conf::getUint(cfg, "tol.host_chunk");

    u32 async_threads = u32(conf::getUint(cfg, "tol.async.threads"));
    asyncVthreads_ = u32(conf::getUint(cfg, "tol.async.vthreads"));
    asyncRate_ = conf::getUint(cfg, "tol.async.rate");
    if (async_threads > 0 && bbmEnabled_) {
        async_ = std::make_unique<AsyncTranslator>(
            async_threads, u32(conf::getUint(cfg, "tol.async.queue")),
            [this](TranslationJob &j) { prepare(j); });
    }
    u64 bbv_interval = conf::getUint(cfg, "tol.bbv_interval");
    bbvOn_ = bbv_interval != 0;
    if (bbvOn_)
        profiler_.enableBbv(bbv_interval);
    // Hidden fault-injection hooks for the differential fuzzer's and
    // the verifier's self-tests (see CodegenOptions::flipCondExits /
    // CodegenOptions::dropGuard).
    flipCondExits_ = conf::getBool(cfg, "debug.flip_cond_exits");
    dropGuard_ = conf::getBool(cfg, "debug.drop_guard");

    verify_ = conf::getBool(cfg, "tol.verify");

    ccEvict_ = conf::getEnum(cfg, "cc.policy") == "evict";
    // The classic policy never reclaims invalidated regions: they
    // stay as dead occupancy until the next full flush.
    registry_.setReclaimOnInvalidate(ccEvict_);

    cGuestIm_ = &stats_.counter("tol.guest_im");
    cGuestBbm_ = &stats_.counter("tol.guest_bbm");
    cGuestSbm_ = &stats_.counter("tol.guest_sbm");
    cBbIm_ = &stats_.counter("tol.bb_im");
    cBbBbm_ = &stats_.counter("tol.bb_bbm");
    cBbSbm_ = &stats_.counter("tol.bb_sbm");
    cHostBbm_ = &stats_.counter("tol.host_app_bbm");
    cHostSbm_ = &stats_.counter("tol.host_app_sbm");
    cChainTouches_ = &stats_.counter("tol.chain_target_touches");
}

void
Tol::setTraceSink(host::TraceSink *sink)
{
    tracePipeline_.setSink(sink);
    host::TraceSink *feed = sink ? &tracePipeline_ : nullptr;
    emu_.setTraceSink(feed);
    cost_.setTraceSink(feed);
}

void
Tol::setCoreMemory(u32 core, PagedMemory &mem)
{
    darco_assert(core < cores_.size(), "setCoreMemory: bad core");
    cores_[core].mem = &mem;
    if (core == cur_ && cores_.size() > 1)
        emu_.setMemory(mem);
}

void
Tol::setState(u32 core, const CpuState &st, u64 retired)
{
    CoreCtx &c = cores_[core];
    completedInsts_ += retired - c.insts;
    c.insts = retired;
    c.state = st;
}

void
Tol::pickNextCore()
{
    if (cores_.size() == 1)
        return; // single-core: zero interleaver draws, bit-identical
    u32 alive = 0;
    for (const CoreCtx &c : cores_)
        alive += c.finished ? 0 : 1;
    darco_assert(alive > 0, "pickNextCore with all cores finished");
    ivRng_ ^= ivRng_ << 13;
    ivRng_ ^= ivRng_ >> 7;
    ivRng_ ^= ivRng_ << 17;
    u32 pick = u32(ivRng_ % alive);
    for (u32 i = 0; i < u32(cores_.size()); ++i) {
        if (cores_[i].finished)
            continue;
        if (pick == 0) {
            if (i != cur_) {
                cur_ = i;
                emu_.setMemory(*cores_[i].mem);
            }
            return;
        }
        --pick;
    }
}

// ---------------------------------------------------------------------
// Observability (obs.*)
// ---------------------------------------------------------------------

namespace
{
const char *
obsModeName(u8 mode)
{
    return mode == 0 ? "IM" : mode == 1 ? "BBM" : "SBM";
}
} // namespace

void
Tol::attachObs(obs::Tracer *tracer, obs::MetricsWriter *metrics)
{
    trace_ = tracer;
    metrics_ = metrics;
    registry_.setTracer(tracer);
    if (trace_) {
        trace_->setVirtualClock(&completedInsts_);
        if (async_) {
            for (u32 i = 1; i <= asyncVthreads_; ++i)
                trace_->setTrackName(u16(i),
                                     "translator-" + std::to_string(i));
        }
        if (cores_.size() > 1) {
            for (u32 i = 0; i < u32(cores_.size()); ++i)
                trace_->setTrackName(coreTrack(i),
                                     "core-" + std::to_string(i));
        }
    }
    for (CoreCtx &c : cores_)
        c.obsModeOpen = false;
    if (metrics_) {
        obsSnap_ = obsSnapshot();
        u64 iv = metrics_->interval();
        metricsNext_ = (completedInsts_ / iv + 1) * iv;
    } else {
        metricsNext_ = ~0ull;
    }
}

u16
Tol::coreTrack(u32 core) const
{
    // Single-core keeps today's layout: mode spans on track 0.
    // Multi-core puts core i's spans on its own named track, above
    // the translator tracks (tol.async.vthreads <= 64).
    return cores_.size() == 1 ? u16(0) : u16(65 + core);
}

void
Tol::obsNoteMode(u8 mode)
{
    CoreCtx &c = cur();
    if (!c.obsModeOpen) {
        c.obsMode = mode;
        c.obsModeStart = completedInsts_;
        c.obsModeOpen = true;
        return;
    }
    if (mode == c.obsMode)
        return;
    u64 dur = completedInsts_ - c.obsModeStart;
    if (dur)
        trace_->complete("mode", obsModeName(c.obsMode), c.obsModeStart,
                         dur, coreTrack(cur_));
    c.obsMode = mode;
    c.obsModeStart = completedInsts_;
}

Tol::ObsSnap
Tol::obsSnapshot() const
{
    ObsSnap s;
    s.vt = completedInsts_;
    s.im = cGuestIm_->value();
    s.bbm = cGuestBbm_->value();
    s.sbm = cGuestSbm_->value();
    for (unsigned c = 0; c < unsigned(Overhead::NumCats); ++c)
        s.ovh[c] = cost_.total(Overhead(c));
    s.instBb = stats_.value("tol.translations_bb");
    s.instSb = stats_.value("tol.translations_sb");
    s.evict = stats_.value("cc.evictions");
    s.flush = stats_.value("cc.flushes");
    if (cores_.size() > 1) {
        for (const CoreCtx &c : cores_)
            s.core.push_back({c.im, c.bbm, c.sbm});
    }
    return s;
}

void
Tol::obsEmitMetricsRow()
{
    const ObsSnap now = obsSnapshot();
    const u64 span = now.vt - obsSnap_.vt;
    darco_assert(span > 0, "empty metrics interval");
    obs::MetricsWriter::Row row;
    row.ints.emplace_back("vt_start", obsSnap_.vt);
    row.ints.emplace_back("vt_end", now.vt);
    row.ints.emplace_back("im", now.im - obsSnap_.im);
    row.ints.emplace_back("bbm", now.bbm - obsSnap_.bbm);
    row.ints.emplace_back("sbm", now.sbm - obsSnap_.sbm);
    for (unsigned c = 0; c < unsigned(Overhead::NumCats); ++c)
        row.ints.emplace_back(std::string("ovh_") +
                                  overheadName(Overhead(c)),
                              now.ovh[c] - obsSnap_.ovh[c]);
    row.ints.emplace_back("installs_bb", now.instBb - obsSnap_.instBb);
    row.ints.emplace_back("installs_sb", now.instSb - obsSnap_.instSb);
    row.ints.emplace_back("evictions", now.evict - obsSnap_.evict);
    row.ints.emplace_back("flushes", now.flush - obsSnap_.flush);
    // Per-core retirement attribution (multi-core runs only, so
    // single-core metrics streams keep their exact column set).
    for (std::size_t i = 0; i < now.core.size(); ++i) {
        const std::string p = "c" + std::to_string(i) + "_";
        const auto &at = now.core[i];
        const auto &prev = obsSnap_.core[i];
        row.ints.emplace_back(p + "im", at[0] - prev[0]);
        row.ints.emplace_back(p + "bbm", at[1] - prev[1]);
        row.ints.emplace_back(p + "sbm", at[2] - prev[2]);
    }
    row.reals.emplace_back("share_im",
                           double(now.im - obsSnap_.im) / span);
    row.reals.emplace_back("share_bbm",
                           double(now.bbm - obsSnap_.bbm) / span);
    row.reals.emplace_back("share_sbm",
                           double(now.sbm - obsSnap_.sbm) / span);
    metrics_->append(std::move(row));
    obsSnap_ = now;
}

void
Tol::flushObs()
{
    if (trace_) {
        for (u32 i = 0; i < u32(cores_.size()); ++i) {
            CoreCtx &c = cores_[i];
            if (!c.obsModeOpen)
                continue;
            u64 dur = completedInsts_ - c.obsModeStart;
            if (dur)
                trace_->complete("mode", obsModeName(c.obsMode),
                                 c.obsModeStart, dur, coreTrack(i));
            c.obsModeOpen = false;
        }
    }
    // The trailing *partial* interval: emitted so the row deltas
    // conserve the full retired-instruction count (EOF conservation),
    // not just the closed interval-aligned prefix.
    if (metrics_ && completedInsts_ > obsSnap_.vt)
        obsEmitMetricsRow();
}

void
Tol::scaleThresholds(u32 factor)
{
    darco_assert(factor >= 1, "bad threshold scale");
    bbThreshold_ = std::max(1u, baseBbThreshold_ / factor);
    sbThreshold_ = std::max(2u, baseSbThreshold_ / factor);
}

u32
Tol::poolIndex(double v)
{
    u64 bits;
    std::memcpy(&bits, &v, 8);
    auto it = fpPoolMap_.find(bits);
    if (it != fpPoolMap_.end())
        return it->second;
    u32 idx = u32(emu_.fpPool().size());
    emu_.fpPool().push_back(v);
    fpPoolMap_.emplace(bits, idx);
    return idx;
}

// ---------------------------------------------------------------------
// Decode & BB discovery
// ---------------------------------------------------------------------

const GInst &
Tol::fetchGuest(GAddr pc)
{
    for (;;) {
        try {
            return decode_.fetch(curMem(), pc);
        } catch (const PageMiss &pm) {
            servicePageMiss(pm.page);
        }
    }
}

BBInfo &
Tol::getBB(GAddr entry)
{
    auto it = bbCache_.find(entry);
    if (it != bbCache_.end())
        return it->second;

    BBInfo bb;
    bb.entry = entry;
    GAddr pc = entry;
    for (u32 n = 0; n < maxBbInsts_; ++n) {
        const GInst &gi = fetchGuest(pc);
        if (gi.rep) {
            // Complex string instruction: handled by IM (the paper's
            // "corner cases moved up to the software layer").
            bb.endsWithCti = false;
            bb.endPc = pc;
            break;
        }
        bb.elems.push_back(PathElem{gi, pc, BranchDisp::Final});
        if (gi.isCti()) {
            bb.endsWithCti = true;
            break;
        }
        pc += gi.length;
    }
    if (!bb.endsWithCti && bb.endPc == 0)
        bb.endPc = pc; // size-capped straight-line run

    if (bb.elems.empty()) {
        bb.translatable = false; // starts with a REP op
    } else if (bb.elems.size() == 1 &&
               (bb.elems[0].inst.op == GOp::SYSCALL ||
                bb.elems[0].inst.op == GOp::HLT)) {
        bb.translatable = false; // no forward progress possible
    }
    return bbCache_.emplace(entry, std::move(bb)).first->second;
}

// ---------------------------------------------------------------------
// Retirement accounting
// ---------------------------------------------------------------------

void
Tol::onRetire(u32 exit_id, u64 host_insts)
{
    darco_assert(exit_id < registry_.exitCount(), "bad RETIRE id");
    const GlobalExit &ge = registry_.exit(exit_id);
    registry_.touch(ge.trans);
    if (ge.promote) {
        cHostBbm_->inc(host_insts);
        return;
    }
    const Translation &t = registry_.get(ge.trans);
    const ExitDesc &d = t.exits[ge.exitIdx];
    // Eviction-clock blind spot: control now transfers into the chain
    // target inside the code cache; if the target later leaves through
    // a rollback (assert/alias/div/page-miss) instead of its own
    // RETIRE, this entry mark is its only refBit touch.
    if (d.chained) {
        registry_.touch(d.chainedTo);
        cChainTouches_->inc();
    }
    recordBbv(t.entry, d.instsRetired);
    completedInsts_ += d.instsRetired;
    completedBBs_ += d.bbsRetired;
    CoreCtx &c = cur();
    c.insts += d.instsRetired;
    c.bbs += d.bbsRetired;
    if (t.mode == RegionMode::BB) {
        c.bbm += d.instsRetired;
        cGuestBbm_->inc(d.instsRetired);
        cBbBbm_->inc(d.bbsRetired);
        cHostBbm_->inc(host_insts);
    } else {
        c.sbm += d.instsRetired;
        cGuestSbm_->inc(d.instsRetired);
        cBbSbm_->inc(d.bbsRetired);
        cHostSbm_->inc(host_insts);
    }
}

// ---------------------------------------------------------------------
// Page miss / syscall services
// ---------------------------------------------------------------------

void
Tol::servicePageMiss(GAddr page)
{
    stats_.bind(cPageRequests_, "tol.page_requests").inc();
    env_->dataRequest(cur_, page, cur().insts);
    darco_assert(curMem().hasPage(page),
                 "controller failed to install requested page");
}

void
Tol::handleSyscall()
{
    stats_.bind(cSyscalls_, "tol.syscalls").inc();
    CoreCtx &c = cur();
    // The syscall instruction is its own dynamic BB; attribute it
    // before the environment rewrites the core's pc.
    recordBbv(c.state.pc, 1);
    bool cont = env_->syscall(cur_, c.insts);
    ++completedInsts_;
    ++completedBBs_;
    ++c.insts;
    ++c.bbs;
    ++c.im;
    cGuestIm_->inc();
    cBbIm_->inc();
    if (!cont)
        c.finished = true;
}

// ---------------------------------------------------------------------
// Interpreter mode
// ---------------------------------------------------------------------

void
Tol::interpretStep()
{
    cost_.chargeInterpDispatch();
    CoreCtx &core = cur();
    GAddr entry = core.state.pc;
    BBInfo &bb = getBB(entry);

    if (bbmEnabled_ && bb.translatable &&
        registry_.lookup(entry) == TranslationRegistry::npos &&
        !(async_ && async_->pendingFor(entry))) {
        u32 c = profiler_.bumpIm(entry);
        // Async: the hot BB goes to a background translator and IM
        // keeps interpreting it through the virtual completion window.
        if (c >= bbThreshold_ && translate(makeJob(bb)))
            return; // next dispatch enters the fresh translation
    }

    // Interpret one dynamic basic block: the instructions getBB has
    // decoded, then, past a REP boundary or the size cap, what
    // fetchGuest decodes. Everything retired before the exit point is
    // attributed to `entry` in the BBV (the syscall path attributes
    // its own instruction in handleSyscall).
    //
    // Retirements add up in `done` and settle into the counters, the
    // core and the cost model before anything reads them: a page
    // request, a fetch past the block, the BBV and every exit. Every
    // IM charge is Overhead::Interp and the synthesized stream only
    // depends on how many instructions were charged, so one charge of
    // the sum equals a charge per instruction in totals, counters and
    // records.
    const u64 bbvBefore = completedInsts_;
    u64 done = 0;
    auto settle = [&] {
        completedInsts_ += done;
        core.insts += done;
        core.im += done;
        cGuestIm_->inc(done);
        if (done)
            cost_.chargeInterp(done);
        done = 0;
    };
    auto leave = [&] {
        settle();
        recordBbv(entry, completedInsts_ - bbvBefore);
    };
    const PathElem *next = bb.elems.data();
    const PathElem *const blockEnd = next + bb.elems.size();
    for (;;) {
        const GInst *gi;
        if (next != blockEnd) {
            gi = &(next++)->inst;
        } else {
            settle();
            gi = &fetchGuest(core.state.pc);
        }
        ExecOut out;
        for (;;) {
            try {
                out = execInst(*gi, core.state, curMem());
            } catch (const PageMiss &pm) {
                settle();
                servicePageMiss(pm.page);
                continue;
            }
            if (out.status == ExecStatus::Again) {
                cost_.charge(Overhead::Interp, 4 * out.repIters);
                continue;
            }
            break;
        }
        if (out.repIters)
            cost_.charge(Overhead::Interp, 4 * out.repIters);

        switch (out.status) {
          case ExecStatus::Ok:
          case ExecStatus::CtiTaken:
          case ExecStatus::CtiNotTaken:
            ++done;
            if (out.status != ExecStatus::Ok) { // a CTI ends the BB
                ++completedBBs_;
                ++core.bbs;
                cBbIm_->inc();
                leave();
                return;
            }
            // Hand over early if translated code exists for the next
            // instruction (e.g. the tail after a REP boundary).
            if (registry_.lookup(core.state.pc) !=
                TranslationRegistry::npos) {
                leave();
                return;
            }
            break;

          case ExecStatus::Syscall:
            leave();
            handleSyscall();
            return;

          case ExecStatus::Halt:
            leave();
            core.finished = true;
            return;

          case ExecStatus::Fault:
            leave();
            throw GuestFault{core.state.pc, out.faultMsg};

          default:
            panic("unexpected exec status in IM");
        }
    }
}

// ---------------------------------------------------------------------
// Translation pipeline: job -> prepare -> publish
// ---------------------------------------------------------------------
//
// Every translation — inline or async, fresh or replayed from a
// checkpoint — is a TranslationJob built from its BBInfo or SBRecipe,
// prepared by the pure prepare() (inline or on a worker) and installed
// by publish() on the simulation thread.

void
Tol::evictFor(u32 need, u32 pinned_tid)
{
    while (!cache_.hasSpace(need)) {
        u32 victim = registry_.pickVictim(pinned_tid);
        if (victim == TranslationRegistry::npos)
            return; // nothing evictable: the caller falls back to flush
        cost_.chargeEviction(registry_.get(victim).incoming.size());
        // The evicted BB must re-earn promotion from scratch:
        // leaving its IM counter at the threshold would retranslate
        // it on its next interpreted execution and thrash the cache.
        profiler_.resetIm(registry_.get(victim).entry);
        registry_.evict(victim);
    }
}

namespace
{

/**
 * The pure middle of a translation: optimization passes, scheduling,
 * verification preconditions. Touches only the region and its
 * explicit inputs, so it runs identically on the main thread (inline
 * path) and on async translator workers.
 */
void
prepareRegionWork(Region &region, RegionMode mode, bool opt, bool sched,
                  bool spec_ok, u64 &pass_work, u32 &spec_loads)
{
    pass_work = 0;
    spec_loads = 0;
    if (opt) {
        if (mode == RegionMode::BB) {
            pass_work += foldConstants(region) + region.items.size();
            pass_work += eliminateDeadCode(region) + region.items.size();
        } else {
            pass_work += foldConstants(region) + region.items.size();
            pass_work += copyPropagate(region) + region.items.size();
            pass_work +=
                eliminateCommonSubexprs(region) + region.items.size();
            pass_work += eliminateDeadCode(region) + region.items.size();
            pass_work += optimizeMemory(region) + region.items.size();
            pass_work += eliminateDeadCode(region) + region.items.size();
        }
    }
    if (mode == RegionMode::SB && sched) {
        SchedOptions so;
        so.speculateMem = spec_ok;
        spec_loads = scheduleRegion(region, so);
        pass_work += region.items.size() * 2; // DDG + scan
    }
}

} // namespace

std::unique_ptr<TranslationJob>
Tol::makeJob(const BBInfo &bb) const
{
    auto job = std::make_unique<TranslationJob>();
    job->mode = RegionMode::BB;
    job->entry = bb.entry;
    job->path = bb.elems;
    if (!bb.endsWithCti)
        job->recipe.end = Frontend::EndSpec{tol::ExitKind::Interp, bb.endPc};
    job->estCost = cost_.estBBCost(bb.elems.size());
    return job;
}

std::unique_ptr<TranslationJob>
Tol::makeJob(GAddr entry, SBRecipe recipe)
{
    auto job = std::make_unique<TranslationJob>();
    job->mode = RegionMode::SB;
    job->entry = entry;
    job->path = pathFromRecipe(recipe);
    job->recipe = std::move(recipe);
    job->specOk = sched_ && specMem_ && !sbFlags_[entry].noSpec;
    job->estCost = cost_.estSBCost(job->path.size());
    return job;
}

bool
Tol::translate(std::unique_ptr<TranslationJob> job)
{
    if (async_) {
        if (!async_->full()) {
            const bool sb = job->mode == RegionMode::SB;
            job->enqueuedAt = completedInsts_;
            job->completesAt =
                completedInsts_ + asyncLatency(job->estCost);
            const GAddr entry = job->entry;
            const u64 eAt = job->enqueuedAt, cAt = job->completesAt;
            const u64 est = job->estCost;
            async_->enqueue(std::move(job));
            stats_.counter(sb ? "tol.async.enqueued_sb"
                              : "tol.async.enqueued_bb")
                .inc();
            if (trace_) {
                // Emitted at the (deterministic) enqueue point: the
                // virtual completion is already fixed, and the track
                // is a pure function of the enqueue sequence — never
                // of host threads.
                u16 track = u16(1 + (obsAsyncSeq_++ % asyncVthreads_));
                trace_->complete("async", sb ? "async.sb" : "async.bb",
                                 eAt, cAt - eAt, track,
                                 {{"entry", entry}, {"est_cost", est}});
            }
            return false;
        }
        stats_.counter("tol.async.queue_full").inc();
        stats_.counter("tol.async.sync_fallbacks").inc();
        if (trace_)
            trace_->instant("async", "async.queue_full", 0,
                            {{"entry", job->entry}});
    }
    prepare(*job);
    publish(*job, false);
    return true;
}

void
Tol::prepare(TranslationJob &job) const
{
    // Inline or on a worker thread: only the job and immutable
    // configuration may be touched. A job-local Frontend keeps build
    // state private.
    Frontend fe(FrontendOptions{fuseFlags_});
    job.region = fe.build(job.entry, job.mode, job.path, job.recipe.trip,
                          job.recipe.end);
    prepareRegionWork(job.region, job.mode, opt_, sched_, job.specOk,
                      job.passWork, job.specLoads);
    job.verifyError = verifyRegion(job.region);
    if (job.verifyError.empty())
        job.alloc = allocateRegisters(job.region);
}

void
Tol::publish(TranslationJob &job, bool conc)
{
    darco_assert(job.verifyError.empty(),
                 "prepared region invalid: ", job.verifyError);
    const GAddr entry = job.entry;
    const bool sb = job.mode == RegionMode::SB;
    u32 prev = registry_.lookup(entry);
    // An async BB must not shadow a translation its entry gained in
    // the window (inline fallback under backpressure); an async SB
    // must not resurrect an older build over a recreation's fresh SB.
    if (conc && prev != TranslationRegistry::npos &&
        (!sb || registry_.get(prev).mode == RegionMode::SB)) {
        stats_.counter("tol.async.dropped_stale").inc();
        if (trace_)
            trace_->instant("async", "async.dropped_stale", 0,
                            {{"entry", entry}});
        return;
    }

    if (!sb) {
        installPrepared(job, TranslationRegistry::npos, conc);
    } else {
        sbRecipes_[entry] = job.recipe;
        const bool unrolled = job.recipe.trip.has_value();
        // Replace the BB translation for this entry (paper: "the
        // previous entry in the code cache ... is invalidated"). For
        // unrolled loops the BB translation is kept alive but
        // unmapped: it becomes the paper's "original loop" that
        // follows the unrolled version, executing the residual
        // iterations when the runtime trip check fails (instead of
        // falling back to IM).
        u32 bb_tid = TranslationRegistry::npos;
        if (prev != TranslationRegistry::npos) {
            // Only a genuine BB translation can serve as the residual
            // "original loop"; a previous superblock (recreation
            // path) must be invalidated as usual.
            if (unrolled && registry_.get(prev).mode == RegionMode::BB) {
                bb_tid = prev;
                registry_.unmapEntry(prev);
                sbFlags_[entry].residualBb = bb_tid;
            } else {
                registry_.invalidate(prev);
            }
        }
        // Recreations reuse the BB retained by the first promotion.
        if (unrolled && bb_tid == TranslationRegistry::npos) {
            u32 kept = sbFlags_[entry].residualBb;
            if (kept != ~0u && registry_.valid(kept))
                bb_tid = kept;
        }

        u32 sb_tid = installPrepared(job, bb_tid, conc);

        // The install may have fallen back to a full flush, which
        // kills the retained BB (eviction cannot: it is pinned).
        // Re-read the flag, which flushAll resets.
        if (unrolled && sbFlags_[entry].residualBb == ~0u)
            bb_tid = TranslationRegistry::npos;

        if (unrolled && bb_tid != TranslationRegistry::npos) {
            // Pre-chain the trip-check exit (exit #0) into the
            // retained BB translation.
            Translation &t = registry_.get(sb_tid);
            darco_assert(!t.exits.empty() &&
                             t.exits[0].kind == tol::ExitKind::Interp &&
                             t.exits[0].target == entry,
                         "unrolled SB exit layout unexpected");
            if (t.exits[0].siteWord != ~0u) {
                registry_.chain(sb_tid, 0, bb_tid);
                stats_.counter("tol.residual_chains").inc();
            }
        }
    }
    noteInstall(job);

    if (conc) {
        stats_.counter(sb ? "tol.async.published_sb"
                          : "tol.async.published_bb")
            .inc();
        if (trace_)
            trace_->instant("async", "async.publish", 0,
                            {{"entry", entry}, {"sb", sb ? 1 : 0}});
    }
}

u32
Tol::installPrepared(TranslationJob &job, u32 pinned_tid, bool conc)
{
    Region &region = job.region;
    const Allocation &alloc = job.alloc;
    const RegionMode mode = job.mode;
    // BB translations carry the BBM->SBM promotion instrumentation.
    const bool profile = mode == RegionMode::BB && sbmEnabled_;
    // BBV overhead dimension: everything this installation charges
    // (codegen, evictions, the translation itself) is software-layer
    // activity of the open profiling interval. Checkpoint-restore
    // replay charges nothing of its own — the restored cost and stats
    // sections overwrite both anyway — so it skips the hook and the
    // translation charge alike.
    u64 bbvCost0 = bbvOn_ && !inRestore_ ? cost_.totalAll() : 0;
    if (mode == RegionMode::SB && sched_)
        stats_.bind(cSpecLoads_, "tol.spec_loads").inc(job.specLoads);
    stats_.bind(cSpills_, "tol.spills").inc(alloc.spillCount);

    // Two attempts: when the code cache cannot fit the region even
    // after evictions, a full flush renumbers the global exit-id
    // space and we must regenerate. Region-granular eviction keeps
    // the exit-id space intact, so the first attempt normally lands.
    for (int attempt = 0; attempt < 2; ++attempt) {
        CodegenOptions co;
        co.exitIdBase = registry_.exitCount();
        co.profile = profile;
        co.flipCondExits = flipCondExits_;
        co.dropGuard = dropGuard_;
        if (profile) {
            Profiler::Slots pa = profiler_.slots(job.entry);
            co.execCounterAddr = pa.exec;
            co.promoteExitId = co.exitIdBase + u32(region.exits.size());
            co.sbThreshold = sbThreshold_;
            co.exitCounterAddr.assign(region.exits.size(), -1);
            // Edge counters on the final conditional branch's exits.
            if (region.exits.size() >= 2 &&
                region.exits[region.finalExit].kind ==
                    ExitKind::Direct) {
                u32 taken_idx = u32(region.exits.size()) - 2;
                if (taken_idx != region.finalExit &&
                    region.exits[taken_idx].kind == ExitKind::Direct) {
                    co.exitCounterAddr[taken_idx] = s32(pa.taken);
                    co.exitCounterAddr[region.finalExit] = s32(pa.fall);
                }
            }
        }

        CodegenResult cg = generateCode(
            region, alloc, co, [this](double v) { return poolIndex(v); });

        u32 need = u32(cg.words.size());
        if (!cache_.hasSpace(need) && ccEvict_)
            evictFor(need, pinned_tid);
        if (!cache_.hasSpace(need)) {
            darco_assert(attempt == 0, "region exceeds code cache");
            flushAll();
            continue;
        }

        u32 base = cache_.install(cg.words);
        darco_assert(base != host::CodeCache::npos,
                     "code cache install failed after space check");
        u32 tid = registry_.nextTid();
        Translation t;
        t.entry = region.entryPc;
        t.mode = mode;
        t.hostPc = base;
        t.words = need;
        t.exitIdBase = co.exitIdBase;
        for (std::size_t e = 0; e < region.exits.size(); ++e) {
            const IRExit &x = region.exits[e];
            ExitDesc d;
            d.kind = x.kind;
            d.target = x.target;
            d.instsRetired = x.instsRetired;
            d.bbsRetired = x.bbsRetired;
            if (cg.exitSite[e] != ~0u)
                d.siteWord = base + cg.exitSite[e];
            t.exits.push_back(d);
            registry_.addExit(GlobalExit{tid, u32(e), false, 0});
        }
        if (profile) {
            registry_.addExit(GlobalExit{tid, 0, true, region.entryPc});
        }

        u32 added = registry_.add(std::move(t));
        darco_assert(added == tid, "registry tid drifted");

        // Capture the machine-level half of this region's proof
        // obligation: the frozen pre-chaining words and the exit-id
        // layout codegen committed to. The construction inputs (path,
        // trip, end) are attached by noteInstall once publish has
        // fully completed.
        if (verify_) {
            verify::VerifyUnit u;
            u.entry = region.entryPc;
            u.mode = mode;
            u.profile = profile;
            u.fuseFlags = fuseFlags_;
            u.words = cg.words;
            u.exitIdBase = co.exitIdBase;
            if (profile)
                u.promoteExitId = co.promoteExitId;
            u.exits = registry_.get(tid).exits;
            u.fpPool = emu_.fpPool();
            u.tid = tid;
            lastInstall_ = std::move(u);
        }

        u64 guest_insts =
            region.exits[region.finalExit].instsRetired;
        const bool bb = mode == RegionMode::BB;
        if (!inRestore_) {
            if (bb && conc)
                cost_.chargeBBTranslationConc(guest_insts, need);
            else if (bb)
                cost_.chargeBBTranslation(guest_insts, need);
            else if (conc)
                cost_.chargeSBTranslationConc(guest_insts, job.passWork,
                                              need);
            else
                cost_.chargeSBTranslation(guest_insts, job.passWork,
                                          need);
        }
        if (bb)
            stats_.bind(cTransBb_, "tol.translations_bb").inc();
        else
            stats_.bind(cTransSb_, "tol.translations_sb").inc();
        if (bbvOn_ && !inRestore_)
            profiler_.recordBbvOverhead(cost_.totalAll() - bbvCost0);
        if (trace_) {
            trace_->complete("trans",
                             bb ? "translate.bb" : "translate.sb",
                             completedInsts_, 0, 0,
                             {{"entry", region.entryPc},
                              {"tid", tid},
                              {"words", need},
                              {"conc", conc ? 1 : 0}});
            // Per-stage work units (the pipeline runs atomically in
            // virtual time; the args carry its measured breakdown).
            trace_->instant("trans", "stage.frontend", 0,
                            {{"tid", tid}, {"guest_insts", guest_insts}});
            trace_->instant("trans", "stage.opt", 0,
                            {{"tid", tid}, {"pass_work", job.passWork}});
            trace_->instant("trans", "stage.schedule", 0,
                            {{"tid", tid}, {"spec_loads", job.specLoads}});
            trace_->instant("trans", "stage.regalloc", 0,
                            {{"tid", tid}, {"spills", alloc.spillCount}});
        }
        return tid;
    }
    panic("unreachable");
}

void
Tol::flushAll()
{
    cache_.flush();
    registry_.clear();
    emu_.ibtc().clear();
    for (CoreCtx &c : cores_)
        c.inRegionResume = false;
    for (auto &[_, f] : sbFlags_)
        f.residualBb = ~0u; // translation ids are gone
    stats_.counter("cc.flushes").inc();
}

void
Tol::maybeChain(u32 from_tid, u32 exit_idx)
{
    if (!chaining_)
        return;
    ExitDesc &d = registry_.get(from_tid).exits[exit_idx];
    if (d.chained || d.siteWord == ~0u || d.kind != tol::ExitKind::Direct)
        return;
    cost_.chargeChainAttempt();
    u32 to_tid = registry_.lookup(d.target);
    if (to_tid == TranslationRegistry::npos)
        return;
    registry_.chain(from_tid, exit_idx, to_tid);
}

// ---------------------------------------------------------------------
// Superblock construction (SBM)
// ---------------------------------------------------------------------

SBRecipe
Tol::collectSBPath(GAddr start)
{
    SBRecipe rc;
    const bool use_asserts = useAsserts_ && !sbFlags_[start].noAsserts;

    // Single-BB counted-loop unrolling: "dec r; jccne back-to-entry".
    BBInfo &first = getBB(start);
    if (unroll_ && first.endsWithCti && first.elems.size() >= 3) {
        const PathElem &last = first.elems.back();
        const PathElem &prev = first.elems[first.elems.size() - 2];
        bool counted = (last.inst.op == GOp::JCC_REL8 ||
                        last.inst.op == GOp::JCC_REL32) &&
                       last.inst.cond == GCond::NE &&
                       last.inst.target(last.pc) == start &&
                       prev.inst.op == GOp::DEC;
        if (counted) {
            u32 tk = profiler_.edgeTaken(start);
            u32 fl = profiler_.edgeFall(start);
            double bias =
                tk + fl ? double(tk) / double(tk + fl) : 0.0;
            if (tk + fl >= minEdgeTotal_ && bias >= biasThreshold_) {
                rc.trip = TripCheck{prev.inst.rd, unrollFactor_};
                for (u32 u = 0; u < unrollFactor_; ++u) {
                    BranchDisp disp = u + 1 < unrollFactor_
                                          ? BranchDisp::ElideTaken
                                          : BranchDisp::Final;
                    rc.steps.emplace_back(start, u8(disp));
                }
                stats_.counter("tol.unrolled_loops").inc();
                return rc;
            }
        }
    }

    GAddr cur = start;
    u32 bbs = 0;
    u32 insts = 0;
    double cum = 1.0;

    for (;;) {
        auto bit = bbCache_.find(cur);
        darco_assert(bit != bbCache_.end(),
                     "SB path walked into an unknown BB");
        const BBInfo &bb = bit->second;

        if (!bb.endsWithCti) {
            // REP or size-capped boundary: body then continue in IM.
            rc.end = Frontend::EndSpec{tol::ExitKind::Interp, bb.endPc};
            rc.steps.emplace_back(cur, stepWholeBB);
            return rc;
        }

        const PathElem &last = bb.elems.back();
        ++bbs;
        insts += u32(bb.elems.size());

        const GInst &li = last.inst;
        bool stop = bbs >= maxSbBbs_ || insts >= maxSbInsts_;
        BranchDisp disp = BranchDisp::Final;
        GAddr next = 0;

        if (!stop &&
            (li.op == GOp::JMP_REL8 || li.op == GOp::JMP_REL32)) {
            GAddr target = li.target(last.pc);
            if (bbCache_.count(target)) {
                disp = BranchDisp::ElideTaken;
                next = target;
            }
        } else if (!stop && (li.op == GOp::JCC_REL8 ||
                             li.op == GOp::JCC_REL32)) {
            u32 tk = profiler_.edgeTaken(cur);
            u32 fl = profiler_.edgeFall(cur);
            u32 total = tk + fl;
            if (total >= minEdgeTotal_) {
                bool taken_dir = tk >= fl;
                double bias = double(std::max(tk, fl)) / double(total);
                GAddr follow = taken_dir ? li.target(last.pc)
                                         : last.pc + li.length;
                if (bias >= biasThreshold_ &&
                    cum * bias >= cumThreshold_ &&
                    bbCache_.count(follow)) {
                    cum *= bias;
                    if (use_asserts) {
                        disp = taken_dir ? BranchDisp::AssertTaken
                                         : BranchDisp::AssertNotTaken;
                    } else {
                        disp = taken_dir ? BranchDisp::ExitNotTaken
                                         : BranchDisp::ExitTaken;
                    }
                    next = follow;
                }
            }
        }

        // Final terminates the superblock with this CTI.
        rc.steps.emplace_back(cur, u8(disp));
        if (disp == BranchDisp::Final)
            return rc;
        cur = next;
    }
}

std::vector<PathElem>
Tol::pathFromRecipe(const SBRecipe &rc)
{
    std::vector<PathElem> path;
    for (const auto &[bbe, code] : rc.steps) {
        const BBInfo &bb = getBB(bbe);
        if (code == stepWholeBB) {
            path.insert(path.end(), bb.elems.begin(), bb.elems.end());
            continue;
        }
        darco_assert(!bb.elems.empty() && bb.endsWithCti,
                     "SB recipe step does not match decoded BB");
        path.insert(path.end(), bb.elems.begin(), bb.elems.end() - 1);
        path.push_back(bb.elems.back());
        path.back().disp = BranchDisp(code);
    }
    return path;
}

// ---------------------------------------------------------------------
// Asynchronous translation pipeline
// ---------------------------------------------------------------------

u64
Tol::asyncLatency(u64 est_cost) const
{
    // est_cost modeled translator host insts, retired at
    // `rate * vthreads` per guest instruction the main core retires.
    u64 div = asyncRate_ * asyncVthreads_;
    return std::max<u64>(1, (est_cost + div - 1) / div);
}

void
Tol::pumpAsyncPublishes()
{
    for (auto &job : async_->takeDue(completedInsts_))
        publish(*job, true);
}

// ---------------------------------------------------------------------
// Translated-code execution
// ---------------------------------------------------------------------

void
Tol::executeTranslation(u32 host_pc, bool resuming)
{
    CoreCtx &core = cur();
    if (!resuming) {
        emu_.loadGuestState(core.state);
        cost_.chargePrologue();
        emu_.resetMark();
    }
    core.inRegionResume = false;
    u32 pc = host_pc;

    for (;;) {
        ExitInfo exit = emu_.run(pc, hostChunk_);
        switch (exit.kind) {
          case HExit::Budget:
            if (completedInsts_ >= runTarget_) {
                core.inRegionResume = true;
                core.resumeHostPc = emu_.ctx().pc;
                return;
            }
            pc = emu_.ctx().pc;
            continue;

          case HExit::Exit: {
            darco_assert(exit.exitId < registry_.exitCount(),
                         "EXITB id out of range");
            const GlobalExit ge = registry_.exit(exit.exitId);
            if (ge.promote) {
                emu_.storeGuestState(core.state);
                core.state.pc = ge.promoteTarget;
                // The path is collected now, at the deterministic
                // promotion point; async runs keep executing the stale
                // BB translation until the publish. Evict + re-promote
                // can re-fire the promotion for an entry whose
                // superblock is already in flight: one build is enough.
                if (!(async_ && async_->pendingFor(ge.promoteTarget)))
                    translate(makeJob(ge.promoteTarget,
                                      collectSBPath(ge.promoteTarget)));
                return;
            }
            const ExitDesc &d =
                registry_.get(ge.trans).exits[ge.exitIdx];
            emu_.storeGuestState(core.state);
            core.state.pc = d.target;
            switch (d.kind) {
              case tol::ExitKind::Direct:
                maybeChain(ge.trans, ge.exitIdx);
                return;
              case tol::ExitKind::Syscall:
                handleSyscall();
                return;
              case tol::ExitKind::Halt:
                core.finished = true;
                return;
              case tol::ExitKind::Interp:
                // Normal dispatch: the continuation (e.g. the tail of
                // a size-capped straight-line run) gets its own
                // translation; only untranslatable code (REP string
                // ops) actually lands in IM. Exception: an unchained
                // trip-check exit targets its own entry — re-entering
                // the region would spin, so IM must absorb one BB.
                if (d.target == registry_.get(ge.trans).entry)
                    core.forceInterp = true;
                return;
              default:
                panic("unexpected exit kind from EXITB");
            }
          }

          case HExit::IbtcMiss: {
            emu_.storeGuestState(core.state);
            core.state.pc = exit.guestTarget;
            cost_.chargeLookup();
            u32 target = registry_.lookup(core.state.pc);
            if (target != TranslationRegistry::npos) {
                emu_.ibtc().insert(core.state.pc,
                                   registry_.get(target).hostPc);
                registry_.touch(target);
                stats_.bind(cIbtcFills_, "tol.ibtc_fills").inc();
            }
            return;
          }

          case HExit::AssertFail:
          case HExit::AliasFail: {
            u32 rtid = rollBackRegion();
            Translation &t = registry_.get(rtid);
            bool is_assert = exit.kind == HExit::AssertFail;
            stats_
                .counter(is_assert ? "tol.assert_fails"
                                   : "tol.alias_fails")
                .inc();
            if (trace_)
                trace_->instant("rollback",
                                is_assert ? "rollback.assert"
                                          : "rollback.alias",
                                0, {{"entry", t.entry}});
            u32 fails = is_assert ? ++t.assertFails : ++t.aliasFails;
            u32 limit = is_assert ? maxAssertFails_ : maxAliasFails_;
            if (fails > limit && t.mode == RegionMode::SB) {
                if (is_assert) {
                    sbFlags_[t.entry].noAsserts = true;
                    stats_.counter("tol.sb_recreated_noassert").inc();
                } else {
                    sbFlags_[t.entry].noSpec = true;
                    stats_.counter("tol.sb_recreated_nospec").inc();
                }
                GAddr entry = t.entry;
                registry_.invalidate(rtid);
                auto job = makeJob(entry, collectSBPath(entry));
                prepare(*job);
                publish(*job, false);
            }
            // IM is the safety net for forward progress (paper V-B1).
            core.forceInterp = true;
            return;
          }

          case HExit::DivFault: {
            const Translation &t = registry_.get(rollBackRegion());
            if (trace_)
                trace_->instant("rollback", "rollback.div", 0,
                                {{"entry", t.entry}});
            // Re-execute in IM for a precise architectural fault.
            core.forceInterp = true;
            return;
          }

          case HExit::PageMiss: {
            const Translation &t = registry_.get(rollBackRegion());
            if (trace_)
                trace_->instant("rollback", "rollback.page_miss", 0,
                                {{"entry", t.entry},
                                 {"page", exit.missPage}});
            servicePageMiss(exit.missPage);
            return; // dispatch retries the translation
          }
        }
    }
}

u32
Tol::rollBackRegion()
{
    u32 tid = registry_.atHostBase(emu_.ctx().pc);
    darco_assert(tid != TranslationRegistry::npos,
                 "rollback landed outside any region base");
    // The region executed (hot) but never reaches its RETIRE: keep
    // the eviction clock honest.
    registry_.touch(tid);
    const Translation &t = registry_.get(tid);
    CoreCtx &core = cur();
    emu_.storeGuestState(core.state);
    core.state.pc = t.entry;
    // Wasted speculative work still ran in this mode.
    (t.mode == RegionMode::BB ? cHostBbm_ : cHostSbm_)
        ->inc(emu_.instsSinceMark());
    emu_.resetMark();
    return tid;
}

// ---------------------------------------------------------------------
// Main dispatch loop (Fig. 3)
// ---------------------------------------------------------------------

namespace
{
/**
 * Run `body`, then drain the trace pipeline on every exit from it,
 * exceptional ones included, so callers read a quiet sink.
 */
template <typename Body>
void
drainedCall(host::TracePipeline &pipe, Body body)
{
    try {
        body();
    } catch (...) {
        pipe.drainUnwinding();
        throw;
    }
    pipe.drain();
}
} // namespace

void
Tol::run(u64 max_guest_insts)
{
    drainedCall(tracePipeline_, [&] { dispatch(max_guest_insts); });
}

void
Tol::dispatch(u64 max_guest_insts)
{
    if (!initCharged_) {
        cost_.chargeInit();
        initCharged_ = true;
    }
    runTarget_ = max_guest_insts == ~0ull
                     ? ~0ull
                     : completedInsts_ + max_guest_insts;

    while (!finished()) {
        if (completedInsts_ >= runTarget_)
            return;
        // Publish async translations that completed (in virtual time)
        // by now. Not while a budget pause left a region mid-flight:
        // a publish can evict the very region about to be resumed,
        // and an uninterrupted run would only publish after the
        // region finished anyway.
        if (async_ && !cur().inRegionResume)
            pumpAsyncPublishes();
        if (metrics_ && completedInsts_ >= metricsNext_) {
            // Rows close at the first dispatch at/after the interval
            // boundary — a deterministic virtual-time point.
            obsEmitMetricsRow();
            u64 iv = metrics_->interval();
            metricsNext_ = (completedInsts_ / iv + 1) * iv;
        }
        cost_.chargeDispatch();

        // A budget pause inside a translated region pins the next
        // dispatch to the paused core: the shared host emulator still
        // holds its mid-region register context, which a core switch
        // would clobber. Only after the region completes does the
        // interleaver run again.
        if (cur().inRegionResume) {
            executeTranslation(cur().resumeHostPc, true);
            continue;
        }
        // The interleaver draw: a core switch only ever happens here,
        // at a region/interpreter-step boundary, where the only live
        // per-core state is the architectural CpuState.
        pickNextCore();
        CoreCtx &core = cur();
        if (!core.forceInterp) {
            cost_.chargeLookup();
            u32 tid = registry_.lookup(core.state.pc);
            if (tid != TranslationRegistry::npos) {
                registry_.touch(tid);
                if (trace_)
                    obsNoteMode(registry_.get(tid).mode == RegionMode::BB
                                    ? 1
                                    : 2);
                executeTranslation(registry_.get(tid).hostPc, false);
                continue;
            }
        }
        core.forceInterp = false;
        if (trace_)
            obsNoteMode(0);
        interpretStep();
    }
}

// ---------------------------------------------------------------------
// Checkpointing
// ---------------------------------------------------------------------

void
Tol::quiesce()
{
    drainedCall(tracePipeline_, [this] { finishRegion(); });
}

void
Tol::finishRegion()
{
    if (cur().inRegionResume) {
        runTarget_ = ~0ull;
        executeTranslation(cur().resumeHostPc, true);
        darco_assert(!cur().inRegionResume,
                     "quiesce left mid-region resume state");
    }
    // Wall-clock quiesce of the translator pool: wait until every
    // in-flight job is prepared. Publishes nothing — the jobs stay
    // pending with their virtual completion points intact, and save()
    // serializes them so the restored run publishes identically.
    if (async_) {
        async_->drain();
        // Verification ordering: proofs may only observe *fully
        // published* regions, and they must observe every region that
        // is virtually complete — the dispatch loop pumps publishes at
        // the top of each iteration, so a run that finishes (or
        // budget-pauses) can strand due-but-unpublished jobs which
        // would otherwise escape the install-time proof pass. Publish
        // them now, on the main thread, after the drain above
        // guaranteed their outputs are complete. Off the verify path
        // the legacy publish-nothing contract (and its checkpoint
        // timing) is preserved.
        if (verify_)
            pumpAsyncPublishes();
    }
}

// ---------------------------------------------------------------------
// Translation verification (tol.verify)
// ---------------------------------------------------------------------

void
Tol::noteInstall(const TranslationJob &job)
{
    if (!verify_ || !lastInstall_)
        return;
    verify::VerifyUnit u = std::move(*lastInstall_);
    lastInstall_.reset();
    u.path = job.path;
    u.trip = job.recipe.trip;
    u.end = job.recipe.end;
    verify::VerifyResult r;
    try {
        r = verify::verifyUnit(u);
    } catch (const std::exception &e) {
        r.verdict = verify::Verdict::Unknown;
        r.entry = u.entry;
        r.mode = u.mode;
        r.tid = u.tid;
        r.detail = std::string("verifier exception: ") + e.what();
    }
    if (trace_)
        trace_->instant("verify", "verify.proof", 0,
                        {{"entry", u.entry},
                         {"verdict", u64(r.verdict)}});
    verifyReport_.add(std::move(r));
}

void
Tol::verifyFinal()
{
    if (verify_)
        quiesce();
}

void
Tol::save(snapshot::Serializer &s) const
{
    darco_assert(!cur().inRegionResume,
                 "Tol::save requires a quiescent runtime "
                 "(call quiesce() first)");

    s.w64(completedInsts_);
    s.w64(completedBBs_);
    s.wbool(initCharged_);
    s.w32(bbThreshold_);
    s.w32(sbThreshold_);

    // Per-core guest contexts (snapshot v5) plus the interleaver
    // state, so a restored multi-core run resumes the exact same
    // dispatch schedule.
    s.w32(u32(cores_.size()));
    s.w32(cur_);
    s.w64(ivRng_);
    for (const CoreCtx &c : cores_) {
        s.wbool(c.finished);
        s.wbool(c.forceInterp);
        s.w64(c.insts);
        s.w64(c.bbs);
        s.w64(c.im);
        s.w64(c.bbm);
        s.w64(c.sbm);
        c.state.save(s);
    }
    profiler_.save(s);

    // The discovered-BB set: superblock replay walks paths through
    // bbCache_, so restore must re-decode these before retranslating.
    std::vector<GAddr> bbs;
    bbs.reserve(bbCache_.size());
    for (const auto &[entry, _] : bbCache_)
        bbs.push_back(entry);
    std::sort(bbs.begin(), bbs.end());
    s.w64(bbs.size());
    for (GAddr e : bbs)
        s.w32(e);

    // Superblock recreation flags (residual tids are re-established
    // by the replay itself).
    std::vector<std::pair<GAddr, SBFlags>> flags(sbFlags_.begin(),
                                                 sbFlags_.end());
    std::sort(flags.begin(), flags.end(),
              [](const auto &a, const auto &b) {
                  return a.first < b.first;
              });
    s.w64(flags.size());
    for (auto &[entry, f] : flags) {
        s.w32(entry);
        s.wbool(f.noAsserts);
        s.wbool(f.noSpec);
    }

    // Superblock recipes: restore rebuilds each SB from its recorded
    // path instead of re-deriving it from (end-state) edge counters,
    // keeping restored translations structurally identical.
    std::vector<std::pair<GAddr, const SBRecipe *>> recipes;
    recipes.reserve(sbRecipes_.size());
    for (const auto &[entry, rc] : sbRecipes_)
        recipes.emplace_back(entry, &rc);
    std::sort(recipes.begin(), recipes.end(),
              [](const auto &a, const auto &b) {
                  return a.first < b.first;
              });
    s.w64(recipes.size());
    for (const auto &[entry, rc] : recipes) {
        s.w32(entry);
        writeRecipe(s, *rc);
    }

    // Live translations in installation (tid) order: enough metadata
    // to retranslate each region from the restored memory image.
    std::vector<u32> live;
    for (u32 tid = 0; tid < registry_.totalCount(); ++tid) {
        if (registry_.valid(tid))
            live.push_back(tid);
    }
    s.w64(live.size());
    for (u32 tid : live) {
        const Translation &t = registry_.get(tid);
        s.w32(t.entry);
        s.w8(u8(t.mode));
        s.wbool(registry_.lookup(t.entry) == tid);
        s.w32(t.assertFails);
        s.w32(t.aliasFails);
    }

    // In-flight async translations (snapshot v4): inputs plus the
    // preserved virtual completion point, in seq order, so the
    // restored run re-prepares identical artifacts and publishes them
    // at identical virtual times. BB jobs re-derive their path from
    // the (already saved) discovered-BB set; SB jobs carry their
    // recipe. Empty when the async pipeline is off.
    std::vector<const TranslationJob *> jobs;
    if (async_) {
        async_->forEachPending(
            [&](const TranslationJob &j) { jobs.push_back(&j); });
    }
    s.w64(jobs.size());
    for (const TranslationJob *j : jobs) {
        s.w8(u8(j->mode));
        s.w32(j->entry);
        s.w64(j->enqueuedAt);
        s.w64(j->completesAt);
        if (j->mode == RegionMode::SB)
            writeRecipe(s, j->recipe);
    }

    cost_.save(s);
}

void
Tol::restore(snapshot::Deserializer &d)
{
    // Exception-safe: a SnapshotError mid-restore must not leave the
    // replay suppression stuck on (it would silently disable BBV
    // overhead recording for the rest of the runtime's life).
    struct RestoreGuard
    {
        bool &flag;
        explicit RestoreGuard(bool &f) : flag(f) { flag = true; }
        ~RestoreGuard() { flag = false; }
    } guard(inRestore_);

    completedInsts_ = d.r64();
    completedBBs_ = d.r64();
    initCharged_ = d.rbool();
    bbThreshold_ = d.r32();
    sbThreshold_ = d.r32();

    u32 ncores = d.r32();
    if (ncores != u32(cores_.size())) {
        // The controller's exec-relevant config comparison refuses a
        // core-count mismatch before we get here; this guards direct
        // Tol::restore users and corrupt images.
        throw snapshot::SnapshotError(
            "checkpoint has " + std::to_string(ncores) +
            " cores, config has " + std::to_string(cores_.size()));
    }
    cur_ = d.r32();
    ivRng_ = d.r64();
    for (CoreCtx &c : cores_) {
        c.finished = d.rbool();
        c.forceInterp = d.rbool();
        c.insts = d.r64();
        c.bbs = d.r64();
        c.im = d.r64();
        c.bbm = d.r64();
        c.sbm = d.r64();
        c.state.restore(d);
    }
    if (cores_.size() > 1)
        emu_.setMemory(*cores_[cur_].mem);
    profiler_.restore(d);

    u64 nbbs = d.r64();
    for (u64 i = 0; i < nbbs; ++i)
        getBB(d.r32());

    u64 nflags = d.r64();
    for (u64 i = 0; i < nflags; ++i) {
        GAddr entry = d.r32();
        SBFlags f;
        f.noAsserts = d.rbool();
        f.noSpec = d.rbool();
        sbFlags_[entry] = f;
    }

    u64 nrecipes = d.r64();
    for (u64 i = 0; i < nrecipes; ++i) {
        GAddr entry = d.r32();
        sbRecipes_[entry] = readRecipe(d);
    }

    // Re-materialize host code: replay installation in tid order,
    // each translation a job built from its BBInfo or recipe against
    // the restored memory image, so regenerated code is deterministic.
    // Replay publishes charge no cost; the stats they bump are
    // overwritten by the stats section restored afterwards.
    u64 ntrans = d.r64();
    for (u64 i = 0; i < ntrans; ++i) {
        GAddr entry = d.r32();
        RegionMode mode = RegionMode(d.r8());
        (void)d.rbool(); // mapped flag: re-established by the replay
        u32 assert_fails = d.r32();
        u32 alias_fails = d.r32();
        std::unique_ptr<TranslationJob> job;
        if (mode == RegionMode::BB) {
            const BBInfo &bb = getBB(entry);
            if (!bb.translatable ||
                registry_.lookup(entry) != TranslationRegistry::npos)
                continue;
            job = makeJob(bb);
        } else {
            auto it = sbRecipes_.find(entry);
            if (it == sbRecipes_.end())
                throw snapshot::SnapshotError(
                    "live superblock has no recipe");
            job = makeJob(entry, it->second);
        }
        prepare(*job);
        publish(*job, false);
        if (job->mode == RegionMode::SB) {
            Translation &t = registry_.get(registry_.lookup(entry));
            t.assertFails = assert_fails;
            t.aliasFails = alias_fails;
        }
    }

    // Re-enqueue in-flight async translations in original seq order;
    // preserved completion points keep the publish schedule (and its
    // tie-breaking) bit-identical to the uninterrupted run.
    u64 npend = d.r64();
    if (npend != 0 && !async_) {
        throw snapshot::SnapshotError(
            "checkpoint holds in-flight async translations but the "
            "async pipeline is disabled");
    }
    for (u64 i = 0; i < npend; ++i) {
        u8 mode = d.r8();
        GAddr entry = d.r32();
        u64 enqueued_at = d.r64();
        u64 completes_at = d.r64();
        auto job = mode == u8(RegionMode::BB)
                       ? makeJob(getBB(entry))
                       : makeJob(entry, readRecipe(d));
        job->enqueuedAt = enqueued_at;
        job->completesAt = completes_at;
        async_->enqueue(std::move(job));
    }

    cost_.restore(d);
}

} // namespace darco::tol

/**
 * @file
 * The Translation Optimization Layer runtime.
 *
 * Implements the paper's three-mode execution flow (Fig. 3):
 *
 *  - IM: interpret guest instructions, profile BB repetition with
 *    software counters, promote hot BBs to BBM;
 *  - BBM: basic-block translations with profiling instrumentation
 *    (execution + edge counters) and a promotion-threshold check;
 *  - SBM: superblocks built along biased branch directions, with
 *    branches converted to asserts, single-BB counted loops unrolled
 *    behind a runtime trip check, and the full optimization pipeline
 *    (SSA-form IR, forward passes, DCE, DDG memory optimization,
 *    list scheduling with memory speculation, linear-scan allocation).
 *
 * Tol itself is the mode-transition state machine; the subsystems it
 * coordinates are factored out:
 *
 *  - tol::Profiler: IM repetition counters, profiling-slot
 *    allocation, edge-counter readback;
 *  - tol::TranslationRegistry: the translation table, entry/host-pc
 *    maps, global exit table, chaining and invalidation mechanics,
 *    and the LRU eviction clock;
 *  - host::CodeCache: region-allocating host-code store.
 *
 * The runtime still owns policy: promotion thresholds, the IBTC fill
 * policy, speculation-failure handling (assert/alias failure counting
 * and superblock recreation), the code-cache capacity policy
 * (cc.policy = evict | flush), and the seven-category overhead cost
 * model.
 */

#ifndef DARCO_TOL_TOL_HH
#define DARCO_TOL_TOL_HH

#include <array>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/config.hh"
#include "common/logging.hh"
#include "common/stats.hh"
#include "guest/decode_cache.hh"
#include "guest/memory.hh"
#include "guest/state.hh"
#include "host/code_cache.hh"
#include "host/hemu.hh"
#include "host/trace_pipeline.hh"
#include "tol/async.hh"
#include "tol/cost_model.hh"
#include "tol/frontend.hh"
#include "tol/profiler.hh"
#include "tol/registry.hh"
#include "verify/verifier.hh"

namespace darco::snapshot
{
class Serializer;
class Deserializer;
} // namespace darco::snapshot

namespace darco::obs
{
class Tracer;
class MetricsWriter;
} // namespace darco::obs

namespace darco::tol
{

/** A decoded basic block (TOL-internal granularity). */
struct BBInfo
{
    GAddr entry = 0;
    std::vector<PathElem> elems;
    bool endsWithCti = false;
    GAddr endPc = 0;      //!< IM continuation point when !endsWithCti
    bool translatable = true;
};

/**
 * The TOL. Its parameters and their defaults are listed in
 * docs/CONFIG.md, which is generated from the schema.
 */
class Tol : public host::RetireSink
{
  public:
    /** Controller-side services (the co-designed component's view).
     *  `core` selects which guest context (and which reference
     *  component) the request is for; `completed_insts` is that
     *  core's own retirement count, the sync point for its
     *  reference. */
    class Env
    {
      public:
        virtual ~Env() = default;
        /** Fetch a guest page as of `completed_insts` into memory. */
        virtual void dataRequest(u32 core, GAddr page,
                                 u64 completed_insts) = 0;
        /**
         * Execute the syscall at the current guest pc (in the
         * reference component) and apply its effects to the
         * co-designed state. @return false when the program exited.
         */
        virtual bool syscall(u32 core, u64 completed_insts) = 0;
    };

    /**
     * A TOL always runs behind its Controller: `env` serves every page
     * miss and executes every syscall (the guest OS runs only in the
     * reference component).
     */
    Tol(Env &env, guest::PagedMemory &mem, const Config &cfg,
        StatGroup &stats);

    /** Swap the environment (a wrapper that times the controller). */
    void
    setEnv(Env *env)
    {
        darco_assert(env, "a Tol needs an environment");
        env_ = env;
    }
    const Env *env() const { return env_; }

    /** Guest hardware contexts sharing this TOL (`cores` param). */
    u32 numCores() const { return u32(cores_.size()); }

    /**
     * Attach core i's guest address space (core 0 uses the memory
     * passed at construction). Must be called for every extra core
     * before run().
     */
    void setCoreMemory(u32 core, guest::PagedMemory &mem);

    /**
     * Initialize core `core` (Initialization phase): it starts at `st`
     * with `retired` guest instructions already retired, its reference
     * component's count (nonzero after Controller::fastForward).
     */
    void setState(u32 core, const guest::CpuState &st, u64 retired);
    guest::CpuState &state() { return cores_[0].state; }
    const guest::CpuState &state() const { return cores_[0].state; }
    guest::CpuState &state(u32 core) { return cores_[core].state; }
    const guest::CpuState &state(u32 core) const
    {
        return cores_[core].state;
    }

    /** Execute up to max_guest_insts more guest instructions
     *  (multi-core: total across all cores). Returns, normally or by
     *  an exception, with the trace sink drained. */
    void run(u64 max_guest_insts = ~0ull);

    /** All cores finished? */
    bool
    finished() const
    {
        for (const CoreCtx &c : cores_) {
            if (!c.finished)
                return false;
        }
        return true;
    }
    bool finished(u32 core) const { return cores_[core].finished; }

    /** Total retired guest instructions / BBs (all cores). */
    u64 completedInsts() const { return completedInsts_; }
    u64 completedBBs() const { return completedBBs_; }
    /** Core-local retirement counters. */
    u64 completedInsts(u32 core) const { return cores_[core].insts; }
    u64 completedBBs(u32 core) const { return cores_[core].bbs; }

    host::HostEmu &hostEmu() { return emu_; }
    host::CodeCache &codeCache() { return cache_; }
    CostModel &costModel() { return cost_; }
    Profiler &profiler() { return profiler_; }
    TranslationRegistry &registry() { return registry_; }
    const TranslationRegistry &registry() const { return registry_; }
    StatGroup &stats() { return stats_; }

    /**
     * Attach the timing stream (application + synthesized TOL);
     * nullptr detaches. The sink is called on a thread the library
     * owns (host::TracePipeline), never concurrently, and is drained
     * whenever run() or quiesce() returns, exceptional returns
     * included: reading it after either one sees every record so far.
     * An exception the sink throws is rethrown by the next run() or
     * quiesce() on the calling thread, unless that one is already
     * throwing its own. Switching drains the old sink first.
     */
    void setTraceSink(host::TraceSink *sink);

    /**
     * Attach the observability outputs (either may be null). Called
     * by the Controller after construction — and again after a
     * checkpoint restore, so the replayed installs are never traced.
     * All events are emitted on the simulation thread at virtual
     * (retired-guest-inst) timestamps; async jobs appear as spans on
     * virtual translator tracks keyed by enqueue order, keeping the
     * stream byte-identical across positive tol.async.threads counts.
     */
    void attachObs(obs::Tracer *tracer, obs::MetricsWriter *metrics);

    /**
     * Close the open mode span and emit the final partial metrics
     * row. Called at end of run / before the session writes files;
     * idempotent between retirements.
     */
    void flushObs();

    /**
     * Downscale promotion thresholds by `factor` (the warm-up
     * methodology of Section VI-E). factor=1 restores the originals.
     */
    void scaleThresholds(u32 factor);

    // RetireSink
    void onRetire(u32 exit_id, u64 host_insts) override;

    // --- checkpointing ---------------------------------------------------
    /**
     * Run to the next region boundary if execution paused inside a
     * translated region (a budget stop mid-region leaves host-pc
     * resume state a checkpoint cannot carry). May advance guest
     * execution by up to one region's remainder; no-op otherwise.
     * Drains the trace sink, as run() does.
     */
    void quiesce();

    /**
     * Serialize runtime state: retirement counts, mode/threshold
     * state, guest architectural state, profiling counters, the
     * discovered-BB set, and per-entry translation metadata. Host
     * code is *not* saved — restore() re-materializes it by
     * retranslating every registered region, so checkpoints stay
     * host-agnostic. Requires a quiescent runtime (see quiesce()).
     */
    void save(snapshot::Serializer &s) const;

    /**
     * Restore into a freshly-constructed Tol (same Config, env
     * already attached). Replays translation installation in original
     * order against the restored memory image and profile counters.
     */
    void restore(snapshot::Deserializer &d);

    // Introspection for tests and benches.
    std::size_t translationCount() const
    {
        return registry_.liveCount();
    }
    const host::TracePipeline &tracePipeline() const
    {
        return tracePipeline_;
    }

    /** Async pipeline on (tol.async.threads >= 1)? */
    bool asyncEnabled() const { return async_ != nullptr; }
    /** In-flight (enqueued, unpublished) async translations. */
    std::size_t
    asyncPending() const
    {
        return async_ ? async_->pendingCount() : 0;
    }

    // --- translation verification (tol.verify) ---------------------------
    /** Equivalence proofs enabled (tol.verify)? */
    bool verifyEnabled() const { return verify_; }
    /**
     * Quiesce, which with proofs on also publishes the async jobs
     * that are due, so every translation that is virtually complete
     * has been proved. No-op with proofs off. Idempotent.
     */
    void verifyFinal();
    /** Proof outcomes so far, one per published translation. */
    const verify::VerifyReport &verifyReport() const
    {
        return verifyReport_;
    }

  private:
    // --- decode / BB cache ------------------------------------------------
    const guest::GInst &fetchGuest(GAddr pc);
    BBInfo &getBB(GAddr entry);

    // --- execution ---------------------------------------------------------
    /** BBV attribution of `insts` retired insts to region `entry`. */
    void
    recordBbv(GAddr entry, u64 insts)
    {
        if (bbvOn_ && insts)
            profiler_.recordBbvRetire(entry, insts);
    }
    /** run() without the trace drain. */
    void dispatch(u64 max_guest_insts);
    /** quiesce() without the trace drain. */
    void finishRegion();
    void interpretStep();
    void executeTranslation(u32 host_pc, bool resuming);
    /**
     * Roll the current core back to the entry of the region whose
     * speculation failed at the host pc, charging the wasted host
     * instructions to its mode. Returns the region's id.
     */
    u32 rollBackRegion();
    void handleSyscall();
    void servicePageMiss(GAddr page);
    /** One seeded interleaver draw: schedule the next runnable core
     *  (no-op, and no RNG draw, with a single core). */
    void pickNextCore();

    // --- translation pipeline: job -> prepare -> publish ------------------
    /** A BB job from its decoded block. */
    std::unique_ptr<TranslationJob> makeJob(const BBInfo &bb) const;
    /** An SB job from its recipe (path expanded by pathFromRecipe). */
    std::unique_ptr<TranslationJob> makeJob(GAddr entry, SBRecipe recipe);
    /**
     * A translation request: enqueue the job when the async queue has
     * room, otherwise prepare and publish it now.
     * @return true when published now (inline).
     */
    bool translate(std::unique_ptr<TranslationJob> job);
    /** The pure part of a translation: frontend build, passes,
     *  schedule, verifyRegion, regalloc. Runs inline or on an async
     *  worker; touches only the job and immutable configuration. */
    void prepare(TranslationJob &job) const;
    /**
     * Install a prepared job: SB replace/residual-BB handling, the
     * code-cache install, the recipe commit and the proof obligation.
     * `conc` marks an async publish: it drops stale jobs, charges the
     * concurrent-translator overhead category instead of the
     * critical-path one and counts tol.async.published_*.
     */
    void publish(TranslationJob &job, bool conc);
    /** Codegen, capacity policy, registry/cost bookkeeping. */
    u32 installPrepared(TranslationJob &job, u32 pinned_tid, bool conc);
    /** Walk the profile from `start` into a superblock recipe. */
    SBRecipe collectSBPath(GAddr start);
    /** The one expansion of a recipe into a superblock path. */
    std::vector<PathElem> pathFromRecipe(const SBRecipe &rc);

    // --- async pipeline ---------------------------------------------------
    /** Virtual-time latency of a modeled translation. */
    u64 asyncLatency(u64 est_cost) const;
    /** Publish every job due at the current virtual time. */
    void pumpAsyncPublishes();
    /** Evict cold regions until `need` contiguous words fit. */
    void evictFor(u32 need, u32 pinned_tid);
    void flushAll();
    u32 poolIndex(double v);
    void maybeChain(u32 from_tid, u32 exit_idx);

    // --- verification -----------------------------------------------------
    /**
     * Attach the job's construction inputs to the VerifyUnit
     * installPrepared captured, prove it and record the verdict.
     * Called by publish on the main thread, after the install —
     * including the superblock residual chaining — is fully
     * published, so the proof never observes a half-installed region.
     */
    void noteInstall(const TranslationJob &job);

    // --- observability -----------------------------------------------------
    /** Open/extend/close the current mode span (0=IM 1=BBM 2=SBM). */
    void obsNoteMode(u8 mode);
    /** Emit one interval row covering [obsSnap_.vt, completedInsts_). */
    void obsEmitMetricsRow();

    // --- members -----------------------------------------------------------
    /**
     * One guest hardware context. N of these share everything else in
     * the TOL — registry, code cache, eviction clock, profiler, async
     * translator — which is the paper's runtime viewed as a system
     * service rather than a per-thread library.
     */
    struct CoreCtx
    {
        guest::CpuState state;
        guest::PagedMemory *mem = nullptr;
        bool finished = false;
        bool forceInterp = false;
        // Resume state for guest-budget pauses inside a region. At
        // most one core can hold this (a budget pause exits run()
        // immediately), and the dispatch loop resumes it before the
        // interleaver runs again.
        bool inRegionResume = false;
        u32 resumeHostPc = 0;
        u64 insts = 0; //!< core-local retirements
        u64 bbs = 0;
        u64 im = 0, bbm = 0, sbm = 0; //!< core-local mode attribution
        // Per-core open mode span (observability).
        u8 obsMode = 0;
        bool obsModeOpen = false;
        u64 obsModeStart = 0;
    };

    guest::PagedMemory &mem_; //!< core 0's guest address space
    Config cfg_;
    StatGroup &stats_;
    host::CodeCache cache_;
    host::HostEmu emu_;
    Profiler profiler_;
    TranslationRegistry registry_;
    CostModel cost_;
    /** Carries emu_'s and cost_'s records to the attached sink. */
    host::TracePipeline tracePipeline_;
    Env *env_;

    std::vector<CoreCtx> cores_;
    u32 cur_ = 0;      //!< core the dispatch loop is serving
    u64 ivRng_ = 1;    //!< interleaver xorshift64 state (never 0)

    CoreCtx &cur() { return cores_[cur_]; }
    const CoreCtx &cur() const { return cores_[cur_]; }
    guest::PagedMemory &curMem() { return *cores_[cur_].mem; }

    bool initCharged_ = false;
    bool inRestore_ = false; //!< replay: no BBV hooks, no charges

    u64 completedInsts_ = 0; //!< shared virtual clock (all cores)
    u64 completedBBs_ = 0;
    u64 runTarget_ = ~0ull;

    guest::DecodeCache decode_;
    std::unordered_map<GAddr, BBInfo> bbCache_;

    struct SBFlags
    {
        bool noAsserts = false;
        bool noSpec = false;
        u32 residualBb = ~0u; //!< retained BB for unrolled residuals
    };
    std::unordered_map<GAddr, SBFlags> sbFlags_;
    std::unordered_map<GAddr, SBRecipe> sbRecipes_;

    std::unordered_map<u64, u32> fpPoolMap_;

    // Cached stat counters (hot paths).
    Counter *cGuestIm_, *cGuestBbm_, *cGuestSbm_;
    Counter *cBbIm_, *cBbBbm_, *cBbSbm_;
    Counter *cHostBbm_, *cHostSbm_;
    Counter *cChainTouches_;
    /** Bound on first use, so a run without page requests,
     *  syscalls, translations or IBTC fills keeps these keys out of
     *  the stats map. */
    Counter *cPageRequests_ = nullptr, *cSyscalls_ = nullptr;
    Counter *cSpills_ = nullptr, *cSpecLoads_ = nullptr;
    Counter *cTransBb_ = nullptr, *cTransSb_ = nullptr;
    Counter *cIbtcFills_ = nullptr;

    // Config snapshot.
    u32 bbThreshold_, sbThreshold_;
    u32 baseBbThreshold_, baseSbThreshold_;
    double biasThreshold_, cumThreshold_;
    u32 minEdgeTotal_, maxSbInsts_, maxSbBbs_, maxBbInsts_;
    u32 maxAssertFails_, maxAliasFails_;
    bool unroll_;
    u32 unrollFactor_;
    bool useAsserts_;
    bool bbmEnabled_, sbmEnabled_, chaining_, specMem_, sched_, opt_;
    bool fuseFlags_;
    bool bbvOn_; //!< tol.bbv_interval != 0
    bool flipCondExits_; //!< hidden fault injection (fuzzer self-test)
    bool dropGuard_; //!< hidden fault injection (verifier self-test)
    bool ccEvict_; //!< cc.policy == "evict"
    u64 hostChunk_;

    // Translation verification (tol.verify).
    bool verify_ = false;
    verify::VerifyReport verifyReport_;
    /** Machine-level half of a unit, set by installPrepared and
     *  consumed by noteInstall right after the publish completes. */
    std::optional<verify::VerifyUnit> lastInstall_;

    // Async pipeline configuration (tol.async.*).
    u32 asyncVthreads_ = 1;
    u64 asyncRate_ = 8;

    // Observability (obs.*): raw pointers owned by the Controller's
    // obs::Session; null when disabled, so the hot paths pay a single
    // pointer test and no counters exist at all.
    obs::Tracer *trace_ = nullptr;
    obs::MetricsWriter *metrics_ = nullptr;
    u64 obsAsyncSeq_ = 0;     //!< deterministic translator-track cursor
    u64 metricsNext_ = ~0ull; //!< next interval boundary (virtual)
    /** Trace track for core i's mode spans (track 0 single-core). */
    u16 coreTrack(u32 core) const;
    /** Counter snapshot at the last emitted interval boundary. */
    struct ObsSnap
    {
        u64 vt = 0;
        u64 im = 0, bbm = 0, sbm = 0;
        u64 ovh[unsigned(Overhead::NumCats)] = {};
        u64 instBb = 0, instSb = 0, evict = 0, flush = 0;
        /** Per-core im/bbm/sbm at the boundary (cores > 1 only). */
        std::vector<std::array<u64, 3>> core;
    };
    ObsSnap obsSnap_;
    /** The counters an interval row takes deltas of, as of now. */
    ObsSnap obsSnapshot() const;

    /**
     * The background translator pool; null when tol.async.threads=0
     * (the legacy synchronous path). Declared last so its destructor
     * joins the workers before anything they read is torn down.
     */
    std::unique_ptr<AsyncTranslator> async_;
};

} // namespace darco::tol

#endif // DARCO_TOL_TOL_HH

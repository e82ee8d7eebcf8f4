/**
 * @file
 * Asynchronous translation pipeline (concurrent translator threads).
 *
 * A real co-designed VM hides translation overhead by running BBM/SBM
 * translation on spare hardware threads while the guest keeps
 * executing — under IM for a first translation, or under the stale BB
 * translation while its superblock is being built. This module
 * provides the machinery: a bounded queue of TranslationJobs consumed
 * by a pool of background worker threads, and a *virtual-time
 * completion schedule* that decides when each finished region becomes
 * architecturally visible.
 *
 * Determinism contract. Simulated results must not depend on the host
 * machine, the worker count, or scheduling luck, so the pipeline
 * splits wall clock from virtual time:
 *
 *  - Workers run only the *pure* part of a translation (frontend
 *    build, optimization passes, scheduling, verification, register
 *    allocation) from inputs frozen at enqueue time. The artifact is
 *    a deterministic function of those inputs no matter which thread
 *    computes it or when.
 *  - The publish point is virtual: a job completes at
 *    `enqueuedAt + ceil(estCost / (tol.async.rate * tol.async.vthreads))`
 *    retired guest instructions, where estCost is the cost model's
 *    enqueue-time latency estimate. takeDue() hands jobs back in
 *    (completesAt, seq) order; it *blocks* (wall clock only) when a
 *    due job's worker has not finished yet.
 *
 * Thus `tol.async.threads` (real workers) only changes how much wall
 * clock the main thread spends waiting; `tol.async.vthreads` (modeled
 * translator threads) is what shortens the virtual completion window.
 *
 * The queue bound is part of the simulated model: full() is computed
 * from enqueue/publish events only (never from worker progress), so
 * backpressure — and the synchronous-translation fallback it forces —
 * is bit-reproducible.
 */

#ifndef DARCO_TOL_ASYNC_HH
#define DARCO_TOL_ASYNC_HH

#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/types.hh"
#include "tol/frontend.hh"
#include "tol/ir.hh"
#include "tol/regalloc.hh"

namespace darco::snapshot
{
class Serializer;
class Deserializer;
} // namespace darco::snapshot

namespace darco::tol
{

/**
 * Construction recipe of a superblock: the exact BB sequence and
 * branch dispositions it was built from, plus the unroll trip check
 * and fall-off exit. Every superblock path is expanded from its recipe
 * (Tol::pathFromRecipe) — for a fresh build, an async job, a
 * checkpoint-restore replay and a restored in-flight job alike — so
 * the rebuilt region is structurally identical to the saved one.
 * Re-deriving the path from profile counters would use their
 * *end-state* values and pick different speculation/unrolling
 * decisions than the original promotion-time build, changing the
 * restored run's host instruction stream (and thus its timing)
 * persistently. A job commits its recipe at publish.
 */
struct SBRecipe
{
    std::optional<TripCheck> trip;
    std::optional<Frontend::EndSpec> end;
    /** (BB entry, terminator BranchDisp; stepWholeBB = all of the
     *  BB's instructions, region then ends via the end spec). */
    std::vector<std::pair<GAddr, u8>> steps;
};
constexpr u8 stepWholeBB = 0xff;

/** The one checkpoint encoding of a recipe (recipe map and in-flight
 *  jobs alike). */
void writeRecipe(snapshot::Serializer &s, const SBRecipe &rc);
/** Inverse of writeRecipe; counts are bounded by the section, so a
 *  lying step count ends in SnapshotError, never an allocation. */
SBRecipe readRecipe(snapshot::Deserializer &d);

/**
 * One translation request: the single form every translation takes,
 * inline or async, fresh or replayed from a checkpoint.
 *
 * Inputs are frozen on the main thread when the job is built; prepare
 * fills the outputs (on a worker, or inline); the main thread consumes
 * them at publish. Nothing here aliases live runtime state, so a job
 * can be prepared on any thread at any wall-clock moment.
 */
struct TranslationJob
{
    RegionMode mode = RegionMode::BB;
    u64 seq = 0;         //!< enqueue order (publish tie-breaker)
    u64 enqueuedAt = 0;  //!< virtual time (retired guest insts)
    u64 completesAt = 0; //!< virtual publish point
    u64 estCost = 0;     //!< modeled translator host instructions
    GAddr entry = 0;

    // Inputs.
    std::vector<PathElem> path;
    /** Frontend trip/end inputs. SB: the construction record,
     *  committed to the recipe map at publish; BB: only `end`. */
    SBRecipe recipe;
    bool specOk = true;   //!< SB: memory speculation allowed

    // Outputs (written by prepare, read at publish).
    Region region;
    Allocation alloc;
    u64 passWork = 0;
    u32 specLoads = 0;
    std::string verifyError;

    bool ready = false; //!< guarded by the translator's mutex
};

/**
 * The background translator pool.
 *
 * Owns the bounded job queue and the worker threads. The prepare
 * callback supplied at construction runs on worker threads and must
 * only read the job's inputs plus immutable configuration. Workers
 * are started lazily on the first enqueue (most configurations never
 * translate asynchronously).
 */
class AsyncTranslator
{
  public:
    using PrepareFn = std::function<void(TranslationJob &)>;

    AsyncTranslator(u32 threads, u32 queue_cap, PrepareFn prepare);
    ~AsyncTranslator();

    AsyncTranslator(const AsyncTranslator &) = delete;
    AsyncTranslator &operator=(const AsyncTranslator &) = delete;

    /**
     * Largest publishable virtual completion point: one below the
     * ~0 idle sentinel of nextDue_. enqueue() clamps completesAt
     * here, so a completion time that saturated or wrapped (enqueue
     * near the end of a very long campaign) can never alias "no job
     * due" and park the publish pump forever.
     */
    static constexpr u64 maxCompletesAt = ~0ull - 1;

    /** Backpressure: unpublished jobs at the queue bound. Depends
     *  only on enqueue/publish history, never on worker progress. */
    bool full() const { return pending_.size() >= cap_; }
    std::size_t pendingCount() const { return pending_.size(); }
    bool
    pendingFor(GAddr entry) const
    {
        return pendingEntries_.count(entry) != 0;
    }

    /** Hand a job to the pool (assigns its seq). */
    void enqueue(std::unique_ptr<TranslationJob> job);

    /**
     * Remove and return every job with completesAt <= vnow, ordered
     * by (completesAt, seq). Blocks — wall clock only — until each
     * returned job's worker has finished preparing it.
     */
    std::vector<std::unique_ptr<TranslationJob>> takeDue(u64 vnow);

    /** Wait until every queued job has been prepared (quiesce before
     *  checkpointing; publishes nothing). */
    void drain();

    /** Iterate in-flight jobs in seq order (checkpoint serialization;
     *  call drain() first so workers are not writing outputs). */
    void
    forEachPending(const std::function<void(const TranslationJob &)> &fn)
        const
    {
        for (const auto &j : pending_)
            fn(*j);
    }

  private:
    void workerLoop();
    void startWorkers();

    PrepareFn prepare_;
    u32 nthreads_;
    std::size_t cap_;

    mutable std::mutex mu_;       //!< guards work_, ready flags, stop_
    std::condition_variable cv_;  //!< worker wake-up
    std::condition_variable doneCv_; //!< main-thread wait for ready
    std::deque<TranslationJob *> work_;
    bool stop_ = false;

    /** In-flight jobs in seq order. Owned and mutated (push/pop) by
     *  the main thread only; workers reach jobs through work_. */
    std::vector<std::unique_ptr<TranslationJob>> pending_;
    /** entry -> in-flight job count (O(1) pendingFor on the
     *  interpreter's promotion-trigger path). */
    std::unordered_map<GAddr, u32> pendingEntries_;
    /** Earliest completesAt among pending jobs (~0 when none): makes
     *  the dispatch loop's publish pump a single compare. */
    u64 nextDue_ = ~0ull;
    std::vector<std::thread> threads_;
    u64 seq_ = 0;
};

} // namespace darco::tol

#endif // DARCO_TOL_ASYNC_HH

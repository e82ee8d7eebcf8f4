/**
 * @file
 * Distributed campaign service: coordinator + worker fleet.
 *
 * Scales the campaign engine past one process: a long-lived
 * Coordinator owns the expanded job matrix and shards it over TCP to
 * any number of worker processes (darco_campaign --worker), which run
 * each job through exactly the same runJob path as a local campaign —
 * so distributed result rows and stats are byte-identical to local
 * ones (provenance columns aside).
 *
 * Robustness is structural, not best-effort:
 *
 *  - Registration + heartbeats. A worker introduces itself (hello →
 *    welcome) and pings at the interval the welcome carries (1 s)
 *    while executing.
 *    A worker silent for `deadAfterMs` — or whose connection drops —
 *    is declared dead and its in-flight job returns to the queue.
 *
 *  - Per-job leases. Every assignment carries a deadline
 *    (assign time + leaseMs, NOT renewed by heartbeats: a live worker
 *    stuck in a pathological job must not pin it forever). On expiry
 *    the job is reassigned; a late result from the original worker is
 *    accepted if it still arrives first, and dropped as a duplicate
 *    otherwise — completion is recorded exactly once per job.
 *
 *  - Dispatch in submission order. A worker asking for work gets the
 *    first job that is neither done nor leased; when every remaining
 *    job is leased it is told to wait and ask again.
 *
 *  - Campaign manifest. With a manifest path configured, the
 *    coordinator journals one framed record per completed job
 *    (flushed before the row is emitted). A restarted coordinator
 *    replays the journal — validating that it belongs to this exact
 *    campaign via a content hash, and discarding a torn tail from a
 *    mid-write crash — re-emits the recorded rows, and only runs the
 *    remainder.
 *
 *  - Content-addressed checkpoint store. With a CheckpointStore
 *    configured (darco_campaign --serve --checkpoint-dir D serves a
 *    DirStore), workers fetch-or-compute every checkpoint image —
 *    functional prefixes and per-simpoint images alike — over the
 *    wire (images are host-agnostic, so heterogeneous workers share
 *    them). The served store validates keys and writes atomically,
 *    so hostile keys and racing publishers never escape or tear an
 *    entry. Without one, workers cache nothing.
 *
 * Result rows stream to the onRow callback incrementally, strictly in
 * job-submission order (identical to local runCampaign report order).
 */

#ifndef DARCO_CAMPAIGN_SERVICE_HH
#define DARCO_CAMPAIGN_SERVICE_HH

#include <memory>

#include "campaign/campaign.hh"
#include "common/types.hh"

namespace darco::campaign
{

/** Coordinator configuration. */
struct ServiceOptions
{
    /** Bind address; default loopback only (opt into exposure). */
    std::string bind = "127.0.0.1";
    /** Listen port; 0 picks an ephemeral port (see Coordinator::port). */
    u16 port = 0;

    /**
     * Campaign manifest journal; empty disables resume. The file is
     * created on first run and replayed on restart; resuming with a
     * manifest recorded for a *different* campaign (any change to the
     * job list, to any job's effective config, timing, power and
     * validation keys included, or to the run options) is refused.
     */
    std::string manifestPath;

    /**
     * Checkpoint store served to workers over ckpt.get/ckpt.put;
     * null serves none, and workers then cache nothing. Called from
     * every connection thread. Not owned; must outlive the
     * Coordinator.
     */
    CheckpointStore *store = nullptr;

    /** Per-job lease; an assignment older than this is reassigned. */
    u64 leaseMs = 5 * 60 * 1000;
    /** A worker silent this long is dead (covers lost heartbeats). */
    u64 deadAfterMs = 10 * 1000;
    /** Delay carried by `wait` replies when nothing is runnable. */
    u64 waitDelayMs = 200;

    /**
     * Campaign-level execution knobs forwarded to every worker
     * (timing, sample mode/parameters). Local-only fields (jobs,
     * traceDir, store) are ignored here.
     */
    RunOptions run;

    /**
     * Invoked once per job, strictly in submission order, as soon as
     * the row becomes emittable (manifest-resumed rows replay through
     * it too). Called on an internal thread with internal locks held:
     * keep it fast and do not call back into the Coordinator.
     */
    std::function<void(std::size_t index, const JobResult &r)> onRow;
};

/**
 * The campaign coordinator. Construction binds the listener, replays
 * the manifest (when configured), and starts serving; wait() blocks
 * until every job has completed and returns the full campaign result
 * in submission order.
 */
class Coordinator
{
  public:
    Coordinator(std::vector<Job> jobs, ServiceOptions opts);
    ~Coordinator();

    Coordinator(const Coordinator &) = delete;
    Coordinator &operator=(const Coordinator &) = delete;

    /** The bound port (useful with ServiceOptions::port == 0). */
    u16 port() const;

    /**
     * Block until the campaign completes (or stop() abandons it),
     * shut the service down, and return all results. After a stop()
     * the result holds only the completed prefix semantics — callers
     * resume via the manifest instead of consuming it.
     */
    CampaignResult wait();

    /**
     * Abandon the campaign: stop accepting, wake every connection.
     * Safe to call from any thread, including the onRow callback
     * (threads are joined later, in wait()/the destructor). The
     * manifest keeps everything completed so far.
     */
    void stop();

    // --- introspection (tests, daemon status line) -------------------
    std::size_t totalJobs() const;
    std::size_t completedJobs() const;
    /** Jobs returned to the queue after lease expiry / worker death. */
    u64 reassignments() const;
    /** Results dropped because the job had already completed. */
    u64 duplicateResults() const;
    /** `wait` replies issued (backpressure + idle workers). */
    u64 waitsIssued() const;
    /** Jobs restored from the manifest instead of re-running. */
    std::size_t resumedFromManifest() const;
    /** Workers that ever registered. */
    u64 workersSeen() const;

  private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

/** Worker-process configuration. */
struct WorkerOptions
{
    std::string host = "127.0.0.1";
    u16 port = 0;
    /** Advisory name; the coordinator may assign its own. */
    std::string workerId;
};

/**
 * Run one worker: connect, register, then execute assigned jobs until
 * the coordinator says shutdown. Heartbeats run on a background
 * thread for the whole session.
 *
 * @return 0 on an orderly shutdown, 1 when the connection was lost or
 *         could not be established.
 */
int runWorker(const WorkerOptions &opts);

} // namespace darco::campaign

#endif // DARCO_CAMPAIGN_SERVICE_HH

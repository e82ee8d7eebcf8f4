/**
 * @file
 * Parallel experiment-campaign engine.
 *
 * The paper's evaluation is a large workload×config matrix (Fig. 4-7,
 * the ablations, the warm-up study): dozens of independent simulations
 * that today run one after another. This subsystem executes such a
 * matrix on a work-stealing thread pool with one fully isolated
 * Controller per job (the library keeps no global mutable state), and
 * aggregates every job's stats into a CSV/JSON report.
 *
 * Checkpoint integration: a job may declare a `skip` prefix of guest
 * instructions. The state at the end of that prefix is saved through
 * Controller::saveCheckpoint and the job measures its controller
 * restored from those bytes, with or without a store, so its row does
 * not depend on the cache (a restore rebuilds the whole controller,
 * stats included, from the image). With a CheckpointStore configured,
 * the image is published under the job's content key (jobKeyString),
 * and any later job with the same execution identity restores it
 * instead of re-simulating the prefix. The store is the campaign's
 * only checkpoint cache:
 * DirStore keeps it in a local directory, and the campaign service
 * serves any store to its workers over the wire.
 *
 * Timing/power: every job attaches the detailed timing model
 * (timing::InOrderCore) and the power model over its measured region
 * (everything after the skip prefix), so reports carry cycles, IPC,
 * energy and average power for all run modes. RunOptions::timing
 * turns this off for functional-only campaigns.
 *
 * Sampled runs (SampleMode::SimPoint) replace the full detailed run
 * with the SimPoint pipeline (src/sampling/simpoint.hh): a functional
 * BBV-profiling pass, seeded k-means phase selection, then detailed
 * timing/power only over each representative interval, fast-forwarded
 * through per-simpoint checkpoints (published to the store under
 * simpointKey on first use, restored afterwards). The reported
 * cycles/energy are weight-combined whole-program estimates; results
 * are byte-identical across worker counts and checkpoint-cache
 * states, torn entries included, because an image holds functional
 * state only. Each sampled row carries its plan (JobResult::plan);
 * with RunOptions::timing off the job stops after the plan.
 *
 * Report schema (the column order is stable and covered by a
 * regression test; new columns are only ever appended *within* their
 * group, never reordered):
 *
 *   CSV:  workload,config,ok,finished,exit_code,insts,bbs,
 *         cycles,ipc,energy_j,avg_w,
 *         sample_mode,simpoints,sampled_insts,
 *         <stat columns: tol.guest_im,tol.guest_bbm,tol.guest_sbm,
 *          tol.translations_bb,tol.translations_sb,cc.evictions,
 *          cc.flushes,sync.syscalls>,
 *         effective_config,checkpoint,error,worker,wall_ms
 *
 * The two trailing columns are *provenance*, not simulation results:
 * `worker` names the campaign-service worker that ran the job (empty
 * in local mode) and `wall_ms` is the job's host wall clock. Tools
 * comparing reports for byte-identity strip them (everything up to
 * and including `error` is deterministic).
 *
 *   JSON: an array of objects with the same fields in the same order
 *         ("stats" is a nested object over the stat columns;
 *         "effective_config" is a nested object too), plus
 *         "stats_full": the job's whole stats record (statsJson) —
 *         every counter, not just the stable stat columns (null for
 *         a job that failed before its record was taken) — and, in
 *         sampled rows only, "simpoint_plan": {"interval",
 *         "total_insts", "k", "bic", "bic_sweep": [{"k", "bic"}],
 *         "points": [{"interval_index", "start_inst", "cluster",
 *         "weight"}], "assignment": [cluster per interval]} (null
 *         for a job that failed before its plan). BIC values carry
 *         1 decimal and weights 4. Rows whose effective config has
 *         tol.verify=true then carry "proofs": {"proved", "refuted",
 *         "unknown"} (null for a job that failed before any proof).
 *
 * Translation proofs: a job run with tol.verify=true reports the
 * verdicts of its traced controller (JobResult::proved/refuted/
 * unknown), taken after the row's other fields. A refuted or unknown
 * proof fails the job, and its error cell names each such proof.
 *
 * effective_config is the job's full default-resolved configuration
 * (every schema parameter mapped to its canonical value, see
 * docs/CONFIG.md), rendered as semicolon-joined key=value pairs in
 * the CSV — a row is reproducible from the report alone, without
 * knowing which build defaults it ran against. Job configs are
 * schema-validated when the matrix is expanded: a misspelled or
 * out-of-range key fails fast (with a did-you-mean suggestion), not
 * after hours of simulation.
 *
 * The pool itself is generic (std::function tasks), so other drivers
 * — darco_fuzz --jobs N — reuse it for their own fan-out.
 */

#ifndef DARCO_CAMPAIGN_CAMPAIGN_HH
#define DARCO_CAMPAIGN_CAMPAIGN_HH

#include <deque>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/config.hh"
#include "guest/program.hh"
#include "sampling/simpoint.hh"

namespace darco::campaign
{

/**
 * Work-stealing thread pool. Tasks are dealt round-robin onto
 * per-worker deques; each worker drains its own deque LIFO and steals
 * FIFO from the others when empty. run() blocks until every task has
 * finished. Tasks must not throw (wrap and capture failures).
 *
 * workers == 1 executes inline on the calling thread, so a serial
 * campaign is exactly a plain loop (byte-identical results is the
 * contract the tests pin down).
 */
class Pool
{
  public:
    explicit Pool(unsigned workers);

    unsigned workers() const { return workers_; }

    /** Execute all tasks; returns when the last one completes. */
    void run(std::vector<std::function<void()>> tasks);

  private:
    unsigned workers_;
};

/** One cell of the campaign matrix. */
struct Job
{
    std::string workload;   //!< workload display name
    std::string configName; //!< config-variant display name
    guest::Program program;
    Config config;          //!< full effective Config for the run
    u64 maxInsts = ~0ull;   //!< total guest-instruction budget
    u64 skip = 0;           //!< checkpointable fast-forward prefix
};

/**
 * How a job's detailed (timing/power) measurement is obtained.
 * SimPoint mode picks its own measurement regions over the whole
 * run, so it rejects jobs with a skip prefix (the job fails with a
 * clear error instead of silently measuring a different region than
 * a full-mode row of the same matrix).
 */
enum class SampleMode
{
    Full,     //!< detailed models over the whole measured region
    SimPoint, //!< BBV profile + k-means + per-simpoint measurement
};

/** Per-job outcome + stats snapshot. */
struct JobResult
{
    std::string workload;
    std::string configName;
    bool ok = false;
    std::string error;
    u32 exitCode = 0;
    u64 insts = 0; //!< retired guest instructions
    u64 bbs = 0;   //!< retired dynamic basic blocks
    bool finished = false;
    bool checkpointHit = false;    //!< prefix restored from cache
    bool checkpointStored = false; //!< prefix saved to cache
    double wallMs = 0;             //!< per-job wall clock (not compared)

    /**
     * Campaign-service worker that executed the job; empty when the
     * job ran in-process (local runCampaign). Provenance only — never
     * part of byte-identity comparisons.
     */
    std::string workerId;

    // Timing/power over the measured region. In sampled mode these
    // are weight-combined whole-program *estimates*; in full mode,
    // direct measurements. Zero when RunOptions::timing is off.
    double cycles = 0;   //!< total (estimated) core cycles
    double ipc = 0;      //!< host-instruction IPC
    double energyJ = 0;  //!< total (estimated) energy, joules
    double avgPowerW = 0;

    std::string sampleMode = "full"; //!< "full" | "simpoint"
    u64 sampledInsts = 0;  //!< guest insts under the detailed models

    /**
     * A sampled job's SimPoint plan (sampling/simpoint.hh stages
     * 1-4); empty (interval 0) in full mode and for a sampled job
     * that failed before it. The `simpoints` report cell is its
     * point count.
     */
    sampling::SimPointResult plan;

    /**
     * Translation-proof verdicts (tol.verify) of the job's traced
     * controller: the measured one in full mode, the profile pass in
     * sampled mode. Zero with proofs off.
     */
    u64 proved = 0;
    u64 refuted = 0;
    u64 unknown = 0;

    /**
     * The job's stats record: every counter of its Controller at the
     * end of the run (the profiling run in sampled mode); empty when
     * the job failed before it. Reports render it with statsJson.
     */
    std::map<std::string, u64> stats;

    /**
     * The full effective (default-resolved, schema-normalized)
     * config the job ran under; populated for failed jobs too.
     */
    std::map<std::string, std::string> effectiveConfig;
};

/**
 * Content-addressed checkpoint store interface: the campaign's one
 * checkpoint cache. Keys are bare lowercase hex hashes of an image's
 * execution identity — jobKeyString for a job's functional prefix,
 * simpointKey for a sampled job's per-simpoint image — so any two
 * jobs with identical execution-relevant identity (across processes
 * and hosts, since checkpoints are host-agnostic) share one image.
 * DirStore keeps images in a directory; the campaign service's
 * workers reach the coordinator's store over the wire; tests and
 * perfbench keep them in memory. runCampaign calls one store from
 * every pool worker, and the coordinator from every connection, so
 * implementations must be thread-safe.
 */
class CheckpointStore
{
  public:
    virtual ~CheckpointStore() = default;

    /**
     * Look up an image.
     * @return true (with *image filled) on a hit. A returned image is
     *         complete but not necessarily valid: callers treat a
     *         failing restore as a miss.
     */
    virtual bool fetch(const std::string &key, std::string *image) = 0;

    /** Publish a computed image (last complete write wins). */
    virtual void store(const std::string &key,
                       const std::string &image) = 0;
};

/**
 * Directory-backed CheckpointStore: the image for key K is
 * `<dir>/K.ckpt`. Keys arrive over the wire when a coordinator serves
 * this store, so a key that is not 1-16 lowercase hex digits misses
 * on fetch and is never written. A write goes to an exclusively
 * created temp file named with the pid and thread id, then renames
 * into place, so concurrent writers in the same or different
 * processes never tear an image. A failed write is reported with
 * warn() and the job continues. The directory is created on the first
 * write.
 */
class DirStore : public CheckpointStore
{
  public:
    explicit DirStore(std::string dir) : dir_(std::move(dir)) {}

    bool fetch(const std::string &key, std::string *image) override;
    void store(const std::string &key, const std::string &image) override;

  private:
    std::string dir_;
};

/** Execution knobs. */
struct RunOptions
{
    unsigned jobs = 1;
    /**
     * The checkpoint cache: prefix images of jobs with a skip, and
     * per-simpoint images in sampled mode. Null runs uncached. Not
     * owned; must outlive the run.
     */
    CheckpointStore *store = nullptr;
    /**
     * Directory for per-job observability outputs; empty disables.
     * Every job gets `<workload>-<config>.trace.json` (Chrome trace
     * events) and `<workload>-<config>.metrics.jsonl` (interval
     * metrics) unless the job config already sets its own obs.*
     * paths. They cover one controller: the measured one in full
     * mode, the profile pass (whose counters are the job's stats) in
     * sampled mode. The job's other controllers run untraced.
     */
    std::string traceDir;
    /** Attach the timing + power models (cycles/ipc/energy columns). */
    bool timing = true;
    /** Full detailed run vs SimPoint-sampled estimation. */
    SampleMode sampleMode = SampleMode::Full;
    /** BBV interval and clustering knobs (sampled mode only). */
    sampling::SimPointOptions simpoint;
    /**
     * Detailed (timing-model) warm-up ahead of each measured window:
     * the core model is attached `sampleWarmup` guest instructions
     * before the sample start and the window is measured as counter
     * deltas, so cold caches / predictor state land in the warm-up,
     * not the estimate. The software-layer (translation) state needs
     * no such warm-up — the functional fast-forward runs through the
     * Tol, so translations are naturally warm (cf. the Section VI-E
     * methodology in sampling/warmup.hh, which exists because
     * *checkpoint-free* sampling lacks exactly this property).
     */
    u64 sampleWarmup = 25'000;
};

/** Whole-campaign outcome. */
struct CampaignResult
{
    std::vector<JobResult> results; //!< in job-submission order
    double wallMs = 0;
    u64 checkpointHits = 0;
    u64 checkpointMisses = 0;

    /** results as CSV (header + one row per job, stable column set). */
    std::string csv() const;
    /** results as a JSON array of objects. */
    std::string json() const;

    /**
     * The exact CSV header line (no trailing newline). Pinned by a
     * regression test: treat any change as a report-schema break.
     */
    static std::string csvHeader();
};

/**
 * Run every job (isolated Controller each) on `opts.jobs` workers.
 * Results are independent of the worker count and of scheduling
 * order: results[i] always corresponds to jobs[i].
 */
CampaignResult runCampaign(const std::vector<Job> &jobs,
                           const RunOptions &opts);

/**
 * Expand a workload×config matrix into jobs (row-major: all configs
 * of workload 0, then workload 1, ...). Every config is validated
 * against the parameter schema up front: unknown keys (with a
 * nearest-match suggestion), out-of-range values and bad enum
 * strings raise FatalError before any job runs.
 */
std::vector<Job>
expandMatrix(const std::vector<std::pair<std::string,
                                         guest::Program>> &workloads,
             const std::vector<std::pair<std::string, Config>> &configs,
             u64 max_insts, u64 skip);

/**
 * The config preset names, in their one order: interp, noopt,
 * fullopt, tinycc, async. darco_campaign's --list and usage and the
 * differential fuzzer's matrix (fuzz::defaultMatrix) all read it.
 */
const std::vector<std::string> &presetNames();

/**
 * The "key=value" overrides of one named preset (see presetNames);
 * fatal() on any other name. The one preset table: presetConfigs and
 * fuzz::defaultMatrix both build from it.
 */
std::vector<std::string> presetOverrides(const std::string &name);

/**
 * Named config presets for campaign matrices (see presetOverrides),
 * at production promotion thresholds, with `extra` applied on top.
 */
std::vector<std::pair<std::string, Config>>
presetConfigs(const std::vector<std::string> &names,
              const std::vector<std::string> &extra = {});

/**
 * Execute one job in-process with an isolated Controller. This is the
 * single job-execution path: local runCampaign and campaign-service
 * workers both funnel through it, which is what makes distributed
 * results byte-identical to local ones.
 */
JobResult runJob(const Job &job, const RunOptions &opts);

/**
 * FNV-1a over the job's execution-relevant identity: program bytes,
 * schema-normalized execution-relevant config, and skip prefix.
 * Cosmetically different jobs (validation toggles, obs/timing params)
 * hash equal, so they share checkpoint-store entries.
 */
u64 jobKeyHash(const Job &job);

/** jobKeyHash as the canonical hex store key of the prefix image. */
std::string jobKeyString(const Job &job);

/**
 * The store key of one per-simpoint image of a sampled job: FNV-1a
 * continued from jobKeyHash over the sampling interval, the timing
 * warm-up length (the saved position is start - warmup) and the
 * simpoint's interval index, as bare lowercase hex.
 */
std::string simpointKey(const Job &job, u64 interval, u64 warmup,
                        u32 interval_index);

/** One job's CSV report row (no trailing newline). */
std::string csvRow(const JobResult &r);

/**
 * The job's stats record as the bytes StatGroup::dumpJson writes for
 * its Controller, or "null" when it has none: "stats_full" in the
 * JSON report and darco_campaign --stats-json.
 */
std::string statsJson(const JobResult &r);

} // namespace darco::campaign

#endif // DARCO_CAMPAIGN_CAMPAIGN_HH

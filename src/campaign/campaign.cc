#include "campaign/campaign.hh"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>

#include <fcntl.h>
#include <unistd.h>

#include "common/logging.hh"
#include "common/schema.hh"
#include "power/power.hh"
#include "sampling/simpoint.hh"
#include "sim/controller.hh"
#include "snapshot/io.hh"
#include "timing/core.hh"
#include "verify/verifier.hh"

namespace darco::campaign
{

// ---------------------------------------------------------------------
// Pool
// ---------------------------------------------------------------------

Pool::Pool(unsigned workers) : workers_(workers ? workers : 1) {}

namespace
{

/** Shared state of one Pool::run() invocation. */
struct PoolRun
{
    std::vector<std::deque<std::function<void()>>> queues;
    std::vector<std::unique_ptr<std::mutex>> locks;

    explicit PoolRun(unsigned n) : queues(n)
    {
        for (unsigned i = 0; i < n; ++i)
            locks.push_back(std::make_unique<std::mutex>());
    }

    /** Pop from own deque (LIFO) or steal from a victim (FIFO). */
    bool
    take(unsigned self, std::function<void()> &out)
    {
        {
            std::lock_guard<std::mutex> g(*locks[self]);
            if (!queues[self].empty()) {
                out = std::move(queues[self].back());
                queues[self].pop_back();
                return true;
            }
        }
        for (unsigned k = 1; k < queues.size(); ++k) {
            unsigned victim = (self + k) % queues.size();
            std::lock_guard<std::mutex> g(*locks[victim]);
            if (!queues[victim].empty()) {
                out = std::move(queues[victim].front());
                queues[victim].pop_front();
                return true;
            }
        }
        return false;
    }
};

} // namespace

void
Pool::run(std::vector<std::function<void()>> tasks)
{
    if (tasks.empty())
        return;
    if (workers_ == 1) {
        for (auto &t : tasks)
            t();
        return;
    }

    unsigned n = std::min<unsigned>(workers_, unsigned(tasks.size()));
    PoolRun state(n);
    for (std::size_t i = 0; i < tasks.size(); ++i)
        state.queues[i % n].push_back(std::move(tasks[i]));

    auto worker = [&state](unsigned self) {
        std::function<void()> task;
        while (state.take(self, task))
            task();
    };

    std::vector<std::thread> threads;
    threads.reserve(n - 1);
    for (unsigned i = 1; i < n; ++i)
        threads.emplace_back(worker, i);
    worker(0);
    for (auto &t : threads)
        t.join();
}

// ---------------------------------------------------------------------
// Matrix expansion & presets
// ---------------------------------------------------------------------

std::vector<Job>
expandMatrix(const std::vector<std::pair<std::string,
                                         guest::Program>> &workloads,
             const std::vector<std::pair<std::string, Config>> &configs,
             u64 max_insts, u64 skip)
{
    // Fail the whole campaign now, naming the offending variant, so
    // a typo'd sweep key can never burn a matrix worth of simulation
    // on the default experiment.
    for (const auto &[cname, cfg] : configs)
        conf::schema().validate(cfg, "campaign config '" + cname + "'");

    std::vector<Job> jobs;
    jobs.reserve(workloads.size() * configs.size());
    for (const auto &[wname, prog] : workloads) {
        for (const auto &[cname, cfg] : configs) {
            Job j;
            j.workload = wname;
            j.configName = cname;
            j.program = prog;
            j.config = cfg;
            j.maxInsts = max_insts;
            j.skip = skip;
            jobs.push_back(std::move(j));
        }
    }
    return jobs;
}

namespace
{

/** One named config preset. */
struct Preset
{
    std::string name;
    std::vector<std::string> overrides;
};

const std::vector<Preset> &
presets()
{
    static const std::vector<Preset> table = {
        {"interp", {"tol.enable_bbm=false", "tol.enable_sbm=false"}},
        {"noopt",
         {"tol.opt=false", "tol.sched=false", "tol.spec_mem=false",
          "tol.unroll=false", "tol.fuse_flags=false",
          "tol.chaining=false"}},
        {"fullopt", {}}, // defaults
        // Region sizes are bounded (tol.max_sb_insts) well below the
        // capacity, so the pressure produces evictions, never a
        // region-exceeds-cache panic.
        {"tinycc",
         {"cc.capacity_words=768", "cc.policy=evict",
          "tol.max_sb_insts=120"}},
        {"async", {"tol.async.threads=2", "tol.async.vthreads=2"}},
    };
    return table;
}

} // namespace

const std::vector<std::string> &
presetNames()
{
    static const std::vector<std::string> names = [] {
        std::vector<std::string> out;
        for (const Preset &p : presets())
            out.push_back(p.name);
        return out;
    }();
    return names;
}

std::vector<std::string>
presetOverrides(const std::string &name)
{
    std::string expected;
    for (const Preset &p : presets()) {
        if (p.name == name)
            return p.overrides;
        expected += (expected.empty() ? "" : "|") + p.name;
    }
    fatal("unknown config preset '", name, "' (expected ", expected,
          ")");
}

std::vector<std::pair<std::string, Config>>
presetConfigs(const std::vector<std::string> &names,
              const std::vector<std::string> &extra)
{
    std::vector<std::pair<std::string, Config>> out;
    for (const std::string &name : names) {
        Config cfg;
        for (const std::string &kv : presetOverrides(name))
            cfg.parseLine(kv);
        for (const std::string &kv : extra)
            cfg.parseLine(kv);
        out.emplace_back(name, std::move(cfg));
    }
    return out;
}

// ---------------------------------------------------------------------
// Checkpoint store
// ---------------------------------------------------------------------

namespace
{

/** Continue an FNV-1a hash over `len` bytes. */
u64
fnvMix(u64 h, const void *data, std::size_t len)
{
    const u8 *p = static_cast<const u8 *>(data);
    for (std::size_t i = 0; i < len; ++i) {
        h ^= p[i];
        h *= 0x100000001b3ull;
    }
    return h;
}

std::string
hexKey(u64 h)
{
    std::ostringstream os;
    os << std::hex << h;
    return os.str();
}

/** A store key is a bare hex hash — anything else is path traversal. */
bool
validStoreKey(const std::string &key)
{
    if (key.empty() || key.size() > 16)
        return false;
    for (char c : key)
        if (!std::isxdigit(u8(c)) || std::isupper(u8(c)))
            return false;
    return true;
}

/**
 * Store `image` at `path` (inside `dir`, which is created if needed):
 * the image goes to an exclusively-created temp file, then renames
 * into place, so a reader (or a racing writer's rename) only ever
 * observes a complete image. @return true when stored.
 */
bool
writeAtomically(const std::string &dir, const std::string &path,
                const std::string &image)
{
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    // Temp name carries pid *and* thread id: a thread-id hash alone
    // collides across processes (and can repeat after a thread
    // exits), letting two writers interleave into one temp file and
    // rename a torn image into place. O_EXCL makes any remaining
    // collision (e.g. a stale temp from a crashed run) fail the
    // create instead of silently appending to another writer's file.
    std::string base =
        path + ".tmp." + std::to_string(::getpid()) + "." +
        std::to_string(
            std::hash<std::thread::id>{}(std::this_thread::get_id()));
    std::string tmp;
    int fd = -1;
    for (unsigned attempt = 0; attempt < 16 && fd < 0; ++attempt) {
        tmp = attempt == 0 ? base
                           : base + "." + std::to_string(attempt);
        fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_EXCL, 0644);
        if (fd < 0 && errno != EEXIST)
            return false;
    }
    if (fd < 0)
        return false;
    bool written = true;
    const char *pos = image.data();
    std::size_t left = image.size();
    while (left > 0) {
        ssize_t n = ::write(fd, pos, left);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            written = false;
            break;
        }
        pos += n;
        left -= std::size_t(n);
    }
    if (::close(fd) != 0)
        written = false;
    bool stored = false;
    if (written) {
        std::filesystem::rename(tmp, path, ec);
        stored = !ec;
    }
    if (!stored)
        std::filesystem::remove(tmp, ec);
    return stored;
}

} // namespace

/**
 * FNV-1a over the job identity (program bytes, config, skip). The
 * config contribution is the schema-normalized execution-relevant
 * effective map, so jobs differing only cosmetically (validation
 * toggles, timing/power parameters) share one functional-prefix
 * checkpoint — matching what restoreCheckpoint accepts.
 */
u64
jobKeyHash(const Job &job)
{
    u64 h = 0xcbf29ce484222325ull;
    auto mixStr = [&h](const std::string &s) {
        h = fnvMix(h, s.data(), s.size());
        h = fnvMix(h, "\0", 1);
    };
    mixStr(job.program.name);
    h = fnvMix(h, job.program.code.data(), job.program.code.size());
    h = fnvMix(h, job.program.data.data(), job.program.data.size());
    h = fnvMix(h, &job.program.entry, sizeof(job.program.entry));
    for (const auto &[k, v] : conf::schema().executionRelevant(job.config)) {
        mixStr(k);
        mixStr(v);
    }
    return fnvMix(h, &job.skip, sizeof(job.skip));
}

std::string
jobKeyString(const Job &job)
{
    return hexKey(jobKeyHash(job));
}

std::string
simpointKey(const Job &job, u64 interval, u64 warmup, u32 interval_index)
{
    u64 h = jobKeyHash(job);
    h = fnvMix(h, &interval, sizeof(interval));
    h = fnvMix(h, &warmup, sizeof(warmup));
    return hexKey(fnvMix(h, &interval_index, sizeof(interval_index)));
}

bool
DirStore::fetch(const std::string &key, std::string *image)
{
    if (!validStoreKey(key))
        return false;
    std::ifstream in(dir_ + '/' + key + ".ckpt", std::ios::binary);
    if (!in)
        return false;
    std::ostringstream buf;
    buf << in.rdbuf();
    *image = buf.str();
    return true;
}

void
DirStore::store(const std::string &key, const std::string &image)
{
    if (!validStoreKey(key))
        return;
    const std::string path = dir_ + '/' + key + ".ckpt";
    if (!writeAtomically(dir_, path, image))
        warn("checkpoint store: cannot write '", path, "'");
}

// ---------------------------------------------------------------------
// Job execution
// ---------------------------------------------------------------------

namespace
{

/** File names must survive workload names like "400.perlbench". */
std::string
sanitize(const std::string &s)
{
    std::string out;
    for (char c : s)
        out += (std::isalnum(u8(c)) || c == '.' || c == '-') ? c : '_';
    return out;
}

/**
 * The config of the job's one traced controller: with a trace
 * directory, the (cosmetic, so checkpoint-compatible) obs.* paths of
 * the job's files, unless the job config already names its own.
 */
Config
tracedConfig(const Job &job, const RunOptions &opts)
{
    Config cfg = job.config;
    if (!opts.traceDir.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(opts.traceDir, ec);
        std::string base = opts.traceDir + '/' +
                           sanitize(job.workload) + '-' +
                           sanitize(job.configName);
        if (conf::getString(cfg, "obs.trace.path").empty())
            cfg.set("obs.trace.path", base + ".trace.json");
        if (conf::getString(cfg, "obs.metrics.path").empty())
            cfg.set("obs.metrics.path", base + ".metrics.jsonl");
    }
    return cfg;
}

/** Label the traced controller's outputs `<workload>/<config>`. */
void
labelTrace(sim::Controller &ctl, const Job &job)
{
    if (ctl.obsSession())
        ctl.obsSession()->setJobLabel(job.workload + "/" +
                                      job.configName);
}

/**
 * The job's config with both obs.* paths and tol.verify cleared, for
 * its other controllers, so that the traced one alone writes the
 * job's trace and metrics files and proves its translations; all
 * three keys are cosmetic, so images are the same.
 */
Config
untraced(const Job &job)
{
    Config cfg = job.config;
    cfg.set("obs.trace.path", std::string());
    cfg.set("obs.metrics.path", std::string());
    cfg.set("tol.verify", false);
    return cfg;
}

/** Fail the job for `why`, after any error it already has. */
void
failJob(JobResult &r, const std::string &why)
{
    r.ok = false;
    r.error += (r.error.empty() ? "" : "\n") + why;
}

/**
 * The proof pass of a job's traced controller `ctl` (null when the
 * job failed before building it), run once the row has been read:
 * with tol.verify on, Tol::verifyFinal publishes and proves the async
 * jobs that are due, which the row must not see, and the verdicts go
 * into `r`. @return why the proofs fail the job, "" when they do not:
 * an aborted pass, then the summary and every refuted or unknown
 * proof with its witness.
 */
std::string
proveJob(JobResult &r, sim::Controller *ctl)
{
    if (!ctl || !ctl->loaded() || !ctl->tol().verifyEnabled())
        return "";
    std::string why;
    try {
        ctl->tol().verifyFinal();
    } catch (const std::exception &e) {
        why = std::string("proof pass aborted: ") + e.what();
    }
    const verify::VerifyReport &rep = ctl->tol().verifyReport();
    r.proved = rep.proved;
    r.refuted = rep.refuted;
    r.unknown = rep.unknown;
    if (rep.clean())
        return why;
    why += (why.empty() ? "proofs: " : "\nproofs: ") + rep.summary();
    for (const verify::VerifyResult &v : rep.results) {
        if (v.verdict == verify::Verdict::Proved)
            continue;
        char head[64];
        std::snprintf(head, sizeof(head), "\n%s %s @%08x (tid %u): ",
                      v.verdict == verify::Verdict::Refuted ? "REFUTED"
                                                            : "UNKNOWN",
                      v.mode == tol::RegionMode::BB ? "BB" : "SB",
                      v.entry, v.tid);
        why += head + v.detail;
        if (!v.witness.empty())
            why += "\n    " + v.witness;
    }
    return why;
}

/**
 * The one fetch-or-compute rule for checkpoint images, prefix and
 * per-simpoint alike. Fetch `key` from `store` and hand the bytes to
 * `restore`; a hit needs nothing else. A restore that throws
 * SnapshotError (a torn or stale entry) counts as a miss. On a miss
 * (or without a store), `compute(torn)` brings a controller to the
 * image's position — `torn` says a failed restore may have left it
 * half-restored — and returns its saved bytes; they are published,
 * and the controller is then restored from them, so the measured
 * state is the same whether the image was fetched or computed.
 * @return the bytes that `restore` accepted.
 */
std::string
fetchOrCompute(CheckpointStore *store, const std::string &key,
               JobResult &r,
               const std::function<void(const std::string &)> &restore,
               const std::function<std::string(bool torn)> &compute)
{
    std::string image;
    bool torn = false;
    if (store && store->fetch(key, &image)) {
        try {
            restore(image);
            r.checkpointHit = true;
            return image;
        } catch (const snapshot::SnapshotError &) {
            torn = true; // recompute, then overwrite the entry
        }
    }
    image = compute(torn);
    if (store) {
        store->store(key, image);
        r.checkpointStored = true;
    }
    restore(image);
    return image;
}

std::string
saveImage(sim::Controller &ctl)
{
    std::ostringstream os;
    ctl.saveCheckpoint(os);
    return os.str();
}

void
restoreImage(sim::Controller &ctl, const std::string &image)
{
    std::istringstream is(image);
    ctl.restoreCheckpoint(is);
}

/** Fill the timing/power result fields from a measured window. */
void
fillTimingResult(JobResult &r, const Job &job,
                 const timing::InOrderCore &core,
                 const StatGroup &tstats)
{
    r.cycles = double(core.cycles());
    r.ipc = core.ipc();
    power::PowerReport pr = power::PowerModel(job.config).analyze(tstats);
    r.energyJ = pr.totalEnergyJ;
    r.avgPowerW = pr.avgPowerW;
}

JobResult runSampledJob(const Job &job, const RunOptions &opts);

} // namespace

JobResult
runJob(const Job &job, const RunOptions &opts)
{
    if (opts.sampleMode == SampleMode::SimPoint)
        return runSampledJob(job, opts);

    JobResult r;
    r.workload = job.workload;
    r.configName = job.configName;
    r.effectiveConfig = conf::schema().effective(job.config);
    auto t0 = std::chrono::steady_clock::now();

    // The measured controller is the traced one. It and the detailed
    // models it delivers to outlive the run, whose proofs are taken
    // after it even when it throws; the models are declared first,
    // so the controller never holds a dangling sink.
    std::unique_ptr<StatGroup> tstats;
    std::unique_ptr<timing::InOrderCore> core;
    std::unique_ptr<sim::Controller> ctlp;
    try {
        ctlp = std::make_unique<sim::Controller>(tracedConfig(job, opts));
        sim::Controller &ctl = *ctlp;
        labelTrace(ctl, job);

        if (job.skip > 0) {
            // Fetch-or-compute the prefix image: any job with the
            // same execution identity — in this process or, through a
            // served store, on any worker — may already have paid for
            // it, and without a store it is computed all the same.
            // Either way the measured controller is restored from the
            // image: restore drops chain and IBTC state, so measuring
            // the live one would make the timing columns depend on
            // whether a store was given and on its state.
            fetchOrCompute(
                opts.store, jobKeyString(job), r,
                [&](const std::string &image) {
                    restoreImage(ctl, image);
                },
                [&](bool) {
                    sim::Controller pre(untraced(job));
                    pre.load(job.program);
                    pre.run(job.skip);
                    return saveImage(pre);
                });
        } else {
            ctl.load(job.program);
        }

        // Detailed models over the measured region (post-prefix).
        // Attaching after the prefix keeps results identical whether
        // the prefix was simulated or restored from the cache.
        if (opts.timing) {
            tstats = std::make_unique<StatGroup>("timing");
            core = std::make_unique<timing::InOrderCore>(job.config,
                                                         *tstats);
            ctl.tol().setTraceSink(core.get());
        }
        u64 measureFrom = ctl.tol().completedInsts();

        if (!ctl.finished()) {
            u64 remaining = job.maxInsts == ~0ull
                                ? ~0ull
                                : (job.maxInsts > job.skip
                                       ? job.maxInsts - job.skip
                                       : 0);
            if (remaining > 0)
                ctl.run(remaining);
        }

        r.ok = true;
        r.finished = ctl.finished();
        r.exitCode = ctl.exitCode();
        r.insts = ctl.tol().completedInsts();
        r.bbs = ctl.tol().completedBBs();
        if (core) {
            fillTimingResult(r, job, *core, *tstats);
            r.sampledInsts = ctl.tol().completedInsts() - measureFrom;
        }
        for (const auto &[name, c] : ctl.stats().counters())
            r.stats[name] = c.value();
    } catch (const std::exception &e) {
        failJob(r, e.what());
    }
    std::string proofs = proveJob(r, ctlp.get());
    if (!proofs.empty())
        failJob(r, proofs);

    auto t1 = std::chrono::steady_clock::now();
    r.wallMs =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    return r;
}

/**
 * SimPoint-sampled execution of one job:
 *
 *  1. a functional BBV-profiling Controller run over the whole
 *     budget (tol.bbv_interval = opts.simpoint.interval) supplies the
 *     job's functional results (insts, bbs, exit code, stats,
 *     proofs) and the phase profile; it is the job's traced
 *     controller;
 *  2. pickSimPoints clusters the profile (seeded, deterministic)
 *     into the job's plan, JobResult::plan;
 *  3. a measurement pass walks the simpoints in ascending order,
 *     fetching each one's checkpoint from the store (simpointKey) or
 *     fast-forwarding functionally and publishing it, then running
 *     the detailed timing + power models over just that interval.
 *
 * The runtime always quiesces at a sample start — saveCheckpoint
 * does so implicitly — and every sample is measured from a restored
 * image, so the measured window is bit-identical whether the
 * fast-forward was simulated or restored, keeping results independent
 * of the checkpoint-cache state and of the worker count.
 *
 * Whole-program estimates are weight-combined per-instruction rates:
 * est_cycles = total_insts * Σ w_i · CPI_i, and likewise for energy.
 */
namespace
{

JobResult
runSampledJob(const Job &job, const RunOptions &opts)
{
    JobResult r;
    r.workload = job.workload;
    r.configName = job.configName;
    r.sampleMode = "simpoint";
    r.effectiveConfig = conf::schema().effective(job.config);
    auto t0 = std::chrono::steady_clock::now();

    // The profile pass, the job's traced controller: it proves once
    // its row is read, after a throw too.
    std::unique_ptr<sim::Controller> prof;
    std::string proofs;
    try {
        // Sampled mode picks its own measurement regions; a skip
        // prefix would make its rows cover a different region than
        // full-mode rows of the same matrix. Refuse rather than
        // silently produce apples-to-oranges estimates.
        if (job.skip != 0)
            throw std::runtime_error(
                "sampled (simpoint) mode does not support a skip "
                "prefix: simpoints cover the whole run");

        // --- 1-2: BBV profiling (functional), the plan -------------
        Config pcfg = tracedConfig(job, opts);
        pcfg.set("tol.bbv_interval", s64(opts.simpoint.interval));
        prof = std::make_unique<sim::Controller>(pcfg);
        labelTrace(*prof, job);
        prof->load(job.program);
        prof->run(job.maxInsts);
        r.finished = prof->finished();
        r.exitCode = prof->exitCode();
        r.insts = prof->tol().completedInsts();
        r.bbs = prof->tol().completedBBs();
        for (const auto &[name, c] : prof->stats().counters())
            r.stats[name] = c.value();
        r.plan = sampling::pickSimPoints(
            sampling::harvestBbv(prof->tol().profiler()),
            opts.simpoint);
        proofs = proveJob(r, prof.get());
        prof.reset(); // before the measurement pass, which needs none

        // --- 3: detailed measurement over each simpoint -------------
        const sampling::SimPointResult &sp = r.plan;
        if (opts.timing && !sp.points.empty()) {
            sim::Controller ctl(untraced(job));
            ctl.load(job.program);

            // Every sample is measured from checkpoint state at
            // (start - warmup): the image either comes from the store
            // or is created by walking forward, and is restored either
            // way. Measuring a *walked* runtime instead would make the
            // estimate depend on whether the fast-forward was
            // simulated or restored (walked state carries warm
            // chain/IBTC microstate that a restore rebuilds lazily —
            // inside the warm-up).
            //
            // `lastImage` is the most recent checkpoint (its position
            // is <= every later point's target): when consecutive
            // sample windows overlap their successors' warm-up
            // leads, the walk resumes from it instead of
            // instruction 0. So does the walk after a torn store
            // entry, which may leave the controller half-restored.
            std::string lastImage;

            double wSum = 0, wCpi = 0, wHpi = 0, wEpi = 0;
            for (const sampling::SimPoint &p : sp.points) {
                u64 ffTarget = p.startInst > opts.sampleWarmup
                                   ? p.startInst - opts.sampleWarmup
                                   : 0;
                lastImage = fetchOrCompute(
                    opts.store,
                    simpointKey(job, opts.simpoint.interval,
                                opts.sampleWarmup, p.intervalIndex),
                    r,
                    [&](const std::string &image) {
                        restoreImage(ctl, image);
                    },
                    [&](bool torn) {
                        // Overlap with the previous sample window, or
                        // a torn restore: back up to the last
                        // checkpoint.
                        if (torn ||
                            ctl.tol().completedInsts() > ffTarget) {
                            if (lastImage.empty())
                                ctl.load(job.program);
                            else
                                restoreImage(ctl, lastImage);
                        }
                        u64 done = ctl.tol().completedInsts();
                        if (ffTarget > done && !ctl.finished())
                            ctl.run(ffTarget - done);
                        return saveImage(ctl);
                    });

                // Warm-up: detailed models attached, stats discarded
                // through the delta snapshot below.
                StatGroup tstats("timing");
                timing::InOrderCore core(job.config, tstats);
                ctl.tol().setTraceSink(&core);
                u64 warmFrom = ctl.tol().completedInsts();
                if (p.startInst > warmFrom && !ctl.finished())
                    ctl.run(p.startInst - warmFrom);

                u64 at = ctl.tol().completedInsts();
                Cycle cyc0 = core.cycles();
                u64 hin0 = core.instructions();
                std::map<std::string, u64> snap;
                for (const auto &[name, c] : tstats.counters())
                    snap[name] = c.value();

                u64 end = std::min(p.startInst + sp.interval,
                                   sp.totalInsts);
                if (end > at && !ctl.finished())
                    ctl.run(end - at);
                ctl.tol().setTraceSink(nullptr);

                u64 measured = ctl.tol().completedInsts() - at;
                r.sampledInsts +=
                    ctl.tol().completedInsts() - warmFrom;
                if (measured == 0)
                    continue; // window swallowed by quiesce overshoot

                // Per-window deltas: cold-start effects stay in the
                // warm-up, the estimate sees only the window.
                StatGroup delta("timing-delta");
                for (const auto &[name, c] : tstats.counters()) {
                    auto it = snap.find(name);
                    u64 before = it == snap.end() ? 0 : it->second;
                    delta.counter(name).set(c.value() - before);
                }
                double cycles = double(core.cycles() - cyc0);
                double hostInsts = double(core.instructions() - hin0);
                power::PowerReport pr =
                    power::PowerModel(job.config).analyze(delta);
                wSum += p.weight;
                wCpi += p.weight * (cycles / double(measured));
                wHpi += p.weight * (hostInsts / double(measured));
                wEpi += p.weight *
                        (pr.totalEnergyJ / double(measured));
            }

            if (wSum > 0) {
                double total = double(sp.totalInsts);
                r.cycles = wCpi / wSum * total;
                // IPC as the ratio of estimated totals (host insts /
                // cycles), matching the full-run definition.
                double hostInsts = wHpi / wSum * total;
                r.ipc = r.cycles > 0 ? hostInsts / r.cycles : 0.0;
                r.energyJ = wEpi / wSum * total;
                double freq =
                    conf::getFloat(job.config, "power.freq_ghz");
                double seconds = r.cycles / (freq * 1e9);
                r.avgPowerW = seconds > 0 ? r.energyJ / seconds : 0.0;
            }
        }

        r.ok = true;
    } catch (const std::exception &e) {
        failJob(r, e.what());
    }
    if (prof) // the profile pass threw
        proofs = proveJob(r, prof.get());
    if (!proofs.empty())
        failJob(r, proofs);

    auto t1 = std::chrono::steady_clock::now();
    r.wallMs =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    return r;
}

} // namespace

CampaignResult
runCampaign(const std::vector<Job> &jobs, const RunOptions &opts)
{
    CampaignResult res;
    res.results.resize(jobs.size());
    auto t0 = std::chrono::steady_clock::now();

    std::vector<std::function<void()>> tasks;
    tasks.reserve(jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        tasks.push_back([i, &jobs, &opts, &res]() {
            res.results[i] = runJob(jobs[i], opts);
        });
    }
    Pool(opts.jobs).run(std::move(tasks));

    auto t1 = std::chrono::steady_clock::now();
    res.wallMs =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    for (const JobResult &r : res.results) {
        if (r.checkpointHit)
            ++res.checkpointHits;
        if (r.checkpointStored)
            ++res.checkpointMisses;
    }
    return res;
}

// ---------------------------------------------------------------------
// Reports
// ---------------------------------------------------------------------

namespace
{

/** The stable per-job stat columns every report carries. */
const std::vector<std::string> reportStats = {
    "tol.guest_im",      "tol.guest_bbm",     "tol.guest_sbm",
    "tol.translations_bb", "tol.translations_sb", "cc.evictions",
    "cc.flushes",        "sync.syscalls",
};

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default: out += c;
        }
    }
    return out;
}

u64
statOr0(const JobResult &r, const std::string &name)
{
    auto it = r.stats.find(name);
    return it == r.stats.end() ? 0 : it->second;
}

/** Deterministic fixed-precision rendering for report doubles. */
std::string
fmtF(double v, int prec)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", prec, v);
    return buf;
}

/** cycles,ipc,energy_j,avg_w — shared by the CSV and JSON writers. */
std::string
timingCells(const JobResult &r, char sep)
{
    std::ostringstream os;
    os << fmtF(r.cycles, 0) << sep << fmtF(r.ipc, 4) << sep
       << fmtF(r.energyJ * 1e6, 3) /* µJ resolution, J units */
       << "e-06" << sep << fmtF(r.avgPowerW, 4);
    return os.str();
}

/**
 * A sampled row's "simpoint_plan" object, or "null" for a job that
 * failed before its plan. BIC values carry 1 decimal and weights 4.
 */
std::string
planJson(const JobResult &r)
{
    const sampling::SimPointResult &p = r.plan;
    if (p.interval == 0)
        return "null";
    std::ostringstream os;
    os << "{\"interval\": " << p.interval
       << ", \"total_insts\": " << p.totalInsts << ", \"k\": " << p.k
       << ", \"bic\": " << fmtF(p.bic, 1) << ", \"bic_sweep\": [";
    for (std::size_t i = 0; i < p.bicSweep.size(); ++i)
        os << (i ? ", " : "") << "{\"k\": " << p.bicSweep[i].first
           << ", \"bic\": " << fmtF(p.bicSweep[i].second, 1) << '}';
    os << "], \"points\": [";
    for (std::size_t i = 0; i < p.points.size(); ++i) {
        const sampling::SimPoint &sp = p.points[i];
        os << (i ? ", " : "") << "{\"interval_index\": "
           << sp.intervalIndex << ", \"start_inst\": " << sp.startInst
           << ", \"cluster\": " << sp.cluster
           << ", \"weight\": " << fmtF(sp.weight, 4) << '}';
    }
    os << "], \"assignment\": [";
    for (std::size_t i = 0; i < p.assignment.size(); ++i)
        os << (i ? ", " : "") << p.assignment[i];
    os << "]}";
    return os.str();
}

/**
 * A proving row's "proofs" object, or "null" for a job that failed
 * before any proof.
 */
std::string
proofsJson(const JobResult &r)
{
    if (!r.ok && r.proved + r.refuted + r.unknown == 0)
        return "null";
    return "{\"proved\": " + std::to_string(r.proved) +
           ", \"refuted\": " + std::to_string(r.refuted) +
           ", \"unknown\": " + std::to_string(r.unknown) + '}';
}

/** The full effective config as one CSV cell ("k=v;k=v;..."). */
std::string
effectiveConfigCell(const JobResult &r)
{
    std::string out;
    for (const auto &[k, v] : r.effectiveConfig) {
        if (!out.empty())
            out += ';';
        out += k + '=' + v;
    }
    return out;
}

} // namespace

std::string
statsJson(const JobResult &r)
{
    if (r.stats.empty())
        return "null";
    StatGroup g("darco"); // sim::Controller's group name
    for (const auto &[name, v] : r.stats)
        g.counter(name).set(v);
    std::ostringstream os;
    g.dumpJson(os);
    return os.str();
}

std::string
CampaignResult::csvHeader()
{
    std::string h = "workload,config,ok,finished,exit_code,insts,bbs"
                    ",cycles,ipc,energy_j,avg_w"
                    ",sample_mode,simpoints,sampled_insts";
    for (const std::string &s : reportStats)
        h += ',' + s;
    h += ",effective_config,checkpoint,error,worker,wall_ms";
    return h;
}

std::string
csvRow(const JobResult &r)
{
    std::ostringstream os;
    os << r.workload << ',' << r.configName << ',' << (r.ok ? 1 : 0)
       << ',' << (r.finished ? 1 : 0) << ',' << r.exitCode << ','
       << r.insts << ',' << r.bbs << ',' << timingCells(r, ',') << ','
       << r.sampleMode << ',' << r.plan.points.size() << ','
       << r.sampledInsts;
    for (const std::string &s : reportStats)
        os << ',' << statOr0(r, s);
    os << ',' << effectiveConfigCell(r) << ','
       << (r.checkpointHit ? "hit"
                           : r.checkpointStored ? "stored" : "-");
    std::string err = r.error;
    for (char &c : err)
        if (c == ',' || c == '\n')
            c = ';';
    // Provenance cells last, so byte-identity comparisons can strip
    // them with a prefix cut (everything through `error` is
    // deterministic).
    os << ',' << err << ',' << r.workerId << ','
       << fmtF(r.wallMs, 1);
    return os.str();
}

std::string
CampaignResult::csv() const
{
    std::ostringstream os;
    os << csvHeader() << '\n';
    for (const JobResult &r : results)
        os << csvRow(r) << '\n';
    return os.str();
}

std::string
CampaignResult::json() const
{
    std::ostringstream os;
    os << "[\n";
    for (std::size_t i = 0; i < results.size(); ++i) {
        const JobResult &r = results[i];
        os << "  {\"workload\": \"" << jsonEscape(r.workload)
           << "\", \"config\": \"" << jsonEscape(r.configName)
           << "\", \"ok\": " << (r.ok ? "true" : "false")
           << ", \"finished\": " << (r.finished ? "true" : "false")
           << ", \"exit_code\": " << r.exitCode
           << ", \"insts\": " << r.insts << ", \"bbs\": " << r.bbs
           << ", \"cycles\": " << fmtF(r.cycles, 0)
           << ", \"ipc\": " << fmtF(r.ipc, 4)
           << ", \"energy_j\": " << fmtF(r.energyJ * 1e6, 3) << "e-06"
           << ", \"avg_w\": " << fmtF(r.avgPowerW, 4)
           << ", \"sample_mode\": \"" << r.sampleMode
           << "\", \"simpoints\": " << r.plan.points.size()
           << ", \"sampled_insts\": " << r.sampledInsts
           << ", \"checkpoint\": \""
           << (r.checkpointHit ? "hit"
                               : r.checkpointStored ? "stored" : "-")
           << "\", \"worker\": \"" << jsonEscape(r.workerId)
           << "\", \"wall_ms\": " << fmtF(r.wallMs, 1)
           << ", \"stats\": {";
        bool first = true;
        for (const std::string &s : reportStats) {
            os << (first ? "" : ", ") << '"' << s
               << "\": " << statOr0(r, s);
            first = false;
        }
        os << "}, \"effective_config\": {";
        first = true;
        for (const auto &[k, v] : r.effectiveConfig) {
            os << (first ? "" : ", ") << '"' << jsonEscape(k)
               << "\": \"" << jsonEscape(v) << '"';
            first = false;
        }
        os << "}, \"stats_full\": " << statsJson(r);
        if (r.sampleMode == "simpoint")
            os << ", \"simpoint_plan\": " << planJson(r);
        auto verify = r.effectiveConfig.find("tol.verify");
        if (verify != r.effectiveConfig.end() && verify->second == "true")
            os << ", \"proofs\": " << proofsJson(r);
        os << ", \"error\": \"" << jsonEscape(r.error) << "\"}"
           << (i + 1 < results.size() ? "," : "") << '\n';
    }
    os << "]\n";
    return os.str();
}

} // namespace darco::campaign

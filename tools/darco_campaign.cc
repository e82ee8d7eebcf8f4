/**
 * @file
 * darco_campaign: parallel workload×config experiment runner.
 *
 * Expands a matrix of workloads (the paper suite and the proof suite,
 * see --list) against named config presets, executes every cell on
 * the campaign thread pool (one isolated Controller per job), and
 * writes a CSV/JSON report.
 *
 *   darco_campaign --jobs 4
 *   darco_campaign --workloads 401.bzip2,429.mcf --configs fullopt,interp
 *   darco_campaign --jobs 8 --skip 200000 --checkpoint-dir ckpt
 *   darco_campaign --sample-mode simpoint --interval 100000 --max-k 8
 *   darco_campaign --workloads 470.lbm --configs fullopt \
 *                  --sample-mode simpoint --no-timing --json plan.json
 *   darco_campaign --workloads int_basic,mem_heavy,sb_loops,sb_branchy,\
 *                  fp_trig,mixed --configs interp,noopt,fullopt,tinycc,\
 *                  async --scale 1 --max-insts 300000 --no-timing \
 *                  -c tol.verify=true
 *   darco_campaign --list
 *
 * Serve mode expands the same matrix but, instead of running jobs
 * in-process, serves them over TCP to worker processes, streaming the
 * CSV rows to stdout as results arrive (strictly in submission order —
 * the final report is byte-identical to a local run, provenance
 * columns aside). Worker mode attaches a process to such a
 * coordinator; all jobs (and the campaign-level run options) come over
 * the wire:
 *
 *   darco_campaign --serve --port 39117 --checkpoint-dir D \
 *                  --csv report.csv
 *   darco_campaign --worker HOST:PORT [--worker-id NAME]  # on each machine
 *
 * Service knobs (serve mode; see src/campaign/service.hh):
 *
 *   --manifest PATH   journal completed jobs; a restarted coordinator
 *                     resumes, re-emitting recorded rows and running
 *                     only the remainder
 *   --lease-ms N      per-job lease before reassignment
 *   --dead-after-ms N silence threshold declaring a worker dead
 *
 * --checkpoint-dir D names the campaign's one checkpoint store in
 * every mode (campaign::DirStore, images named by content key): a
 * local run reads and writes it directly, and --serve serves it to
 * the workers, which keep no checkpoints of their own. It caches the
 * --skip prefix of every job and, with --sample-mode simpoint, one
 * image per simpoint, so repeated campaigns skip the functional
 * fast-forward.
 *
 * Every job runs the detailed timing + power models (cycles, IPC,
 * energy, average power columns); --no-timing turns them off. With
 * --sample-mode simpoint the detailed models run only over
 * SimPoint-selected representative intervals and the report carries
 * weight-combined whole-program estimates (see src/sampling/
 * simpoint.hh). This is the one SimPoint driver: each sampled JSON
 * row carries its plan ("simpoint_plan": the BIC sweep, the chosen
 * simpoints and the per-interval cluster assignment), and with
 * --no-timing the run stops after the plan. --trace-out and
 * --stats-json cover a sampled job's profile pass.
 *
 * It is also the one proof driver: with -c tol.verify=true every job
 * proves each translation of its traced controller (the one whose
 * counters are its stats) equivalent to its guest path. Each JSON
 * row then carries its "proofs" counts, and a refuted or unknown
 * proof fails the job, whose error cell names each such proof and
 * its witness (-c debug.drop_guard=true must refute). The closing
 * stderr line totals the proofs.
 *
 * Exit code: 0 when every job succeeded, 1 on any job failure, 2 on
 * usage errors. These include a number that is not a whole unsigned
 * value fitting its field, a --workloads, --configs or --cores list
 * with no item, a --max-insts budget that measures nothing (0, or no
 * more than the --skip prefix), and flags that the chosen mode would
 * ignore: service knobs without --serve, --checkpoint-dir with
 * --worker, and --trace-out with --serve or --worker. A trace the run
 * cannot honour is a usage error too: -c obs.trace.path or
 * -c obs.metrics.path names one file, so it is refused for a matrix
 * of more than one job.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "campaign/campaign.hh"
#include "campaign/service.hh"
#include "common/logging.hh"
#include "common/schema.hh"
#include "workloads/suite.hh"
#include "workloads/synth.hh"

using namespace darco;

namespace
{

/** Every preset but the last, async: its rows are fullopt's with
 *  background translation. */
std::vector<std::string>
defaultConfigs()
{
    std::vector<std::string> names = campaign::presetNames();
    names.pop_back();
    return names;
}

/** The campaign's run options, on one worker per hardware thread. */
campaign::RunOptions
defaultRunOptions()
{
    campaign::RunOptions run;
    run.jobs = std::max(1u, std::thread::hardware_concurrency());
    return run;
}

struct Options
{
    campaign::RunOptions run = defaultRunOptions();
    std::vector<std::string> workloads = {"400.perlbench", "401.bzip2",
                                          "429.mcf"};
    std::vector<std::string> configs = defaultConfigs();
    std::vector<std::string> extra;
    std::vector<u64> cores = {1};
    double scale = 0.25;
    u64 maxInsts = ~0ull;
    u64 skip = 0;
    std::string checkpointDir;
    std::string csvPath;
    std::string jsonPath;
    std::string statsJsonPath;
    bool list = false;
    bool listConfig = false;
    bool quiet = false;
    std::string worker;   //!< HOST:PORT of a coordinator; "" = local
    std::string workerId; //!< advisory name in worker mode
    bool serve = false;   //!< coordinate remote workers instead
    bool serviceFlags = false; //!< any --serve-only flag given
    campaign::ServiceOptions svc;
};

void
usage(const char *argv0)
{
    const campaign::RunOptions run;
    const campaign::ServiceOptions svc;
    std::string presets;
    for (const std::string &p : campaign::presetNames())
        presets += (presets.empty() ? "" : "|") + p;
    std::fprintf(
        stderr,
        "usage: %s [options]\n"
        "  --jobs N            worker threads (default: hw cores)\n"
        "  --workloads a,b,c   workload names (paper and proof\n"
        "                      suites, see --list)\n"
        "  --configs c1,c2     presets: %s\n"
        "  --cores n1,n2       guest core counts; cross-products the\n"
        "                      configs into <config>-c<N> cells "
        "(default: 1)\n"
        "  --scale S           workload dynamic-length scale (default "
        "0.25)\n"
        "  --max-insts N       per-job guest-instruction budget\n"
        "  --skip N            checkpointable fast-forward prefix\n"
        "  --checkpoint-dir D  checkpoint store: create/reuse prefix\n"
        "                      (and simpoint) checkpoints in D; with\n"
        "                      --serve, served to the workers\n"
        "  --sample-mode M     full (default) | simpoint\n"
        "  --interval N        BBV interval, guest insts (default "
        "%llu)\n"
        "  --max-k K           k-means sweep upper bound (default %u)\n"
        "  --sample-seed S     clustering/projection seed (default "
        "%llu)\n"
        "  --sample-warmup N   timing warm-up before each sample "
        "(default %llu)\n"
        "  --no-timing         skip the timing/power models\n"
        "  --csv PATH          write the CSV report here\n"
        "  --json PATH         write the JSON report here\n"
        "  --trace-out D       per-job Chrome trace + interval-metrics\n"
        "                      files in D (local runs; a sampled job's\n"
        "                      cover its profile pass)\n"
        "  --stats-json PATH   write every job's full stats dump here\n"
        "  --serve             serve the matrix to remote workers and\n"
        "                      stream rows as they complete; with:\n"
        "    --bind ADDR         listen address (default 127.0.0.1)\n"
        "    --port N            listen port (default: ephemeral;\n"
        "                        printed on startup)\n"
        "    --manifest PATH     journal completed jobs for resume\n"
        "    --lease-ms N        per-job lease (default %llu)\n"
        "    --dead-after-ms N   worker-death silence threshold\n"
        "                        (default %llu)\n"
        "  --worker HOST:PORT  run as a campaign-service worker for\n"
        "                      the coordinator at HOST:PORT (jobs, run\n"
        "                      options and checkpoint store all come\n"
        "                      from it)\n"
        "  --worker-id NAME    advisory worker name (worker mode)\n"
        "  --list              list known workloads and presets\n"
        "  --list-config       print the generated parameter "
        "reference\n"
        "  -c key=value        extra config override (repeatable)\n"
        "  -q                  suppress the stdout CSV\n",
        argv0, presets.c_str(),
        (unsigned long long)run.simpoint.interval, run.simpoint.maxK,
        (unsigned long long)run.simpoint.seed,
        (unsigned long long)run.sampleWarmup,
        (unsigned long long)svc.leaseMs,
        (unsigned long long)svc.deadAfterMs);
}

std::vector<std::string>
splitCommas(const std::string &s)
{
    std::vector<std::string> out;
    std::size_t pos = 0;
    while (pos <= s.size()) {
        std::size_t comma = s.find(',', pos);
        if (comma == std::string::npos)
            comma = s.size();
        if (comma > pos)
            out.push_back(s.substr(pos, comma - pos));
        pos = comma + 1;
    }
    return out;
}

bool
parseArgs(int argc, char **argv, Options &o)
{
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto next = [&]() -> const char * {
            return i + 1 < argc ? argv[++i] : nullptr;
        };
        u64 n = 0;
        if (a == "--jobs") {
            const char *v = next();
            if (!v || !conf::parseU64(v, n) || n == 0 || n > ~0u)
                return false;
            o.run.jobs = unsigned(n);
        } else if (a == "--workloads") {
            const char *v = next();
            if (!v)
                return false;
            o.workloads = splitCommas(v);
            if (o.workloads.empty())
                return false;
        } else if (a == "--configs") {
            const char *v = next();
            if (!v)
                return false;
            o.configs = splitCommas(v);
            if (o.configs.empty())
                return false;
        } else if (a == "--cores") {
            const char *v = next();
            if (!v)
                return false;
            o.cores.clear();
            for (const std::string &c : splitCommas(v)) {
                if (!conf::parseU64(c, n) || n == 0)
                    return false;
                o.cores.push_back(n);
            }
            if (o.cores.empty())
                return false;
        } else if (a == "--scale") {
            const char *v = next();
            if (!v)
                return false;
            char *end = nullptr;
            o.scale = std::strtod(v, &end);
            if (*end != '\0' || !std::isfinite(o.scale) || o.scale <= 0)
                return false;
        } else if (a == "--max-insts") {
            const char *v = next();
            if (!v || !conf::parseU64(v, o.maxInsts))
                return false;
        } else if (a == "--skip") {
            const char *v = next();
            if (!v || !conf::parseU64(v, o.skip))
                return false;
        } else if (a == "--checkpoint-dir") {
            const char *v = next();
            if (!v)
                return false;
            o.checkpointDir = v;
        } else if (a == "--csv") {
            const char *v = next();
            if (!v)
                return false;
            o.csvPath = v;
        } else if (a == "--json") {
            const char *v = next();
            if (!v)
                return false;
            o.jsonPath = v;
        } else if (a == "--trace-out") {
            const char *v = next();
            if (!v)
                return false;
            o.run.traceDir = v;
        } else if (a == "--stats-json") {
            const char *v = next();
            if (!v)
                return false;
            o.statsJsonPath = v;
        } else if (a == "--sample-mode") {
            const char *v = next();
            if (!v)
                return false;
            if (std::string(v) == "full")
                o.run.sampleMode = campaign::SampleMode::Full;
            else if (std::string(v) == "simpoint")
                o.run.sampleMode = campaign::SampleMode::SimPoint;
            else
                return false;
        } else if (a == "--interval") {
            const char *v = next();
            u64 &interval = o.run.simpoint.interval;
            if (!v || !conf::parseU64(v, interval) || interval == 0)
                return false;
        } else if (a == "--max-k") {
            const char *v = next();
            if (!v || !conf::parseU64(v, n) || n == 0 || n > ~u32(0))
                return false;
            o.run.simpoint.maxK = u32(n);
        } else if (a == "--sample-seed") {
            const char *v = next();
            if (!v || !conf::parseU64(v, o.run.simpoint.seed))
                return false;
        } else if (a == "--sample-warmup") {
            const char *v = next();
            if (!v || !conf::parseU64(v, o.run.sampleWarmup))
                return false;
        } else if (a == "--serve") {
            o.serve = true;
        } else if (a == "--bind" || a == "--port" || a == "--manifest" ||
                   a == "--lease-ms" || a == "--dead-after-ms") {
            const char *v = next();
            if (!v)
                return false;
            o.serviceFlags = true;
            campaign::ServiceOptions &svc = o.svc;
            if (a == "--bind") {
                svc.bind = v;
            } else if (a == "--port") {
                if (!conf::parseU64(v, n) || n > 65535)
                    return false;
                svc.port = u16(n);
            } else if (a == "--manifest") {
                svc.manifestPath = v;
            } else if (a == "--lease-ms") {
                if (!conf::parseU64(v, svc.leaseMs) || svc.leaseMs == 0)
                    return false;
            } else if (!conf::parseU64(v, svc.deadAfterMs) ||
                       svc.deadAfterMs == 0) {
                return false;
            }
        } else if (a == "--worker") {
            const char *v = next();
            if (!v)
                return false;
            o.worker = v;
        } else if (a == "--worker-id") {
            const char *v = next();
            if (!v)
                return false;
            o.workerId = v;
        } else if (a == "--no-timing") {
            o.run.timing = false;
        } else if (a == "-c") {
            const char *v = next();
            if (!v)
                return false;
            o.extra.push_back(v);
        } else if (a == "--list") {
            o.list = true;
        } else if (a == "--list-config") {
            o.listConfig = true;
        } else if (a == "-q") {
            o.quiet = true;
        } else {
            return false;
        }
    }
    // Service flags configure --serve only; serving and working are
    // different processes. A worker takes its jobs, run options and
    // checkpoint store from the coordinator, and only local runs write
    // per-job traces: a flag that the chosen mode would ignore is a
    // usage error, not a silent no-op. So is a budget that measures
    // nothing: 0 instructions, or no more than the --skip prefix.
    bool worker = !o.worker.empty();
    return (o.serve || !o.serviceFlags) && !(o.serve && worker) &&
           !(worker && !o.checkpointDir.empty()) &&
           !((o.serve || worker) && !o.run.traceDir.empty()) &&
           o.maxInsts > o.skip;
}

bool
writeFile(const std::string &path, const std::string &content)
{
    std::ofstream f(path);
    if (!f) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        return false;
    }
    f << content;
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    Options o;
    if (!parseArgs(argc, argv, o)) {
        usage(argv[0]);
        return 2;
    }
    if (o.listConfig) {
        std::fputs(conf::schema().referenceMarkdown().c_str(), stdout);
        return 0;
    }
    if (!o.worker.empty()) {
        std::size_t colon = o.worker.rfind(':');
        u64 port = 0;
        if (colon == std::string::npos || colon == 0 ||
            !conf::parseU64(o.worker.substr(colon + 1), port) ||
            port == 0 || port > 65535) {
            std::fprintf(stderr, "--worker wants HOST:PORT\n");
            return 2;
        }
        campaign::WorkerOptions wopts;
        wopts.host = o.worker.substr(0, colon);
        wopts.port = u16(port);
        wopts.workerId = o.workerId;
        int rc = campaign::runWorker(wopts);
        std::fprintf(stderr, "darco_campaign: worker %s\n",
                     rc == 0 ? "shut down cleanly"
                             : "lost the coordinator");
        return rc;
    }
    if (o.run.sampleMode == campaign::SampleMode::SimPoint && o.skip > 0) {
        std::fprintf(stderr,
                     "--skip cannot be combined with --sample-mode "
                     "simpoint (simpoints cover the whole run)\n");
        return 2;
    }

    std::vector<workloads::Benchmark> suite =
        workloads::paperSuite(o.scale);
    for (workloads::Benchmark &b : workloads::proofSuite(o.scale))
        suite.push_back(std::move(b));

    if (o.list) {
        std::printf("workloads (at --scale %g):\n", o.scale);
        for (const auto &b : suite)
            std::printf("  %-18s [%s]\n", b.params.name.c_str(),
                        workloads::suiteGroupName(b.group));
        std::printf("config presets:");
        for (const std::string &p : campaign::presetNames())
            std::printf(" %s", p.c_str());
        std::printf("\n");
        return 0;
    }

    try {
        std::vector<std::pair<std::string, guest::Program>> progs;
        for (const std::string &name : o.workloads) {
            const workloads::Benchmark *b =
                workloads::findBenchmark(suite, name);
            if (!b) {
                std::fprintf(stderr,
                             "unknown workload '%s' (see --list)\n",
                             name.c_str());
                return 2;
            }
            progs.emplace_back(name, workloads::synthesize(b->params));
        }

        // Cross-product the config presets with the requested core
        // counts; cores=1 keeps the bare preset name so default
        // campaigns are unchanged.
        std::vector<std::pair<std::string, Config>> presets =
            campaign::presetConfigs(o.configs, o.extra);
        std::vector<std::pair<std::string, Config>> cells;
        for (u64 ncores : o.cores) {
            for (const auto &[cname, ccfg] : presets) {
                Config cfg = ccfg;
                std::string name = cname;
                if (ncores != 1) {
                    cfg.parseLine("cores=" +
                                  std::to_string(ncores));
                    name += "-c" + std::to_string(ncores);
                }
                cells.emplace_back(std::move(name), std::move(cfg));
            }
        }

        std::vector<campaign::Job> jobs = campaign::expandMatrix(
            progs, cells, o.maxInsts, o.skip);

        // An obs.* path names one file, which every job of a larger
        // matrix would overwrite; --trace-out names one file per job
        // instead. The paths come from -c, which every job shares.
        if (jobs.size() > 1) {
            for (const char *key : {"obs.trace.path", "obs.metrics.path"}) {
                if (conf::getString(jobs.front().config, key).empty())
                    continue;
                std::fprintf(stderr,
                             "-c %s names one file, which each job would "
                             "overwrite (--trace-out D writes one file "
                             "per job)\n",
                             key);
                return 2;
            }
        }

        // The campaign's one checkpoint store: read and written here
        // by a local run, served to the workers under --serve.
        campaign::DirStore store(o.checkpointDir);
        campaign::CheckpointStore *storePtr =
            o.checkpointDir.empty() ? nullptr : &store;

        campaign::CampaignResult res;
        std::unique_ptr<campaign::Coordinator> coord;
        if (o.serve) {
            o.svc.run = o.run;
            o.svc.store = storePtr;
            if (!o.quiet) {
                std::printf(
                    "%s\n",
                    campaign::CampaignResult::csvHeader().c_str());
                std::fflush(stdout);
                o.svc.onRow = [](std::size_t,
                                 const campaign::JobResult &r) {
                    std::printf("%s\n", campaign::csvRow(r).c_str());
                    std::fflush(stdout);
                };
            }
            coord = std::make_unique<campaign::Coordinator>(
                std::move(jobs), o.svc);
            std::fprintf(stderr,
                         "darco_campaign: serving %zu jobs on %s:%u"
                         " (%zu resumed from manifest)\n",
                         coord->totalJobs(), o.svc.bind.c_str(),
                         unsigned(coord->port()),
                         coord->resumedFromManifest());
            res = coord->wait();
        } else {
            o.run.store = storePtr;
            res = campaign::runCampaign(jobs, o.run);
            if (!o.quiet)
                std::printf("%s", res.csv().c_str());
        }

        if (!o.csvPath.empty() && !writeFile(o.csvPath, res.csv()))
            return 2;
        if (!o.jsonPath.empty() && !writeFile(o.jsonPath, res.json()))
            return 2;
        if (!o.statsJsonPath.empty()) {
            // One array entry per job: its whole stats record.
            std::string out = "[\n";
            for (std::size_t i = 0; i < res.results.size(); ++i) {
                const auto &r = res.results[i];
                out += "  {\"workload\": \"" + r.workload +
                       "\", \"config\": \"" + r.configName +
                       "\", \"stats\": " + campaign::statsJson(r) +
                       "}";
                out += (i + 1 < res.results.size()) ? ",\n" : "\n";
            }
            out += "]\n";
            if (!writeFile(o.statsJsonPath, out))
                return 2;
        }

        unsigned failed = 0;
        u64 proved = 0, refuted = 0, unknown = 0;
        for (const auto &r : res.results) {
            failed += r.ok ? 0 : 1;
            proved += r.proved;
            refuted += r.refuted;
            unknown += r.unknown;
        }
        std::string proofs;
        if (proved + refuted + unknown > 0)
            proofs = ", " + std::to_string(proved + refuted + unknown) +
                     " proofs (" + std::to_string(proved) +
                     " proved, " + std::to_string(refuted) +
                     " refuted, " + std::to_string(unknown) +
                     " unknown)";
        if (coord)
            std::fprintf(stderr,
                         "darco_campaign: %zu jobs in %.0f ms via %llu"
                         " workers (%u failed, %llu reassigned, %llu"
                         " duplicate results)%s\n",
                         res.results.size(), res.wallMs,
                         (unsigned long long)coord->workersSeen(),
                         failed,
                         (unsigned long long)coord->reassignments(),
                         (unsigned long long)coord->duplicateResults(),
                         proofs.c_str());
        else
            std::fprintf(stderr,
                         "darco_campaign: %zu jobs on %u workers in"
                         " %.0f ms (%u failed, checkpoints: %llu hit /"
                         " %llu stored)%s\n",
                         res.results.size(), o.run.jobs, res.wallMs,
                         failed,
                         (unsigned long long)res.checkpointHits,
                         (unsigned long long)res.checkpointMisses,
                         proofs.c_str());
        return failed ? 1 : 0;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "darco_campaign: %s\n", e.what());
        return 2;
    }
}

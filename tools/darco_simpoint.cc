/**
 * @file
 * darco_simpoint: SimPoint profiling driver.
 *
 * Runs the sampling pipeline's offline stages for one workload and
 * one config: BBV profiling (a functional sim::Controller run with
 * tol.bbv_interval, the same run as a sampled campaign's first
 * stage), the seeded k-means sweep with BIC scoring, and
 * representative-interval selection. Prints the BIC sweep and the
 * simpoint table (interval index, start instruction, cluster, weight)
 * and can optionally dump the per-interval cluster assignment
 * (--csv PATH). Per-simpoint checkpoint images have one home, the
 * campaign's store: darco_campaign --sample-mode simpoint
 * --checkpoint-dir D.
 *
 *   darco_simpoint --workload 401.bzip2 --interval 100000 --max-k 8
 *   darco_simpoint --workload 470.lbm --scale 0.5 --csv lbm.csv
 *
 * Exit code: 0 on success, 2 on usage errors or failures.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/schema.hh"
#include "sampling/simpoint.hh"
#include "sim/controller.hh"
#include "workloads/suite.hh"
#include "workloads/synth.hh"

using namespace darco;

namespace
{

struct Options
{
    std::string workload = "401.bzip2";
    double scale = 0.25;
    sampling::SimPointOptions simpoint;
    u64 maxInsts = ~0ull;
    std::vector<std::string> extra;
    std::string csvPath;
    std::string traceDir;
    std::string statsJsonPath;
};

void
usage(const char *argv0)
{
    const sampling::SimPointOptions sp;
    std::fprintf(
        stderr,
        "usage: %s [options]\n"
        "  --workload NAME   paper-suite workload (default 401.bzip2)\n"
        "  --scale S         workload dynamic-length scale (default "
        "0.25)\n"
        "  --interval N      BBV interval, guest insts (default "
        "%llu)\n"
        "  --max-k K         k-means sweep upper bound (default %u)\n"
        "  --seed S          clustering/projection seed (default %llu)\n"
        "  --max-insts N     profiling budget\n"
        "  --csv PATH        per-interval cluster assignment dump\n"
        "  --trace-out D     Chrome trace + interval metrics of the\n"
        "                    profiling run into D\n"
        "  --stats-json PATH full stats dump of the profiling run\n"
        "  -c key=value      config override (repeatable)\n",
        argv0, (unsigned long long)sp.interval, sp.maxK,
        (unsigned long long)sp.seed);
}

bool
parseArgs(int argc, char **argv, Options &o)
{
    auto number = [](const char *v, u64 &out) {
        char *end = nullptr;
        out = std::strtoull(v, &end, 0);
        return *v != '\0' && end && *end == '\0';
    };
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto next = [&]() -> const char * {
            return i + 1 < argc ? argv[++i] : nullptr;
        };
        if (a == "--workload") {
            const char *v = next();
            if (!v)
                return false;
            o.workload = v;
        } else if (a == "--scale") {
            const char *v = next();
            if (!v)
                return false;
            char *end = nullptr;
            o.scale = std::strtod(v, &end);
            if (*end != '\0' || !std::isfinite(o.scale) || o.scale <= 0)
                return false;
        } else if (a == "--interval") {
            const char *v = next();
            u64 &interval = o.simpoint.interval;
            if (!v || !number(v, interval) || interval == 0)
                return false;
        } else if (a == "--max-k") {
            const char *v = next();
            u64 n = 0;
            if (!v || !number(v, n) || n == 0 || n > ~u32(0))
                return false;
            o.simpoint.maxK = u32(n);
        } else if (a == "--seed") {
            const char *v = next();
            if (!v || !number(v, o.simpoint.seed))
                return false;
        } else if (a == "--max-insts") {
            const char *v = next();
            if (!v || !number(v, o.maxInsts))
                return false;
        } else if (a == "--csv") {
            const char *v = next();
            if (!v)
                return false;
            o.csvPath = v;
        } else if (a == "--trace-out") {
            const char *v = next();
            if (!v)
                return false;
            o.traceDir = v;
        } else if (a == "--stats-json") {
            const char *v = next();
            if (!v)
                return false;
            o.statsJsonPath = v;
        } else if (a == "-c") {
            const char *v = next();
            if (!v)
                return false;
            o.extra.push_back(v);
        } else {
            return false;
        }
    }
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

    try {
        std::vector<workloads::Benchmark> suite =
            workloads::paperSuite(o.scale);
        const workloads::Benchmark *b =
            workloads::findBenchmark(suite, o.workload);
        if (!b) {
            std::fprintf(stderr, "unknown workload '%s'\n",
                         o.workload.c_str());
            return 2;
        }
        guest::Program prog = workloads::synthesize(b->params);
        Config cfg(o.extra);
        conf::schema().validate(cfg, "darco_simpoint -c");

        // The one SimPoint profiler: a functional Controller run with
        // BBV collection on, exactly a sampled campaign's stage 1; the
        // obs.* outputs and the stats dump cover it.
        cfg.set("tol.bbv_interval", s64(o.simpoint.interval));
        if (!o.traceDir.empty()) {
            std::filesystem::create_directories(o.traceDir);
            cfg.set("obs.trace.path",
                    o.traceDir + "/" + o.workload + ".trace.json");
            cfg.set("obs.metrics.path",
                    o.traceDir + "/" + o.workload + ".metrics.jsonl");
        }
        sim::Controller ctl(cfg);
        ctl.load(prog);
        ctl.run(o.maxInsts);
        sampling::BbvProfile profile =
            sampling::harvestBbv(ctl.tol().profiler());
        if (!o.statsJsonPath.empty()) {
            std::ofstream f(o.statsJsonPath);
            if (!f) {
                std::fprintf(stderr, "cannot write %s\n",
                             o.statsJsonPath.c_str());
                return 2;
            }
            ctl.stats().dumpJson(f);
        }
        std::printf("%s: %llu insts, %zu intervals of %llu\n",
                    o.workload.c_str(),
                    (unsigned long long)profile.totalInsts,
                    profile.numIntervals(),
                    (unsigned long long)profile.interval);

        sampling::SimPointResult sp =
            sampling::pickSimPoints(profile, o.simpoint);

        std::printf("BIC sweep:");
        for (const auto &[k, bic] : sp.bicSweep)
            std::printf(" k=%u:%.1f", k, bic);
        std::printf("\nchosen k=%u (BIC %.1f)\n", sp.k, sp.bic);

        std::printf("%-10s %-14s %-8s %s\n", "interval", "start_inst",
                    "cluster", "weight");
        for (const sampling::SimPoint &p : sp.points)
            std::printf("%-10u %-14llu %-8u %.4f\n", p.intervalIndex,
                        (unsigned long long)p.startInst, p.cluster,
                        p.weight);

        if (!o.csvPath.empty()) {
            std::ofstream f(o.csvPath);
            if (!f) {
                std::fprintf(stderr, "cannot write %s\n",
                             o.csvPath.c_str());
                return 2;
            }
            f << "interval,start_inst,insts,cluster\n";
            for (std::size_t i = 0; i < sp.assignment.size(); ++i)
                f << i << ',' << i * profile.interval << ','
                  << profile.intervals[i].insts << ','
                  << sp.assignment[i] << '\n';
        }

        return 0;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "darco_simpoint: %s\n", e.what());
        return 2;
    }
}

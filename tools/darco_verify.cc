/**
 * @file
 * darco_verify: prove every translation a workload produces.
 *
 * Runs a matrix of synthetic workloads under every config preset
 * (campaign::presetNames) with `tol.verify=true`, which proves each
 * translation equivalent to its guest path as it is published, and
 * reports the outcome. A Refuted proof prints the failed
 * obligation plus its minimized concrete counterexample witness; an
 * Unknown proof (the engine could neither prove nor refute an
 * obligation within budget) is also a failure — obligations are never
 * silently passed.
 *
 *   darco_verify                          # full workload x preset matrix
 *   darco_verify --preset fullopt         # one preset only
 *   darco_verify --workload sb_branchy    # one workload only
 *   darco_verify -c debug.drop_guard=true # must fail with a witness
 *   darco_verify --list                   # show the matrix
 *
 * Exit code: 0 when every proof succeeded, 1 on any refuted/unknown
 * proof (or a run failure), 2 on usage errors: an unknown preset,
 * workload or -c key, and a --max-insts that is not a positive
 * number.
 */

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "campaign/campaign.hh"
#include "common/logging.hh"
#include "common/schema.hh"
#include "sim/controller.hh"
#include "workloads/synth.hh"

using namespace darco;

namespace
{

struct Options
{
    std::vector<std::string> presets = campaign::presetNames();
    std::vector<std::string> workloads; // empty = all
    std::vector<std::string> extra;
    u64 maxInsts = 300'000;
    bool list = false;
    bool verbose = false;
};

/**
 * The verification workload set: small, structurally diverse programs
 * that between them exercise every translation shape — plain BBs,
 * biased superblocks with asserts, counted-loop unrolling, memory
 * speculation, FP/trig, calls and indirect dispatch.
 */
std::vector<workloads::WorkloadParams>
verifySuite()
{
    using workloads::WorkloadParams;
    std::vector<WorkloadParams> suite;

    WorkloadParams ints;
    ints.name = "int_basic";
    ints.seed = 11;
    ints.numBlocks = 24;
    ints.outerIters = 250;
    ints.memFrac = 0.0;
    ints.loopFrac = 0.0;
    ints.callFrac = 0.0;
    ints.indirectFrac = 0.0;
    ints.coldFrac = 0.15;
    suite.push_back(ints);

    WorkloadParams mem;
    mem.name = "mem_heavy";
    mem.seed = 12;
    mem.numBlocks = 20;
    mem.outerIters = 220;
    mem.memFrac = 0.55;
    mem.coldFrac = 0.10;
    suite.push_back(mem);

    WorkloadParams loops;
    loops.name = "sb_loops";
    loops.seed = 13;
    loops.numBlocks = 18;
    loops.outerIters = 200;
    loops.loopFrac = 0.30;
    loops.loopTripMin = 12;
    loops.loopTripMax = 48;
    suite.push_back(loops);

    WorkloadParams branchy;
    branchy.name = "sb_branchy";
    branchy.seed = 14;
    branchy.numBlocks = 28;
    branchy.outerIters = 260;
    branchy.coldFrac = 0.35;
    branchy.coldMask = 31;
    branchy.memFrac = 0.25;
    suite.push_back(branchy);

    WorkloadParams fp;
    fp.name = "fp_trig";
    fp.seed = 15;
    fp.numBlocks = 16;
    fp.outerIters = 180;
    fp.fpFrac = 0.6;
    fp.trigFrac = 0.2;
    fp.memFrac = 0.2;
    suite.push_back(fp);

    WorkloadParams mixed;
    mixed.name = "mixed";
    mixed.seed = 16;
    mixed.numBlocks = 32;
    mixed.outerIters = 240;
    mixed.fpFrac = 0.2;
    mixed.memFrac = 0.3;
    mixed.loopFrac = 0.12;
    mixed.callFrac = 0.10;
    mixed.indirectFrac = 0.05;
    suite.push_back(mixed);

    return suite;
}

void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [options]\n"
        "  --preset NAME     restrict to one config preset "
        "(repeatable)\n"
        "  --workload NAME   restrict to one workload (repeatable)\n"
        "  --max-insts N     guest-instruction cap per run "
        "(default 300000)\n"
        "  --list            list the workload x preset matrix\n"
        "  -c key=value      extra config override (repeatable)\n"
        "  -v                per-translation proof detail\n",
        argv0);
}

bool
parseArgs(int argc, char **argv, Options &o)
{
    bool presets_reset = false;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto next = [&]() -> const char * {
            return i + 1 < argc ? argv[++i] : nullptr;
        };
        if (a == "--preset") {
            const char *v = next();
            if (!v)
                return false;
            if (!presets_reset) {
                o.presets.clear();
                presets_reset = true;
            }
            o.presets.push_back(v);
        } else if (a == "--workload") {
            const char *v = next();
            if (!v)
                return false;
            o.workloads.push_back(v);
        } else if (a == "--max-insts") {
            const char *v = next();
            if (!v || !conf::parseU64(v, o.maxInsts) || o.maxInsts == 0)
                return false;
        } else if (a == "--list") {
            o.list = true;
        } else if (a == "-c") {
            const char *v = next();
            if (!v)
                return false;
            o.extra.push_back(v);
        } else if (a == "-v") {
            o.verbose = true;
        } else {
            std::fprintf(stderr, "unknown option '%s'\n", a.c_str());
            return false;
        }
    }
    return true;
}

const char *
modeName(tol::RegionMode m)
{
    return m == tol::RegionMode::BB ? "BB" : "SB";
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

    std::vector<workloads::WorkloadParams> suite = verifySuite();
    if (!o.workloads.empty()) {
        std::vector<workloads::WorkloadParams> picked;
        for (const std::string &name : o.workloads) {
            bool found = false;
            for (const auto &p : suite) {
                if (p.name == name) {
                    picked.push_back(p);
                    found = true;
                }
            }
            if (!found) {
                std::fprintf(stderr, "unknown workload '%s'\n",
                             name.c_str());
                return 2;
            }
        }
        suite.swap(picked);
    }

    // An unknown preset or -c key is a usage error, found before any
    // cell runs: exit 1 means a proof or a run failed.
    std::vector<std::string> extra = o.extra;
    extra.push_back("tol.verify=true");
    std::vector<std::pair<std::string, Config>> configs;
    try {
        configs = campaign::presetConfigs(o.presets, extra);
        for (const auto &[preset, cfg] : configs)
            conf::schema().validate(cfg, "darco_verify -c");
    } catch (const std::exception &e) {
        std::fprintf(stderr, "darco_verify: %s\n", e.what());
        return 2;
    }

    if (o.list) {
        std::printf("workloads:");
        for (const auto &p : suite)
            std::printf(" %s", p.name.c_str());
        std::printf("\npresets:");
        for (const auto &p : o.presets)
            std::printf(" %s", p.c_str());
        std::printf("\n");
        return 0;
    }

    unsigned cells = 0, failed_cells = 0;
    u64 proved = 0, refuted = 0, unknown = 0;

    try {
        for (const auto &wp : suite) {
            guest::Program prog = workloads::synthesize(wp);
            for (const auto &[preset, cfg] : configs) {
                ++cells;
                sim::Controller ctrl(cfg);
                ctrl.load(prog);
                // A runtime divergence (the sync oracle firing — e.g.
                // under an injected translation bug) must not stop the
                // matrix: the proofs over the already-installed
                // translations are exactly what we are here for.
                std::string run_error;
                try {
                    ctrl.run(o.maxInsts);
                } catch (const std::exception &e) {
                    run_error = e.what();
                }
                if (!run_error.empty()) {
                    ++failed_cells;
                    std::printf("%-12s x %-8s RUN DIVERGED: %s\n",
                                wp.name.c_str(), preset.c_str(),
                                run_error.c_str());
                }
                ctrl.tol().verifyFinal();
                const verify::VerifyReport &rep =
                    ctrl.tol().verifyReport();
                proved += rep.proved;
                refuted += rep.refuted;
                unknown += rep.unknown;

                bool bad = !rep.clean();
                failed_cells += bad ? 1 : 0;
                if (bad || o.verbose)
                    std::printf("%-12s x %-8s %s\n", wp.name.c_str(),
                                preset.c_str(),
                                rep.summary().c_str());
                for (const auto &r : rep.results) {
                    if (r.verdict == verify::Verdict::Proved) {
                        if (o.verbose)
                            std::printf(
                                "  proved  %s @%08x (tid %u)\n",
                                modeName(r.mode), r.entry, r.tid);
                        continue;
                    }
                    std::printf(
                        "  %s %s @%08x (tid %u): %s\n",
                        r.verdict == verify::Verdict::Refuted
                            ? "REFUTED"
                            : "UNKNOWN",
                        modeName(r.mode), r.entry, r.tid,
                        r.detail.c_str());
                    if (!r.witness.empty())
                        std::printf("    %s%s", r.witness.c_str(),
                                    r.witness.back() == '\n' ? ""
                                                             : "\n");
                }
            }
        }
    } catch (const std::exception &e) {
        std::fprintf(stderr, "darco_verify: %s\n", e.what());
        return 1;
    }

    std::printf("darco_verify: %u cells, %llu proofs "
                "(%llu proved, %llu refuted, %llu unknown)\n",
                cells, (unsigned long long)(proved + refuted + unknown),
                (unsigned long long)proved, (unsigned long long)refuted,
                (unsigned long long)unknown);
    if (failed_cells) {
        std::fprintf(stderr, "darco_verify: %u cell(s) failed\n",
                     failed_cells);
        return 1;
    }
    return 0;
}

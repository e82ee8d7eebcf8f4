/**
 * @file
 * darco_fuzz: the differential-fuzzing driver.
 *
 * Generates seeded random guest programs, cross-validates each one
 * under the four-config matrix (see fuzz/diffrun.hh), and on failure
 * minimizes the program with delta debugging and dumps a reloadable
 * `.gisa` reproducer.
 *
 *   darco_fuzz --seeds 256                # fuzz seeds 1..256
 *   darco_fuzz --seeds 256 --jobs 8       # same, on 8 workers
 *   darco_fuzz --seed-base 1000 --seeds 64
 *   darco_fuzz --replay fuzz-out/seed7.gisa
 *   darco_fuzz --seeds 16 -c debug.flip_cond_exits=true   # self-test
 *   darco_fuzz --seeds 64 --rand-config 2 # + 2 random schema-drawn
 *                                         #   configs per seed
 *   darco_fuzz --seeds 64 --proofs        # + symbolic equivalence
 *                                         #   proof per translation
 *
 * With --jobs N the seed sweep fans out on the campaign thread pool
 * (one isolated differential run per seed); reporting and failure
 * minimization stay serial and in seed order, so the output and the
 * dumped reproducers are byte-identical to a --jobs 1 run.
 *
 * Exit code: 0 when every seed passed, 1 on any failure, 2 on usage
 * errors.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/campaign.hh"
#include "common/schema.hh"
#include "fuzz/diffrun.hh"
#include "fuzz/generator.hh"
#include "fuzz/shrink.hh"
#include "sim/controller.hh"

using namespace darco;

namespace
{

struct Options
{
    u64 seeds = 16;
    u64 seedBase = 1;
    unsigned jobs = 1;
    unsigned randConfigs = 0;
    std::string outDir = "fuzz-out";
    std::string replay;
    bool verbose = false;
    bool noMinimize = false;
    bool proofs = false;
    std::vector<std::string> extra;
};

void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [options]\n"
        "  --seeds N         fuzz N seeds (default 16)\n"
        "  --seed-base B     first seed (default 1)\n"
        "  --jobs N          run seeds on N worker threads (default 1)\n"
        "  --out DIR         failure-dump directory (default fuzz-out)\n"
        "  --replay FILE     re-run one .gisa case instead of fuzzing\n"
        "  --rand-config N   add N random valid configs (drawn from\n"
        "                    the schema's fuzz ranges) to the matrix\n"
        "  --proofs          symbolically verify every translation and\n"
        "                    cross-check the verdicts with the oracle\n"
        "  --no-minimize     skip delta debugging on failures\n"
        "  -c key=value      extra config override (repeatable)\n"
        "  -v                per-seed config matrix detail\n",
        argv0);
}

bool
parseArgs(int argc, char **argv, Options &o)
{
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto next = [&]() -> const char * {
            return i + 1 < argc ? argv[++i] : nullptr;
        };
        if (a == "--seeds") {
            const char *v = next();
            if (!v || !conf::parseU64(v, o.seeds))
                return false;
        } else if (a == "--seed-base") {
            const char *v = next();
            if (!v || !conf::parseU64(v, o.seedBase))
                return false;
        } else if (a == "--jobs") {
            const char *v = next();
            u64 n = 0;
            if (!v || !conf::parseU64(v, n) || n == 0 || n > ~0u)
                return false;
            o.jobs = unsigned(n);
        } else if (a == "--out") {
            const char *v = next();
            if (!v)
                return false;
            o.outDir = v;
        } else if (a == "--replay") {
            const char *v = next();
            if (!v)
                return false;
            o.replay = v;
        } else if (a == "--rand-config") {
            const char *v = next();
            u64 n = 0;
            if (!v || !conf::parseU64(v, n) || n > 64)
                return false;
            o.randConfigs = unsigned(n);
        } else if (a == "--proofs") {
            o.proofs = true;
        } else if (a == "--no-minimize") {
            o.noMinimize = true;
        } else if (a == "-c") {
            const char *v = next();
            if (!v)
                return false;
            // The seed must stay in lockstep with the golden run; it
            // is derived from --seed-base/--seeds (or the case name),
            // never overridable per-config.
            if (std::string(v).rfind("seed=", 0) == 0) {
                std::fprintf(stderr,
                             "-c seed=... is not allowed; use "
                             "--seed-base instead\n");
                return false;
            }
            o.extra.push_back(v);
        } else if (a == "-v") {
            o.verbose = true;
        } else {
            return false;
        }
    }
    return true;
}

/** Dump a program as <outdir>/<stem>.gisa (best effort). */
void
dumpCase(const Options &o, const std::string &stem,
         const guest::Program &prog)
{
    std::string dir = o.outDir.empty() ? "." : o.outDir;
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec)
        std::fprintf(stderr, "warning: cannot create %s: %s\n",
                     dir.c_str(), ec.message().c_str());
    std::string path = dir + "/" + stem + ".gisa";
    std::ofstream f(path);
    if (!f) {
        std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
        return;
    }
    f << prog.saveGisa();
    std::printf("  reproducer dumped to %s\n", path.c_str());
}

/**
 * Re-run a divergent seed's failing matrix cell with event tracing
 * on, so the reproducer ships with a Chrome trace of the run that
 * exposed the bug (<outdir>/seed<N>.trace.json).
 */
void
dumpFailureTrace(const Options &o, u64 seed, const fuzz::DiffResult &r,
                 const fuzz::DiffOptions &dopts,
                 const guest::Program &prog)
{
    if (r.failConfig.empty())
        return;
    std::vector<fuzz::DiffConfig> matrix =
        dopts.matrix.empty() ? fuzz::defaultMatrix() : dopts.matrix;
    const fuzz::DiffConfig *cell = nullptr;
    for (const fuzz::DiffConfig &c : matrix)
        if (c.name == r.failConfig)
            cell = &c;
    if (!cell)
        return;

    std::string dir = o.outDir.empty() ? "." : o.outDir;
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    std::string path =
        dir + "/seed" + std::to_string(seed) + ".trace.json";

    // Same budget shape as the differential run: generous slack over
    // the longest observed run, so a hang can't wedge the dump.
    u64 maxInsts = 0;
    for (const fuzz::RunOutcome &run : r.runs)
        maxInsts = std::max(maxInsts, run.insts);
    u64 budget = fuzz::budgetFloor + fuzz::budgetSlack * maxInsts;

    std::vector<std::string> extra = dopts.extra;
    extra.push_back("obs.trace.path=" + path);
    try {
        sim::Controller ctl(fuzz::makeConfig(*cell, seed, extra));
        ctl.load(prog);
        ctl.run(budget);
    } catch (const std::exception &) {
        // The re-run is *expected* to fail — that is the run worth
        // looking at. The trace still flushes at Controller teardown.
    }
    std::printf("  failure trace dumped to %s\n", path.c_str());
}

int
replayCase(const Options &o)
{
    std::ifstream f(o.replay);
    if (!f) {
        std::fprintf(stderr, "cannot open %s\n", o.replay.c_str());
        return 2;
    }
    std::stringstream ss;
    ss << f.rdbuf();
    guest::Program prog;
    std::string err;
    if (!guest::Program::parseGisa(ss.str(), prog, &err)) {
        std::fprintf(stderr, "bad .gisa case: %s\n", err.c_str());
        return 2;
    }

    fuzz::DiffOptions dopts;
    dopts.extra = o.extra;
    dopts.pinpoint = true;
    dopts.proofs = o.proofs;
    // Seed convention: replayed cases were generated as fuzz<seed>.
    u64 seed = 1;
    if (prog.name.rfind("fuzz", 0) == 0 && prog.name.size() > 4)
        seed = std::strtoull(prog.name.c_str() + 4, nullptr, 10);
    if (o.randConfigs)
        dopts.matrix = fuzz::randomMatrix(seed, o.randConfigs);

    fuzz::DiffResult r = fuzz::diffRun(prog, seed, dopts);
    std::printf("%s (%zu static insts)\n%s", prog.name.c_str(),
                guest::countInstructions(prog), r.report().c_str());
    return r.ok ? 0 : 1;
}

/**
 * Phase 2 for one seed: print its result and, when it failed, dump and
 * minimize it. @return whether the seed passed.
 */
bool
report(const Options &o, const fuzz::DiffOptions &dopts, u64 s,
       const fuzz::ProgramSpec &spec, const fuzz::DiffResult &r)
{
    if (r.ok) {
        if (o.verbose)
            std::printf("seed %llu: %s", (unsigned long long)s,
                        r.report().c_str());
        return true;
    }

    std::printf("seed %llu: FAIL — %s\n", (unsigned long long)s,
                spec.describe().c_str());
    std::printf("%s", r.report().c_str());

    fuzz::DiffOptions topts = dopts;
    if (o.randConfigs)
        topts.matrix = fuzz::randomMatrix(s, o.randConfigs);
    dumpFailureTrace(o, s, r, topts, fuzz::build(spec));

    if (o.noMinimize) {
        dumpCase(o, "seed" + std::to_string(s), fuzz::build(spec));
        return false;
    }

    fuzz::DiffOptions mopts = dopts;
    if (o.randConfigs)
        mopts.matrix = fuzz::randomMatrix(s, o.randConfigs);
    mopts.pinpoint = false; // fast trials while reducing
    fuzz::ShrinkResult sr = fuzz::shrink(spec, mopts);
    std::printf("  minimized to %zu static insts in %u trials: %s\n",
                sr.instructions, sr.attempts, sr.spec.describe().c_str());
    std::printf("  minimized failure: %s", sr.failure.report().c_str());
    dumpCase(o, "seed" + std::to_string(s) + ".min", sr.program);
    return false;
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
    if (o.seeds > 0 && o.seeds - 1 > ~0ull - o.seedBase) {
        std::fprintf(stderr, "darco_fuzz: --seed-base + --seeds passes "
                             "the last 64-bit seed\n");
        return 2;
    }
    // Validate -c overrides against the schema before any run: a
    // typo'd key must fail the sweep, not silently run defaults.
    try {
        conf::schema().validate(Config(o.extra), "darco_fuzz -c");
    } catch (const std::exception &e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 2;
    }
    if (!o.replay.empty())
        return replayCase(o);

    fuzz::DiffOptions dopts;
    dopts.extra = o.extra;
    dopts.proofs = o.proofs;

    // Seeds run in batches, so memory stays bounded whatever --seeds
    // says. Phase 1 of a batch fans the differential runs out on the
    // campaign pool (each seed is an isolated generator + Controller
    // set); phase 2 reports and minimizes them serially, in seed
    // order (byte-identical output whatever the worker count).
    const u64 batch = std::max<u64>(64, 4 * u64(o.jobs));
    u64 failures = 0;
    for (u64 first = 0; first < o.seeds;) {
        const u64 n = std::min(batch, o.seeds - first);
        std::vector<fuzz::ProgramSpec> specs(n);
        std::vector<fuzz::DiffResult> results(n);
        std::vector<std::function<void()>> tasks;
        tasks.reserve(n);
        for (u64 i = 0; i < n; ++i) {
            tasks.push_back([i, s = o.seedBase + first + i, &o, &dopts,
                             &specs, &results]() {
                fuzz::GenParams gp;
                gp.seed = s;
                specs[i] = fuzz::makeSpec(gp);
                fuzz::DiffOptions d = dopts;
                if (o.randConfigs)
                    d.matrix = fuzz::randomMatrix(s, o.randConfigs);
                results[i] = fuzz::diffRun(fuzz::build(specs[i]), s, d);
            });
        }
        campaign::Pool(o.jobs).run(std::move(tasks));
        for (u64 i = 0; i < n; ++i)
            failures += !report(o, dopts, o.seedBase + first + i, specs[i],
                                results[i]);
        first += n;
    }

    std::printf("darco_fuzz: %llu/%llu seeds failed\n",
                (unsigned long long)failures, (unsigned long long)o.seeds);
    return failures ? 1 : 0;
}

/**
 * @file
 * Section VI-A: DARCO speed — instructions emulated/simulated per
 * second for guest and host ISAs, plus the wall-clock win from moving
 * translation onto background worker threads (tol.async.threads).
 *
 * Paper reference (authors' cluster): guest 3.4 MIPS emulated /
 * 0.37 MIPS with the timing simulator; host 20 MIPS / 2 MIPS.
 * Absolute numbers depend on the machine; the shapes to check are
 * emulation >> timing-enabled simulation, host-ISA rates above
 * guest-ISA rates, and async fullopt at least matching sync fullopt
 * (the async cells run the same simulation — only translation moves
 * off the simulator's critical path). Worker counts above the host's
 * hardware concurrency oversubscribe and only add scheduling cost, so
 * judge async scaling by the cells with threads <= hw threads.
 *
 * Emits BENCH_speed.json in the working directory.
 */

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "harness.hh"
#include "power/power.hh"
#include "timing/core.hh"
#include "xemu/ref_component.hh"

using namespace darco;

namespace
{

guest::Program
speedWorkload()
{
    // A large static footprint keeps the translator busy throughout
    // the run (the paper's Physicsbench point: low dynamic-to-static
    // ratios cannot amortize translation), which is exactly the
    // regime where background translation pays off.
    workloads::WorkloadParams p;
    p.seed = 77;
    p.name = "speed";
    p.numBlocks = 200;
    p.outerIters = u32(140 * bench::benchScale());
    if (p.outerIters == 0)
        p.outerIters = 1;
    p.fpFrac = 0.25;
    return workloads::synthesize(p);
}

struct Cell
{
    std::string name;
    std::string label;
    u64 insts = 0;    //!< instructions processed across reps
    double secs = 0;  //!< total wall-clock across reps
    int reps = 0;

    double mips() const { return secs > 0 ? insts / secs / 1e6 : 0; }
};

/** Repeat fn until ~min_secs of wall clock has been spent. */
template <typename Fn>
Cell
measure(const std::string &name, const std::string &label, Fn fn,
        double min_secs = 1.0)
{
    Cell c;
    c.name = name;
    c.label = label;
    using clock = std::chrono::steady_clock;
    while (c.secs < min_secs) {
        auto t0 = clock::now();
        c.insts += fn();
        c.secs +=
            std::chrono::duration<double>(clock::now() - t0).count();
        ++c.reps;
    }
    return c;
}

u64
runDarco(const guest::Program &prog, const Config &extra, bool timing)
{
    Config cfg = extra;
    sim::Controller ctl(cfg);
    StatGroup tstats("timing");
    std::unique_ptr<timing::InOrderCore> core;
    ctl.load(prog);
    if (timing) {
        core = std::make_unique<timing::InOrderCore>(cfg, tstats);
        ctl.tol().setTraceSink(core.get());
    }
    ctl.run();
    if (timing) {
        power::PowerModel pm(cfg);
        volatile double e = pm.analyze(tstats).totalEnergyJ;
        (void)e;
    }
    // Guest instructions in both modes: the core's instructions()
    // counts trace records, about three per guest instruction.
    return ctl.tol().completedInsts();
}

} // namespace

int
main()
{
    guest::Program prog = speedWorkload();

    Config async2;
    async2.parseLine("tol.async.threads=2");
    async2.parseLine("tol.async.vthreads=2");
    Config async4;
    async4.parseLine("tol.async.threads=4");
    async4.parseLine("tol.async.vthreads=2");

    std::vector<Cell> cells;
    cells.push_back(measure("guest_emulation", "guest insts/s", [&] {
        xemu::RefComponent ref;
        ref.load(prog);
        ref.runToCompletion();
        return ref.instCount();
    }));
    cells.push_back(measure("darco_fullopt_sync", "guest insts/s", [&] {
        return runDarco(prog, Config(), false);
    }));
    cells.push_back(
        measure("darco_fullopt_async2", "guest insts/s",
                [&] { return runDarco(prog, async2, false); }));
    cells.push_back(
        measure("darco_fullopt_async4", "guest insts/s",
                [&] { return runDarco(prog, async4, false); }));
    cells.push_back(
        measure("darco_timing_sync", "guest insts/s (timing+power on)",
                [&] { return runDarco(prog, Config(), true); }));
    cells.push_back(
        measure("darco_timing_async2",
                "guest insts/s (timing+power on)",
                [&] { return runDarco(prog, async2, true); }));
    cells.push_back(measure("host_emulation", "host insts/s", [&] {
        sim::Controller ctl((Config()));
        ctl.load(prog);
        ctl.run();
        return ctl.tol().hostEmu().instsExecuted();
    }));

    std::printf("%-22s %10s %6s  %s\n", "cell", "MIPS", "reps",
                "label");
    for (const Cell &c : cells)
        std::printf("%-22s %10.3f %6d  %s\n", c.name.c_str(), c.mips(),
                    c.reps, c.label.c_str());

    double sync_mips = 0, async2_mips = 0, async4_mips = 0;
    for (const Cell &c : cells) {
        if (c.name == "darco_fullopt_sync")
            sync_mips = c.mips();
        if (c.name == "darco_fullopt_async2")
            async2_mips = c.mips();
        if (c.name == "darco_fullopt_async4")
            async4_mips = c.mips();
    }
    std::printf("\nasync2/sync fullopt sim-rate: %.3fx\n",
                sync_mips > 0 ? async2_mips / sync_mips : 0.0);
    std::printf("async4/sync fullopt sim-rate: %.3fx\n",
                sync_mips > 0 ? async4_mips / sync_mips : 0.0);

    FILE *f = std::fopen("BENCH_speed.json", "w");
    if (!f) {
        std::fprintf(stderr, "cannot write BENCH_speed.json\n");
        return 1;
    }
    std::fprintf(f, "{\n  \"bench\": \"speed\",\n  \"cells\": [\n");
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const Cell &c = cells[i];
        std::fprintf(f,
                     "    {\"name\": \"%s\", \"mips\": %.4f, "
                     "\"insts\": %llu, \"secs\": %.4f, \"reps\": %d, "
                     "\"label\": \"%s\"}%s\n",
                     c.name.c_str(), c.mips(),
                     (unsigned long long)c.insts, c.secs, c.reps,
                     c.label.c_str(),
                     i + 1 < cells.size() ? "," : "");
    }
    std::fprintf(f,
                 "  ],\n  \"async2_over_sync\": %.4f,\n"
                 "  \"async4_over_sync\": %.4f\n}\n",
                 sync_mips > 0 ? async2_mips / sync_mips : 0.0,
                 sync_mips > 0 ? async4_mips / sync_mips : 0.0);
    std::fclose(f);
    std::printf("wrote BENCH_speed.json\n");
    return 0;
}

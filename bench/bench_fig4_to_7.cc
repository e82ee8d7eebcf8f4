/**
 * @file
 * Figures 4-7 from one run of the paper suite at the default config:
 * every benchmark runs once, and its metrics fill all four tables.
 *
 * Figure 4: dynamic guest-instruction distribution across the three
 * TOL execution modes (IM / BBM / SBM). Paper shape: ~88% (SPECINT),
 * ~96% (SPECFP), ~75% (Physicsbench) of the dynamic stream executes
 * at the highest optimization level (superblocks);
 * continuous/periodic/ragdoll stay largely in BBM due to their low
 * dynamic-to-static instruction ratio.
 *
 * Figure 5: emulation cost, host instructions per guest instruction
 * in SBM. Paper shape: ~4.0 (SPECINT, branch-dominated small blocks),
 * ~2.6 (SPECFP, large regular blocks), ~3.1 (Physicsbench, inflated
 * by software-expanded trigonometric instructions).
 *
 * Figure 6: composition of the host dynamic instruction stream, TOL
 * overhead vs application instructions. Paper shape: ~16% (SPECINT)
 * and ~13% (SPECFP) of the host stream is TOL overhead; Physicsbench
 * rises to ~41% because its low dynamic-to-static instruction ratio
 * cannot amortize translation.
 *
 * Figure 7: TOL overhead decomposed into the paper's seven
 * categories: interpreter, BB translator, SB translator, prologue,
 * chaining, code-cache lookup, others. Paper shape: interpretation +
 * BB translation dominate Physicsbench (low dynamic-to-static ratio),
 * while the SB translator share stays comparatively small everywhere.
 */

#include "harness.hh"

using namespace darco;
using namespace darco::bench;

namespace
{

const char *groupNames[3] = {"SPECINT2006", "SPECFP2006",
                             "Physicsbench"};

void
fig4(const std::vector<RunMetrics> &runs)
{
    std::printf("=== Figure 4: dynamic x86 instruction distribution "
                "in IM / BBM / SBM ===\n");
    std::printf("%-16s %5s %8s %8s %8s %12s\n", "benchmark", "grp",
                "IM%", "BBM%", "SBM%", "guest insts");

    GroupAvg avg[3];
    for (const RunMetrics &m : runs) {
        std::printf("%-16s %5s %8.1f %8.1f %8.1f %12llu\n",
                    m.name.c_str(), shortGroup(m.group),
                    100 * m.imFrac, 100 * m.bbmFrac, 100 * m.sbmFrac,
                    (unsigned long long)m.guestInsts);
        avg[int(m.group)].add({m.imFrac, m.bbmFrac, m.sbmFrac});
    }

    std::printf("---- averages (measured vs paper) ----\n");
    const double paper_sbm[3] = {88, 96, 75};
    for (int g = 0; g < 3; ++g) {
        std::printf("%-16s %5s %8.1f %8.1f %8.1f   paper SBM%%=%.0f\n",
                    groupNames[g], "", 100 * avg[g].avg(0),
                    100 * avg[g].avg(1), 100 * avg[g].avg(2),
                    paper_sbm[g]);
    }
}

void
fig5(const std::vector<RunMetrics> &runs)
{
    std::printf("=== Figure 5: host instructions per guest "
                "instruction in SBM ===\n");
    std::printf("%-16s %5s %10s %10s\n", "benchmark", "grp",
                "SBM cost", "BBM cost");

    GroupAvg avg[3];
    for (const RunMetrics &m : runs) {
        std::printf("%-16s %5s %10.2f %10.2f\n", m.name.c_str(),
                    shortGroup(m.group), m.emuCostSbm, m.emuCostBbm);
        avg[int(m.group)].add({m.emuCostSbm});
    }

    std::printf("---- averages (measured vs paper) ----\n");
    const double paper[3] = {4.0, 2.6, 3.1};
    for (int g = 0; g < 3; ++g) {
        std::printf("%-16s       %10.2f   paper=%.1f\n", groupNames[g],
                    avg[g].avg(0), paper[g]);
    }
}

void
fig6(const std::vector<RunMetrics> &runs)
{
    std::printf("=== Figure 6: host dynamic instruction stream: "
                "TOL overhead vs application ===\n");
    std::printf("%-16s %5s %10s %14s %14s\n", "benchmark", "grp",
                "TOL%", "app insts", "overhead");

    GroupAvg avg[3];
    for (const RunMetrics &m : runs) {
        std::printf("%-16s %5s %10.1f %14llu %14llu\n", m.name.c_str(),
                    shortGroup(m.group), 100 * m.overheadFrac,
                    (unsigned long long)m.hostApp,
                    (unsigned long long)m.hostOverhead);
        avg[int(m.group)].add({m.overheadFrac});
    }

    std::printf("---- averages (measured vs paper) ----\n");
    const double paper[3] = {16, 13, 41};
    for (int g = 0; g < 3; ++g) {
        std::printf("%-16s       %10.1f   paper=%.0f%%\n", groupNames[g],
                    100 * avg[g].avg(0), paper[g]);
    }
}

void
fig7(const std::vector<RunMetrics> &runs)
{
    std::printf("=== Figure 7: dynamic TOL overhead distribution "
                "(%% of overhead) ===\n");
    std::printf("%-16s %5s %7s %7s %7s %7s %7s %7s %7s\n", "benchmark",
                "grp", "interp", "bbxl", "sbxl", "prolog", "chain",
                "lookup", "other");

    GroupAvg avg[3];
    for (const RunMetrics &m : runs) {
        std::printf(
            "%-16s %5s %7.1f %7.1f %7.1f %7.1f %7.1f %7.1f %7.1f\n",
            m.name.c_str(), shortGroup(m.group),
            100 * m.ovBreakdown[0], 100 * m.ovBreakdown[1],
            100 * m.ovBreakdown[2], 100 * m.ovBreakdown[3],
            100 * m.ovBreakdown[4], 100 * m.ovBreakdown[5],
            100 * m.ovBreakdown[6]);
        avg[int(m.group)].add(
            {m.ovBreakdown[0], m.ovBreakdown[1], m.ovBreakdown[2],
             m.ovBreakdown[3], m.ovBreakdown[4], m.ovBreakdown[5],
             m.ovBreakdown[6]});
    }

    std::printf("---- group averages ----\n");
    for (int g = 0; g < 3; ++g) {
        std::printf(
            "%-16s       %7.1f %7.1f %7.1f %7.1f %7.1f %7.1f %7.1f\n",
            groupNames[g], 100 * avg[g].avg(0), 100 * avg[g].avg(1),
            100 * avg[g].avg(2), 100 * avg[g].avg(3),
            100 * avg[g].avg(4), 100 * avg[g].avg(5),
            100 * avg[g].avg(6));
    }
    std::printf("(paper: interpreter + BB-translator dominate "
                "Physicsbench; SB translator small everywhere)\n");
}

} // namespace

int
main()
{
    std::vector<RunMetrics> runs;
    for (const auto &b : workloads::paperSuite(benchScale()))
        runs.push_back(runBenchmark(b));
    fig4(runs);
    fig5(runs);
    fig6(runs);
    fig7(runs);
    return 0;
}

#include "workloads/suite.hh"

#include "common/logging.hh"

namespace darco::workloads
{

const char *
suiteGroupName(SuiteGroup g)
{
    switch (g) {
      case SuiteGroup::SpecInt: return "SPECINT2006";
      case SuiteGroup::SpecFp: return "SPECFP2006";
      case SuiteGroup::Physics: return "Physicsbench";
      case SuiteGroup::Proof: return "proof";
      default: return "?";
    }
}

namespace
{

/** SPECINT-shaped base: small BBs, branchy, pointer-ish, no FP. */
WorkloadParams
intBase()
{
    WorkloadParams p;
    p.bbLenMin = 3;
    p.bbLenMax = 8;
    p.numBlocks = 64;
    p.outerIters = 5200;
    p.coldFrac = 0.14;
    p.coldMask = 15;
    p.fpFrac = 0.0;
    p.memFrac = 0.32;
    p.loopFrac = 0.06;
    p.callFrac = 0.08;
    p.indirectFrac = 0.03;
    p.dataWords = 4096;
    return p;
}

/** SPECFP-shaped base: large BBs, loopy, regular, FP heavy. */
WorkloadParams
fpBase()
{
    WorkloadParams p;
    p.bbLenMin = 9;
    p.bbLenMax = 22;
    p.numBlocks = 48;
    p.outerIters = 3500;
    p.coldFrac = 0.05;
    p.coldMask = 31;
    p.fpFrac = 0.55;
    p.trigFrac = 0.02;
    p.memFrac = 0.30;
    p.loopFrac = 0.12;
    p.loopTripMin = 16;
    p.loopTripMax = 64;
    p.callFrac = 0.03;
    p.indirectFrac = 0.01;
    p.dataWords = 8192;
    return p;
}

/** Physicsbench-shaped base: FP + heavy trig, short runs (the low
 *  dynamic-to-static ratio the paper calls out). */
WorkloadParams
physBase()
{
    WorkloadParams p;
    p.bbLenMin = 6;
    p.bbLenMax = 14;
    p.numBlocks = 96;
    p.outerIters = 800;
    p.coldFrac = 0.10;
    p.coldMask = 15;
    p.fpFrac = 0.50;
    p.trigFrac = 0.30;
    p.memFrac = 0.28;
    p.loopFrac = 0.08;
    p.callFrac = 0.05;
    p.indirectFrac = 0.02;
    p.dataWords = 4096;
    return p;
}

Benchmark
mk(WorkloadParams p, const char *name, u64 seed, SuiteGroup g,
   double scale)
{
    p.name = name;
    p.seed = seed;
    p.outerIters = u32(std::max(8.0, p.outerIters * scale));
    return Benchmark{p, g};
}

} // namespace

std::vector<Benchmark>
paperSuite(double scale)
{
    std::vector<Benchmark> s;
    auto I = SuiteGroup::SpecInt;
    auto F = SuiteGroup::SpecFp;
    auto P = SuiteGroup::Physics;

    // --- SPECINT2006 ------------------------------------------------------
    {
        WorkloadParams p = intBase();
        p.callFrac = 0.12;           // perl: call heavy, interp-like
        p.indirectFrac = 0.06;
        s.push_back(mk(p, "400.perlbench", 400, I, scale));
    }
    {
        WorkloadParams p = intBase();
        p.memFrac = 0.38;            // bzip2: tight data loops
        p.loopFrac = 0.12;
        p.bbLenMax = 10;
        s.push_back(mk(p, "401.bzip2", 401, I, scale));
    }
    {
        WorkloadParams p = intBase();
        p.numBlocks = 110;           // gcc: big static footprint
        p.outerIters = 3000;
        p.indirectFrac = 0.05;
        s.push_back(mk(p, "403.gcc", 403, I, scale));
    }
    {
        WorkloadParams p = intBase();
        p.memFrac = 0.45;            // mcf: pointer chasing
        p.bbLenMin = 3;
        p.bbLenMax = 6;
        p.dataWords = 16384;
        s.push_back(mk(p, "429.mcf", 429, I, scale));
    }
    {
        WorkloadParams p = intBase();
        p.coldFrac = 0.20;           // gobmk: hard-to-predict branches
        p.coldMask = 7;
        s.push_back(mk(p, "445.gobmk", 445, I, scale));
    }
    {
        WorkloadParams p = intBase();
        p.coldFrac = 0.18;           // sjeng: search with flaky branches
        p.coldMask = 7;
        p.callFrac = 0.10;
        s.push_back(mk(p, "458.sjeng", 458, I, scale));
    }
    {
        WorkloadParams p = intBase();
        p.loopFrac = 0.18;           // libquantum: tiny hot loops
        p.bbLenMin = 3;
        p.bbLenMax = 6;
        p.numBlocks = 28;
        p.outerIters = 12000;
        s.push_back(mk(p, "462.libquantum", 462, I, scale));
    }
    {
        WorkloadParams p = intBase();
        p.bbLenMin = 6;              // h264ref: wider blocks, regular
        p.bbLenMax = 14;
        p.coldFrac = 0.07;
        p.loopFrac = 0.12;
        s.push_back(mk(p, "464.h264ref", 464, I, scale));
    }
    {
        WorkloadParams p = intBase();
        p.indirectFrac = 0.07;       // omnetpp: virtual dispatch
        p.callFrac = 0.12;
        s.push_back(mk(p, "471.omnetpp", 471, I, scale));
    }
    {
        WorkloadParams p = intBase();
        p.memFrac = 0.40;            // astar: grid walking
        p.coldFrac = 0.16;
        s.push_back(mk(p, "473.astar", 473, I, scale));
    }
    {
        WorkloadParams p = intBase();
        p.numBlocks = 96;            // xalancbmk: big code, dispatch
        p.indirectFrac = 0.06;
        p.callFrac = 0.12;
        p.outerIters = 3600;
        s.push_back(mk(p, "483.xalancbmk", 483, I, scale));
    }

    // --- SPECFP2006 -------------------------------------------------------
    {
        WorkloadParams p = fpBase();
        p.bbLenMax = 26;             // bwaves: very regular loops
        p.loopFrac = 0.16;
        s.push_back(mk(p, "410.bwaves", 410, F, scale));
    }
    {
        WorkloadParams p = fpBase();
        s.push_back(mk(p, "433.milc", 433, F, scale));
    }
    {
        WorkloadParams p = fpBase();
        p.bbLenMax = 24;
        s.push_back(mk(p, "434.zeusmp", 434, F, scale));
    }
    {
        WorkloadParams p = fpBase();
        p.fpFrac = 0.48;             // gromacs: mixed int/fp
        p.memFrac = 0.34;
        s.push_back(mk(p, "435.gromacs", 435, F, scale));
    }
    {
        WorkloadParams p = fpBase();
        p.numBlocks = 72;            // cactusADM: big kernels
        p.bbLenMax = 26;
        s.push_back(mk(p, "436.cactusADM", 436, F, scale));
    }
    {
        WorkloadParams p = fpBase();
        s.push_back(mk(p, "437.leslie3d", 437, F, scale));
    }
    {
        WorkloadParams p = fpBase();
        p.fpFrac = 0.60;             // namd: fp dense
        p.bbLenMin = 12;
        s.push_back(mk(p, "444.namd", 444, F, scale));
    }
    {
        WorkloadParams p = fpBase();
        p.fpFrac = 0.40;             // soplex: int/fp mix, branchier
        p.coldFrac = 0.10;
        p.bbLenMin = 6;
        p.bbLenMax = 14;
        s.push_back(mk(p, "450.soplex", 450, F, scale));
    }
    {
        WorkloadParams p = fpBase();
        p.trigFrac = 0.06;           // povray: some transcendental work
        p.callFrac = 0.08;
        p.bbLenMin = 6;
        p.bbLenMax = 16;
        s.push_back(mk(p, "453.povray", 453, F, scale));
    }
    {
        WorkloadParams p = fpBase();
        s.push_back(mk(p, "454.calculix", 454, F, scale));
    }
    {
        WorkloadParams p = fpBase();
        p.bbLenMax = 26;
        s.push_back(mk(p, "459.GemsFDTD", 459, F, scale));
    }
    {
        WorkloadParams p = fpBase();
        p.loopFrac = 0.20;           // lbm: one huge streaming loop
        p.bbLenMin = 14;
        p.bbLenMax = 30;
        p.numBlocks = 24;
        p.outerIters = 7000;
        s.push_back(mk(p, "470.lbm", 470, F, scale));
    }
    {
        WorkloadParams p = fpBase();
        p.fpFrac = 0.45;             // sphinx3: fp + table lookups
        p.memFrac = 0.36;
        s.push_back(mk(p, "482.sphinx3", 482, F, scale));
    }

    // --- Physicsbench -----------------------------------------------------
    {
        WorkloadParams p = physBase();
        s.push_back(mk(p, "breakable", 901, P, scale));
    }
    {
        WorkloadParams p = physBase();
        p.outerIters = 90;           // continuous: tiny dynamic count,
        p.numBlocks = 120;           // stays largely in IM/BBM (paper)
        s.push_back(mk(p, "continuous", 902, P, scale));
    }
    {
        WorkloadParams p = physBase();
        p.outerIters = 700;
        s.push_back(mk(p, "deformable", 903, P, scale));
    }
    {
        WorkloadParams p = physBase();
        p.outerIters = 760;
        p.trigFrac = 0.34;
        s.push_back(mk(p, "explosions", 904, P, scale));
    }
    {
        WorkloadParams p = physBase();
        p.outerIters = 680;
        p.trigFrac = 0.26;
        s.push_back(mk(p, "highspeed", 905, P, scale));
    }
    {
        WorkloadParams p = physBase();
        p.outerIters = 105;          // periodic: low dyn/static (paper)
        p.numBlocks = 110;
        s.push_back(mk(p, "periodic", 906, P, scale));
    }
    {
        WorkloadParams p = physBase();
        p.outerIters = 115;          // ragdoll: low dyn/static (paper)
        p.numBlocks = 100;
        s.push_back(mk(p, "ragdoll", 907, P, scale));
    }

    return s;
}

std::vector<Benchmark>
proofSuite(double scale)
{
    std::vector<Benchmark> s;
    auto G = SuiteGroup::Proof;
    {
        WorkloadParams p;
        p.numBlocks = 24;            // plain integer BBs
        p.outerIters = 250;
        p.memFrac = 0.0;
        p.loopFrac = 0.0;
        p.callFrac = 0.0;
        p.indirectFrac = 0.0;
        p.coldFrac = 0.15;
        s.push_back(mk(p, "int_basic", 11, G, scale));
    }
    {
        WorkloadParams p;
        p.numBlocks = 20;            // memory speculation
        p.outerIters = 220;
        p.memFrac = 0.55;
        p.coldFrac = 0.10;
        s.push_back(mk(p, "mem_heavy", 12, G, scale));
    }
    {
        WorkloadParams p;
        p.numBlocks = 18;            // counted-loop unrolling
        p.outerIters = 200;
        p.loopFrac = 0.30;
        p.loopTripMin = 12;
        p.loopTripMax = 48;
        s.push_back(mk(p, "sb_loops", 13, G, scale));
    }
    {
        WorkloadParams p;
        p.numBlocks = 28;            // biased superblocks, asserts
        p.outerIters = 260;
        p.coldFrac = 0.35;
        p.coldMask = 31;
        p.memFrac = 0.25;
        s.push_back(mk(p, "sb_branchy", 14, G, scale));
    }
    {
        WorkloadParams p;
        p.numBlocks = 16;            // FP and trig
        p.outerIters = 180;
        p.fpFrac = 0.6;
        p.trigFrac = 0.2;
        p.memFrac = 0.2;
        s.push_back(mk(p, "fp_trig", 15, G, scale));
    }
    {
        WorkloadParams p;
        p.numBlocks = 32;            // calls and indirect dispatch
        p.outerIters = 240;
        p.fpFrac = 0.2;
        p.memFrac = 0.3;
        p.loopFrac = 0.12;
        p.callFrac = 0.10;
        p.indirectFrac = 0.05;
        s.push_back(mk(p, "mixed", 16, G, scale));
    }
    return s;
}

const Benchmark *
findBenchmark(const std::vector<Benchmark> &suite,
              const std::string &name)
{
    for (const Benchmark &b : suite) {
        if (b.params.name == name)
            return &b;
    }
    return nullptr;
}

} // namespace darco::workloads

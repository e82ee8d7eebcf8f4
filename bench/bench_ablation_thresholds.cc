/**
 * @file
 * Ablation: promotion thresholds — the paper's "startup delay"
 * challenge (Section III). Sweeps the IM->BBM and BBM->SBM
 * thresholds and reports startup delay (guest instructions until the
 * first superblock exists), overhead share, and SBM coverage.
 *
 * Expected shape: low thresholds promote early (good startup, more
 * translator overhead and possibly wasted translations of cold
 * code); high thresholds interpret longer (Crusoe's failure mode).
 */

#include "harness.hh"

using namespace darco;
using namespace darco::bench;

namespace
{

struct StartupMetrics
{
    u64 firstSbAt = 0; //!< guest insts when the first SB was built
    double imFrac = 0, sbmFrac = 0, overheadFrac = 0;
    u64 translations = 0;
};

StartupMetrics
runWith(const workloads::Benchmark &b, u32 bb_thr, u32 sb_thr)
{
    Config cfg;
    cfg.set("tol.bb_threshold", s64(bb_thr));
    cfg.set("tol.sb_threshold", s64(sb_thr));
    cfg.set("seed", s64(b.params.seed));
    sim::Controller ctl(cfg);
    ctl.load(workloads::synthesize(b.params));

    StartupMetrics m;
    // Step in slices to find the first-superblock point.
    while (!ctl.finished()) {
        ctl.run(2'000);
        if (m.firstSbAt == 0 &&
            ctl.stats().value("tol.translations_sb") > 0) {
            m.firstSbAt = ctl.tol().completedInsts();
        }
    }
    StatGroup &s = ctl.stats();
    double im = double(s.value("tol.guest_im"));
    double bbm = double(s.value("tol.guest_bbm"));
    double sbm = double(s.value("tol.guest_sbm"));
    double tot = std::max(1.0, im + bbm + sbm);
    m.imFrac = im / tot;
    m.sbmFrac = sbm / tot;
    u64 app = s.value("tol.host_app_bbm") + s.value("tol.host_app_sbm");
    u64 ov = ctl.tol().costModel().totalAll();
    m.overheadFrac = double(ov) / std::max<u64>(1, app + ov);
    m.translations =
        s.value("tol.translations_bb") + s.value("tol.translations_sb");
    return m;
}

} // namespace

int
main()
{
    auto suite = workloads::paperSuite(benchScale());
    const workloads::Benchmark *b =
        workloads::findBenchmark(suite, "401.bzip2");

    std::printf("=== Ablation: promotion thresholds (startup-delay "
                "challenge, Section III) ===\n");
    std::printf("workload: %s\n", b->params.name.c_str());
    std::printf("%8s %8s %12s %8s %8s %10s %8s\n", "bb_thr", "sb_thr",
                "1st SB at", "IM%", "SBM%", "overhead%", "xlations");

    struct Pair
    {
        u32 bb, sb;
    } sweeps[] = {
        {2, 8},   {5, 25},   {10, 50},
        {25, 200}, {50, 500}, {200, 2000},
    };
    for (const Pair &p : sweeps) {
        StartupMetrics m = runWith(*b, p.bb, p.sb);
        std::printf("%8u %8u %12llu %8.1f %8.1f %10.1f %8llu\n", p.bb,
                    p.sb, (unsigned long long)m.firstSbAt,
                    100 * m.imFrac, 100 * m.sbmFrac,
                    100 * m.overheadFrac,
                    (unsigned long long)m.translations);
    }
    std::printf("(low thresholds: early promotion, higher translator "
                "overhead; high thresholds: Crusoe-style startup "
                "delay in IM)\n");
    return 0;
}

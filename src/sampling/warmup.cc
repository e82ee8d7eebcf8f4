#include "sampling/warmup.hh"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "sim/controller.hh"
#include "timing/core.hh"

namespace darco::sampling
{

using namespace guest;

namespace
{

/** Snapshot of mode counters for window deltas. */
struct ModeSnap
{
    u64 im, bbm, sbm, hostApp, overhead;

    static ModeSnap
    of(sim::Controller &ctl)
    {
        StatGroup &s = ctl.stats();
        return ModeSnap{
            s.value("tol.guest_im"),
            s.value("tol.guest_bbm"),
            s.value("tol.guest_sbm"),
            s.value("tol.host_app_bbm") + s.value("tol.host_app_sbm"),
            ctl.tol().costModel().totalAll(),
        };
    }
};

/**
 * Measure one window on a prepared controller. Mode fractions are
 * deltas between snapshots.
 */
void
measureWindow(sim::Controller &ctl, u64 length, SampleMetrics &m,
              timing::InOrderCore *core)
{
    ModeSnap before = ModeSnap::of(ctl);
    u64 cyc0 = 0, ins0 = 0;
    if (core) {
        cyc0 = core->cycles();
        ins0 = core->instructions();
    }

    ctl.run(length);

    ModeSnap after = ModeSnap::of(ctl);
    double im = double(after.im - before.im);
    double bbm = double(after.bbm - before.bbm);
    double sbm = double(after.sbm - before.sbm);
    double total = std::max(1.0, im + bbm + sbm);
    m.imFrac = im / total;
    m.bbmFrac = bbm / total;
    m.sbmFrac = sbm / total;
    double host_app = double(after.hostApp - before.hostApp);
    double ov = double(after.overhead - before.overhead);
    m.tolOverheadFrac = (host_app + ov) > 0 ? ov / (host_app + ov) : 0;
    if (core) {
        u64 dc = core->cycles() - cyc0;
        u64 di = core->instructions() - ins0;
        m.ipc = dc ? double(di) / double(dc) : 0;
    }
}

} // namespace

FastForwardCheckpoint
makeFastForwardCheckpoint(const Program &prog, const Config &cfg,
                          u64 ff_point)
{
    sim::Controller ctl(cfg);
    ctl.load(prog);
    ctl.fastForward(ff_point);
    FastForwardCheckpoint ckpt;
    ckpt.ffPoint = ff_point;
    std::ostringstream os;
    ctl.saveCheckpoint(os);
    ckpt.image = os.str();
    return ckpt;
}

SampleMetrics
runSample(const Program &prog, const Config &cfg,
          const SampleSpec &spec, u64 warmup_len, u32 scale,
          bool with_timing, const FastForwardCheckpoint *ckpt)
{
    SampleMetrics m;
    warmup_len = std::min(warmup_len, spec.skip);
    u64 ff = spec.skip - warmup_len;

    // Functional fast-forward in the reference components (the cheap
    // part of sampled simulation) — from a shared checkpoint when one
    // covers this run's fast-forward point — then a cold co-designed
    // component from there.
    StatGroup tstats("timing");
    std::unique_ptr<timing::InOrderCore> core;
    if (with_timing)
        core = std::make_unique<timing::InOrderCore>(cfg, tstats);
    sim::Controller ctl(cfg);
    if (ckpt && ckpt->valid() && ckpt->ffPoint <= ff) {
        std::istringstream is(ckpt->image);
        ctl.restoreCheckpoint(is);
        m.ffInsts = ff - ckpt->ffPoint;
    } else {
        ctl.load(prog);
        m.ffInsts = ff;
    }
    ctl.fastForward(ff);
    ctl.tol().setTraceSink(core.get());

    // Warm-up with downscaled thresholds (the methodology's key move).
    ctl.tol().scaleThresholds(scale);
    ctl.run(warmup_len);
    ctl.tol().scaleThresholds(1);

    m.translationsAtSampleStart = ctl.tol().translationCount();
    measureWindow(ctl, spec.length, m, core.get());
    m.detailedInsts = warmup_len + spec.length;
    return m;
}

SampleMetrics
runAuthoritative(const Program &prog, const Config &cfg,
                 const SampleSpec &spec, bool with_timing)
{
    SampleMetrics m;
    StatGroup tstats("timing");
    std::unique_ptr<timing::InOrderCore> core;
    if (with_timing)
        core = std::make_unique<timing::InOrderCore>(cfg, tstats);
    sim::Controller ctl(cfg);
    ctl.load(prog);
    ctl.tol().setTraceSink(core.get());

    ctl.run(spec.skip);
    m.translationsAtSampleStart = ctl.tol().translationCount();
    measureWindow(ctl, spec.length, m, core.get());
    m.detailedInsts = spec.skip + spec.length;
    return m;
}

double
modeError(const SampleMetrics &a, const SampleMetrics &b)
{
    return std::fabs(a.imFrac - b.imFrac) +
           std::fabs(a.bbmFrac - b.bbmFrac) +
           std::fabs(a.sbmFrac - b.sbmFrac);
}

HeuristicResult
pickWarmup(const Program &prog, const Config &cfg,
           const SampleSpec &spec,
           const std::vector<WarmupCandidate> &cands)
{
    HeuristicResult r;
    r.authoritative = runAuthoritative(prog, cfg, spec, false);

    // Share the functional fast-forward: snapshot the reference
    // component at the earliest point any candidate needs
    // (skip - max warm-up length) and let every candidate restore
    // from it, so the common prefix is simulated once, not per
    // candidate.
    u64 max_warmup = 0;
    for (const WarmupCandidate &c : cands)
        max_warmup = std::max(max_warmup, c.warmupLen);
    max_warmup = std::min(max_warmup, spec.skip);
    FastForwardCheckpoint ckpt = makeFastForwardCheckpoint(
        prog, cfg, spec.skip - max_warmup);
    r.ffInstsExecuted = ckpt.ffPoint;

    bool first = true;
    for (const WarmupCandidate &c : cands) {
        SampleMetrics m = runSample(prog, cfg, spec, c.warmupLen,
                                    c.scale, false, &ckpt);
        r.ffInstsExecuted += m.ffInsts;
        r.ffInstsNaive += spec.skip - std::min(c.warmupLen, spec.skip);
        double err = modeError(m, r.authoritative);
        r.scores.emplace_back(c, err);
        // Within-noise ties go to the cheaper configuration: the
        // whole point of the methodology is minimum simulation cost
        // at equivalent fidelity.
        constexpr double noise = 0.005;
        bool better =
            first || err < r.bestError - noise ||
            (err <= r.bestError + noise &&
             c.warmupLen < r.best.warmupLen);
        if (better) {
            r.best = c;
            r.bestError = err;
            first = false;
        }
    }
    return r;
}

} // namespace darco::sampling

/**
 * @file
 * Observability tests (ctest labels: observability, concurrency —
 * the histogram hammer is a TSan target).
 *
 * - Tracer/MetricsWriter units: recording, clocks, export shape;
 * - trace JSON validity: the exported Chrome trace and every metrics
 *   row parse as JSON (minimal recursive-descent checker);
 * - structure: mode spans tile virtual time exactly, async job spans
 *   live on virtual worker tracks, everything else on track 0;
 * - interval-metrics conservation: per-row im+bbm+sbm deltas equal
 *   the row's virtual-time span, rows are contiguous and cover the
 *   whole run;
 * - determinism: the virtual-time trace and metrics streams are
 *   byte-identical across positive tol.async.threads counts;
 * - isolation: enabling tracing changes no simulated statistic;
 * - Histogram thread-safety hammer and StatGroup::dumpJson schema;
 * - warnings: one formatted line per warn() to the installed sink.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <cstring>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.hh"
#include "common/stats.hh"
#include "obs/metrics.hh"
#include "obs/session.hh"
#include "obs/tracer.hh"
#include "sim/controller.hh"
#include "workloads/synth.hh"

using namespace darco;

namespace
{

// --- minimal JSON validity checker -----------------------------------

struct JsonChecker
{
    const std::string &s;
    std::size_t pos = 0;

    explicit JsonChecker(const std::string &text) : s(text) {}

    void ws()
    {
        while (pos < s.size() &&
               (s[pos] == ' ' || s[pos] == '\t' || s[pos] == '\n' ||
                s[pos] == '\r'))
            ++pos;
    }
    bool eat(char c)
    {
        ws();
        if (pos < s.size() && s[pos] == c) {
            ++pos;
            return true;
        }
        return false;
    }
    bool string()
    {
        ws();
        if (pos >= s.size() || s[pos] != '"')
            return false;
        ++pos;
        while (pos < s.size() && s[pos] != '"') {
            if (s[pos] == '\\')
                ++pos;
            ++pos;
        }
        return eatRaw('"');
    }
    bool eatRaw(char c)
    {
        if (pos < s.size() && s[pos] == c) {
            ++pos;
            return true;
        }
        return false;
    }
    bool number()
    {
        ws();
        std::size_t start = pos;
        if (pos < s.size() && s[pos] == '-')
            ++pos;
        while (pos < s.size() &&
               (std::isdigit(u8(s[pos])) || s[pos] == '.' ||
                s[pos] == 'e' || s[pos] == 'E' || s[pos] == '+' ||
                s[pos] == '-'))
            ++pos;
        return pos > start;
    }
    bool literal(const char *lit)
    {
        ws();
        std::size_t n = std::strlen(lit);
        if (s.compare(pos, n, lit) == 0) {
            pos += n;
            return true;
        }
        return false;
    }
    bool value()
    {
        ws();
        if (pos >= s.size())
            return false;
        switch (s[pos]) {
          case '{': return object();
          case '[': return array();
          case '"': return string();
          case 't': return literal("true");
          case 'f': return literal("false");
          case 'n': return literal("null");
          default: return number();
        }
    }
    bool object()
    {
        if (!eat('{'))
            return false;
        ws();
        if (eat('}'))
            return true;
        do {
            if (!string() || !eat(':') || !value())
                return false;
        } while (eat(','));
        return eat('}');
    }
    bool array()
    {
        if (!eat('['))
            return false;
        ws();
        if (eat(']'))
            return true;
        do {
            if (!value())
                return false;
        } while (eat(','));
        return eat(']');
    }
    /** Whole-document check: one value, then only whitespace. */
    bool document()
    {
        if (!value())
            return false;
        ws();
        return pos == s.size();
    }
};

bool
validJson(const std::string &text)
{
    return JsonChecker(text).document();
}

// --- traced-run helpers ----------------------------------------------

guest::Program
workload()
{
    workloads::WorkloadParams p;
    p.name = "obs-wl";
    p.seed = 133;
    p.numBlocks = 44;
    p.outerIters = 240;
    p.fpFrac = 0.15;
    p.loopFrac = 0.10;
    p.indirectFrac = 0.03;
    return workloads::synthesize(p);
}

Config
baseCfg()
{
    // Fast promotion so the run exercises BBM/SBM within test budget.
    return Config({"tol.bb_threshold=4", "tol.sb_threshold=12",
                   "tol.min_edge_total=8"});
}

/** baseCfg + async pipeline + obs outputs under the gtest temp dir. */
Config
tracedCfg(u64 threads, const std::string &stem, u64 metrics_interval = 0)
{
    Config cfg = baseCfg();
    cfg.set("tol.async.threads", s64(threads));
    cfg.set("tol.async.vthreads", s64(2));
    cfg.set("tol.async.rate", s64(4));
    cfg.set("tol.async.queue", s64(16));
    cfg.set("obs.trace.path",
            ::testing::TempDir() + stem + ".trace.json");
    if (metrics_interval) {
        cfg.set("obs.metrics.path",
                ::testing::TempDir() + stem + ".metrics.jsonl");
        cfg.set("obs.metrics.interval", s64(metrics_interval));
    }
    return cfg;
}

/** Run to completion and flush the obs streams for inspection. */
std::unique_ptr<sim::Controller>
runTraced(const Config &cfg)
{
    auto ctl = std::make_unique<sim::Controller>(cfg);
    ctl->load(workload());
    ctl->run();
    EXPECT_TRUE(ctl->finished());
    ctl->tol().flushObs();
    return ctl;
}

u64
intField(const obs::MetricsWriter::Row &row, const std::string &key)
{
    for (const auto &[k, v] : row.ints)
        if (k == key)
            return v;
    ADD_FAILURE() << "missing metrics field " << key;
    return 0;
}

// --- Tracer units -----------------------------------------------------

TEST(Tracer, RecordsEventsOnVirtualClock)
{
    obs::Tracer t(obs::TraceClock::Virtual);
    u64 clock = 0;
    t.setVirtualClock(&clock);

    clock = 5;
    t.instant("c", "point", 0, {{"x", 7}});
    t.complete("c", "span", 2, 3, 1);

    ASSERT_EQ(t.events().size(), 2u);
    const obs::TraceEvent &i = t.events()[0];
    EXPECT_EQ(i.phase, obs::Phase::Instant);
    EXPECT_EQ(i.vtime, 5u);
    EXPECT_EQ(i.track, 0u);
    ASSERT_EQ(i.args.size(), 1u);
    EXPECT_EQ(i.args[0].first, "x");
    EXPECT_EQ(i.args[0].second, 7u);
    EXPECT_EQ(i.wallNs, 0u) << "virtual mode must zero wall stamps";

    const obs::TraceEvent &c = t.events()[1];
    EXPECT_EQ(c.phase, obs::Phase::Complete);
    EXPECT_EQ(c.vtime, 2u);
    EXPECT_EQ(c.vdur, 3u);
    EXPECT_EQ(c.track, 1u);
}

TEST(Tracer, ExportsValidChromeJson)
{
    obs::Tracer t;
    u64 clock = 11;
    t.setVirtualClock(&clock);
    t.setProcessName("job \"quoted\"");
    t.setTrackName(1, "translator-1");
    t.instant("c", "na\"me", 0);
    t.complete("c", "span", 4, 6, 1, {{"tid", 3}});

    std::ostringstream os;
    t.exportChromeJson(os);
    std::string j = os.str();

    EXPECT_TRUE(validJson(j)) << j;
    EXPECT_NE(j.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(j.find("process_name"), std::string::npos);
    EXPECT_NE(j.find("translator-1"), std::string::npos);
    // Metadata rows come first.
    EXPECT_LT(j.find("process_name"), j.find("span"));
}

TEST(Tracer, WallModePreservesVirtualStampsInArgs)
{
    obs::Tracer t(obs::TraceClock::Wall);
    u64 clock = 42;
    t.setVirtualClock(&clock);
    t.complete("c", "span", 10, 5);

    std::ostringstream os;
    t.exportChromeJson(os);
    std::string j = os.str();
    EXPECT_TRUE(validJson(j)) << j;
    EXPECT_NE(j.find("\"vtime\""), std::string::npos);
    EXPECT_NE(j.find("\"vdur\""), std::string::npos);
}

TEST(MetricsWriter, WritesOneValidJsonObjectPerLine)
{
    obs::MetricsWriter m(1000);
    obs::MetricsWriter::Row r;
    r.ints = {{"a", 1}, {"b", 2}};
    r.reals = {{"share", 0.25}};
    m.append(r);
    m.append(r);

    std::ostringstream os;
    m.writeTo(os);
    std::istringstream in(os.str());
    std::string line;
    unsigned lines = 0;
    while (std::getline(in, line)) {
        ++lines;
        EXPECT_TRUE(validJson(line)) << line;
    }
    EXPECT_EQ(lines, 2u);
}

// --- full-run structure ----------------------------------------------

TEST(TraceStructure, FullRunExportIsValidJsonWithExpectedEvents)
{
    auto ctl = runTraced(tracedCfg(4, "structure", 20'000));
    obs::Tracer *t = ctl->obsSession()->tracer();
    ASSERT_NE(t, nullptr);

    std::ostringstream os;
    t->exportChromeJson(os);
    EXPECT_TRUE(validJson(os.str()));

    std::set<std::string> names;
    for (const obs::TraceEvent &e : t->events())
        names.insert(e.name);
    // Mode transitions, translation stages, async publishes and
    // code-cache installs must all be present in a fullopt async run.
    for (const char *want :
         {"IM", "BBM", "SBM", "translate.bb", "translate.sb",
          "stage.frontend", "stage.opt", "stage.schedule",
          "stage.regalloc", "async.bb", "async.publish", "cc.install",
          "cc.chain"})
        EXPECT_TRUE(names.count(want)) << "missing event " << want;
}

TEST(TraceStructure, ModeSpansTileVirtualTime)
{
    auto ctl = runTraced(tracedCfg(2, "modespans"));
    obs::Tracer *t = ctl->obsSession()->tracer();
    ASSERT_NE(t, nullptr);

    std::vector<const obs::TraceEvent *> modes;
    for (const obs::TraceEvent &e : t->events())
        if (std::string(e.component) == "mode")
            modes.push_back(&e);
    ASSERT_FALSE(modes.empty());

    // Emission order is close order, which is start order for a
    // single non-overlapping span chain: starts must be contiguous
    // from 0 and end exactly at the retired-instruction count.
    u64 pos = 0;
    for (const obs::TraceEvent *m : modes) {
        EXPECT_EQ(m->phase, obs::Phase::Complete);
        EXPECT_EQ(m->vtime, pos) << "gap or overlap in mode spans";
        EXPECT_GT(m->vdur, 0u);
        pos = m->vtime + m->vdur;
    }
    EXPECT_EQ(pos, ctl->tol().completedInsts());
}

TEST(TraceStructure, AsyncJobSpansLiveOnWorkerTracks)
{
    auto ctl = runTraced(tracedCfg(4, "tracks"));
    obs::Tracer *t = ctl->obsSession()->tracer();
    ASSERT_NE(t, nullptr);

    unsigned asyncSpans = 0;
    for (const obs::TraceEvent &e : t->events()) {
        bool jobSpan = e.phase == obs::Phase::Complete &&
                       std::string(e.component) == "async";
        if (jobSpan) {
            ++asyncSpans;
            EXPECT_GE(e.track, 1u);
            EXPECT_LE(e.track, 2u); // vthreads=2 virtual tracks
        } else {
            EXPECT_EQ(e.track, 0u)
                << e.name << " should be on the main track";
        }
    }
    EXPECT_GT(asyncSpans, 0u);
}

// --- interval metrics -------------------------------------------------

TEST(IntervalMetrics, RowsConserveInstructionsAndTileTheRun)
{
    auto ctl = runTraced(tracedCfg(4, "conserve", 20'000));
    obs::MetricsWriter *m = ctl->obsSession()->metrics();
    ASSERT_NE(m, nullptr);
    ASSERT_FALSE(m->rows().empty());

    u64 prevEnd = 0;
    for (const obs::MetricsWriter::Row &row : m->rows()) {
        u64 start = intField(row, "vt_start");
        u64 end = intField(row, "vt_end");
        EXPECT_EQ(start, prevEnd) << "metrics rows must be contiguous";
        EXPECT_GT(end, start);
        u64 modes = intField(row, "im") + intField(row, "bbm") +
                    intField(row, "sbm");
        EXPECT_EQ(modes, end - start)
            << "mode deltas must partition the interval exactly";
        prevEnd = end;
    }
    EXPECT_EQ(prevEnd, ctl->tol().completedInsts())
        << "the final (flushed) row must close at the end of the run";
}

// --- determinism ------------------------------------------------------

TEST(Determinism, VirtualTimeStreamsAreWorkerCountInvariant)
{
    std::string trace[2], metrics[2];
    u64 threads[2] = {1, 4};
    for (int i = 0; i < 2; ++i) {
        auto ctl = runTraced(
            tracedCfg(threads[i], "det" + std::to_string(threads[i]),
                      25'000));
        std::ostringstream t, m;
        ctl->obsSession()->tracer()->exportChromeJson(t);
        ctl->obsSession()->metrics()->writeTo(m);
        trace[i] = t.str();
        metrics[i] = m.str();
    }
    EXPECT_EQ(trace[0], trace[1])
        << "virtual-time trace must be byte-identical across "
           "tol.async.threads";
    EXPECT_EQ(metrics[0], metrics[1]);
}

TEST(Determinism, TracingEnabledChangesNoSimulatedStat)
{
    // Identical execution-relevant config to tracedCfg(2, ...): the
    // runs must differ in the obs.* keys only.
    Config plain = baseCfg();
    plain.set("tol.async.threads", s64(2));
    plain.set("tol.async.vthreads", s64(2));
    plain.set("tol.async.rate", s64(4));
    plain.set("tol.async.queue", s64(16));
    auto off = std::make_unique<sim::Controller>(plain);
    off->load(workload());
    off->run();
    EXPECT_EQ(off->obsSession(), nullptr);

    auto on = runTraced(tracedCfg(2, "isolation", 20'000));

    EXPECT_EQ(off->tol().completedInsts(), on->tol().completedInsts());
    for (const auto &[name, c] : off->stats().counters()) {
        EXPECT_EQ(c.value(), on->stats().value(name))
            << "tracing changed simulated stat " << name;
    }
    // And symmetrically: tracing added no counters of its own.
    EXPECT_EQ(off->stats().counters().size(),
              on->stats().counters().size());
}

// --- histogram thread safety -----------------------------------------

TEST(HistogramHammer, ConcurrentSamplersLoseNothing)
{
    StatGroup g("hammer");
    Histogram &h = g.histogram("lat", {8, 64, 512, 4096});

    constexpr unsigned kThreads = 8;
    constexpr u64 kIters = 20'000;
    std::atomic<bool> go{false};
    std::vector<std::thread> ts;
    for (unsigned i = 0; i < kThreads; ++i) {
        ts.emplace_back([&h, &go, i]() {
            while (!go.load(std::memory_order_acquire)) {
            }
            for (u64 k = 0; k < kIters; ++k)
                h.sample((k * (i + 1)) % 6000);
        });
    }
    go.store(true, std::memory_order_release);
    for (std::thread &t : ts)
        t.join();

    EXPECT_EQ(h.count(), u64(kThreads) * kIters);
    u64 expectSum = 0;
    for (unsigned i = 0; i < kThreads; ++i)
        for (u64 k = 0; k < kIters; ++k)
            expectSum += (k * (i + 1)) % 6000;
    EXPECT_EQ(h.sum(), expectSum);
    u64 bucketed = 0;
    for (u64 b : h.buckets())
        bucketed += b;
    EXPECT_EQ(bucketed, h.count());
}

// --- stats JSON -------------------------------------------------------

TEST(StatsJson, DumpJsonIsValidAndStable)
{
    StatGroup g("grp");
    g.counter("b.two").inc(2);
    g.counter("a.one").inc(1);
    g.histogram("h", {10, 20}).sample(15);

    std::ostringstream os;
    g.dumpJson(os);
    std::string j = os.str();
    EXPECT_TRUE(validJson(j)) << j;
    EXPECT_NE(j.find("\"name\""), std::string::npos);
    EXPECT_NE(j.find("\"counters\""), std::string::npos);
    EXPECT_NE(j.find("\"histograms\""), std::string::npos);
    // Sorted (map) key order makes the dump diffable.
    EXPECT_LT(j.find("a.one"), j.find("b.two"));

    std::ostringstream os2;
    g.dumpJson(os2);
    EXPECT_EQ(j, os2.str());
}

// --- warnings ----------------------------------------------------------

struct CaptureSink : LogSink
{
    std::vector<std::string> lines;
    void log(const std::string &msg) override { lines.push_back(msg); }
};

// warn() hands the installed sink one formatted line; a Controller
// whose trace path is unwritable reports it once, naming the path,
// when it is destroyed.
TEST(Logging, WarnReachesInstalledSinkAsOneLine)
{
    CaptureSink sink;
    LogSink *prev = setLogSink(&sink);
    warn("a", 1);
    std::vector<std::string> direct = sink.lines;
    sink.lines.clear();

    std::string path = ::testing::TempDir() + "no_such_dir/trace.json";
    {
        Config cfg = baseCfg();
        cfg.set("obs.trace.path", path);
        sim::Controller ctl(cfg);
        ctl.load(workload());
        ctl.run(500);
        EXPECT_TRUE(sink.lines.empty());
    }
    setLogSink(prev);

    EXPECT_EQ(direct, std::vector<std::string>{"a1"});
    ASSERT_EQ(sink.lines.size(), 1u);
    EXPECT_EQ(sink.lines[0], "obs: cannot write trace to " + path);
}

// EOF conservation: with an interval that does not divide the run
// length, the flush emits a trailing partial row so the per-row mode
// deltas sum exactly to the retired-instruction count — no tail of
// the run is silently dropped from the metrics stream.
TEST(IntervalMetrics, TrailingPartialIntervalConservesEof)
{
    auto ctl = runTraced(tracedCfg(2, "eof", 7'001));
    obs::MetricsWriter *m = ctl->obsSession()->metrics();
    ASSERT_NE(m, nullptr);
    ASSERT_GE(m->rows().size(), 2u);

    u64 total = ctl->tol().completedInsts();
    ASSERT_NE(total % 7'001, 0u)
        << "pick an interval that does not divide the run";
    u64 im = 0, bbm = 0, sbm = 0;
    for (const auto &row : m->rows()) {
        im += intField(row, "im");
        bbm += intField(row, "bbm");
        sbm += intField(row, "sbm");
    }
    EXPECT_EQ(im + bbm + sbm, total);
    const auto &last = m->rows().back();
    EXPECT_EQ(intField(last, "vt_end"), total)
        << "the flushed trailing row must close at end of run";
    EXPECT_LT(intField(last, "vt_end") - intField(last, "vt_start"),
              u64(7'001));
}

// With cores>1 each metrics row carries per-core retirement columns
// that partition the global mode deltas, and each core's mode spans
// live on its own named track.
TEST(IntervalMetrics, PerCoreColumnsPartitionGlobalDeltas)
{
    Config cfg = tracedCfg(2, "mc", 20'000);
    cfg.set("cores", s64(2));
    auto ctl = runTraced(cfg);
    obs::MetricsWriter *m = ctl->obsSession()->metrics();
    ASSERT_NE(m, nullptr);
    ASSERT_FALSE(m->rows().empty());
    for (const auto &row : m->rows()) {
        for (const char *mode : {"im", "bbm", "sbm"}) {
            u64 sum = intField(row, std::string("c0_") + mode) +
                      intField(row, std::string("c1_") + mode);
            EXPECT_EQ(sum, intField(row, mode)) << mode;
        }
    }

    obs::Tracer *t = ctl->obsSession()->tracer();
    ASSERT_NE(t, nullptr);
    std::set<u16> modeTracks;
    for (const obs::TraceEvent &e : t->events())
        if (std::string(e.component) == "mode")
            modeTracks.insert(e.track);
    EXPECT_TRUE(modeTracks.count(65)); // core-0's track
    EXPECT_TRUE(modeTracks.count(66)); // core-1's track
    std::ostringstream json;
    t->exportChromeJson(json);
    EXPECT_NE(json.str().find("core-0"), std::string::npos);
    EXPECT_NE(json.str().find("core-1"), std::string::npos);
}

} // namespace

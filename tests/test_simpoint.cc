/**
 * @file
 * SimPoint sampled-simulation tests.
 *
 * - BBV conservation: per-interval instruction counts sum exactly to
 *   the retired-instruction count, on synth workloads and (as a
 *   fuzz-labeled shard, see CMakeLists.txt) across random programs
 *   through the differential oracle;
 * - seeded determinism: identical clusters/representatives across
 *   repeated k-means runs and after a checkpoint round-trip of the
 *   profiler state;
 * - the accuracy harness: on >= 3 synth workloads, sampled
 *   cycles/energy estimates must land within SIMPOINT_ERROR_BOUND of
 *   the full detailed run (the bound documented in DESIGN.md);
 * - campaign determinism: sampled jobs=N byte-identical to jobs=1,
 *   and independent of the checkpoint-cache state, torn entries
 *   included; the store holds one image per simpoint, each restoring
 *   at its warm-up start; a sampled job's trace covers its profile
 *   pass;
 * - report schema: the CSV/JSON column order is pinned, a sampled
 *   row's plan rendering is pinned, and the timing/power columns are
 *   populated for the interp/fullopt presets.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <sstream>

#include <unistd.h>

#include "campaign/campaign.hh"
#include "fuzz/diffrun.hh"
#include "fuzz/generator.hh"
#include "sampling/simpoint.hh"
#include "sim/controller.hh"
#include "workloads/suite.hh"
#include "workloads/synth.hh"

using namespace darco;

namespace
{

/**
 * The documented relative-error bound of sampled estimates vs the
 * full detailed run (DESIGN.md "Error-bound methodology"). Observed
 * worst case on the suite is ~10% (433.milc energy); 15% leaves
 * headroom without hiding regressions of the kind the harness is
 * meant to catch (cold-start bias, misweighted clusters, overshoot
 * accounting), which show up as tens of percent.
 */
constexpr double SIMPOINT_ERROR_BOUND = 0.15;

/** A small phase-rich workload (IM warm-up, loops, cold diamonds). */
guest::Program
phasedWorkload(const std::string &name, u64 seed, u32 outer = 300)
{
    workloads::WorkloadParams p;
    p.name = name;
    p.seed = seed;
    p.numBlocks = 32;
    p.outerIters = outer;
    p.fpFrac = seed % 2 ? 0.25 : 0.0;
    p.loopFrac = 0.10;
    return workloads::synthesize(p);
}

campaign::RunOptions
sampledOpts(u64 interval, unsigned jobs = 1)
{
    campaign::RunOptions o;
    o.jobs = jobs;
    o.sampleMode = campaign::SampleMode::SimPoint;
    o.simpoint.interval = interval;
    return o;
}

/** Relative error |a-b| / |b|. */
double
relErr(double a, double b)
{
    return b != 0 ? std::fabs(a - b) / std::fabs(b) : std::fabs(a);
}

/** A synthetic three-phase BBV profile (no simulation needed). */
sampling::BbvProfile
syntheticProfile()
{
    sampling::BbvProfile p;
    p.interval = 1000;
    // Phases: BBs {0x100,0x140} / {0x200,0x240} / {0x300}; 8
    // intervals each, plus a short partial tail.
    auto mk = [&](GAddr a, GAddr b, u64 insts) {
        tol::Profiler::BbvInterval iv;
        iv.counts.emplace_back(a, insts / 2);
        iv.counts.emplace_back(b, insts - insts / 2);
        iv.insts = insts;
        return iv;
    };
    for (int i = 0; i < 8; ++i)
        p.intervals.push_back(mk(0x100, 0x140, 1000));
    for (int i = 0; i < 8; ++i)
        p.intervals.push_back(mk(0x200, 0x240, 1000));
    for (int i = 0; i < 8; ++i)
        p.intervals.push_back(mk(0x300, 0x300, 1000));
    p.intervals.push_back(mk(0x300, 0x300, 400));
    p.totalInsts = 24 * 1000 + 400;
    return p;
}

void
expectSameSimPoints(const sampling::SimPointResult &a,
                    const sampling::SimPointResult &b)
{
    EXPECT_EQ(a.interval, b.interval);
    EXPECT_EQ(a.totalInsts, b.totalInsts);
    EXPECT_EQ(a.k, b.k);
    EXPECT_EQ(a.bic, b.bic);
    EXPECT_EQ(a.bicSweep, b.bicSweep);
    EXPECT_EQ(a.assignment, b.assignment);
    ASSERT_EQ(a.points.size(), b.points.size());
    for (std::size_t i = 0; i < a.points.size(); ++i) {
        EXPECT_EQ(a.points[i].intervalIndex, b.points[i].intervalIndex);
        EXPECT_EQ(a.points[i].cluster, b.points[i].cluster);
        EXPECT_DOUBLE_EQ(a.points[i].weight, b.points[i].weight);
        EXPECT_EQ(a.points[i].startInst, b.points[i].startInst);
    }
}

} // namespace

// ---------------------------------------------------------------------
// BBV conservation
// ---------------------------------------------------------------------

TEST(Bbv, ConservationOnSynthWorkloads)
{
    for (u64 seed : {3ull, 4ull}) {
        Config cfg;
        cfg.parseLine("tol.bbv_interval=8192");
        cfg.parseLine("tol.bb_threshold=4");
        cfg.parseLine("tol.sb_threshold=12");
        cfg.parseLine("tol.min_edge_total=8");
        sim::Controller ctl(cfg);
        ctl.load(phasedWorkload("bbv-cons", seed));
        ctl.run();
        ASSERT_TRUE(ctl.finished());

        const tol::Profiler &prof = ctl.tol().profiler();
        ASSERT_TRUE(prof.bbvEnabled());
        EXPECT_GT(prof.bbvIntervals().size(), 4u);
        EXPECT_EQ(prof.checkBbvInvariants(
                      ctl.tol().completedInsts()),
                  "");
    }
}

TEST(Bbv, DisabledByDefaultCostsNothing)
{
    sim::Controller ctl{Config()};
    ctl.load(phasedWorkload("bbv-off", 5, 60));
    ctl.run();
    EXPECT_FALSE(ctl.tol().profiler().bbvEnabled());
    EXPECT_TRUE(ctl.tol().profiler().bbvIntervals().empty());
}

// ---------------------------------------------------------------------
// Seeded determinism
// ---------------------------------------------------------------------

TEST(KMeans, SeededDeterminism)
{
    sampling::BbvProfile profile = syntheticProfile();
    sampling::SimPointOptions so;
    so.interval = profile.interval;
    so.seed = 1234;

    sampling::SimPointResult a = sampling::pickSimPoints(profile, so);
    for (int rep = 0; rep < 3; ++rep) {
        sampling::SimPointResult b =
            sampling::pickSimPoints(profile, so);
        expectSameSimPoints(a, b);
    }

    // The raw clusterer is deterministic for a fixed Rng stream too.
    auto pts = sampling::projectBbvs(profile, 16, so.seed);
    Rng r1(99), r2(99);
    sampling::KMeans k1 = sampling::kmeans(pts, 3, r1, 64);
    sampling::KMeans k2 = sampling::kmeans(pts, 3, r2, 64);
    EXPECT_EQ(k1.assignment, k2.assignment);
    EXPECT_EQ(k1.centroids, k2.centroids);
    EXPECT_DOUBLE_EQ(k1.sse, k2.sse);
}

TEST(KMeans, RecoversSyntheticPhases)
{
    sampling::BbvProfile profile = syntheticProfile();
    sampling::SimPointOptions so;
    so.interval = profile.interval;
    sampling::SimPointResult r = sampling::pickSimPoints(profile, so);

    ASSERT_GE(r.k, 3u);
    // Every interval of one synthetic phase must share a cluster.
    ASSERT_EQ(r.assignment.size(), 25u);
    for (int phase = 0; phase < 3; ++phase) {
        u32 c = r.assignment[phase * 8];
        for (int i = 1; i < 8; ++i)
            EXPECT_EQ(r.assignment[phase * 8 + i], c)
                << "phase " << phase << " interval " << i;
    }
    // Weights are instruction shares and sum to 1.
    double wsum = 0;
    for (const sampling::SimPoint &p : r.points)
        wsum += p.weight;
    EXPECT_NEAR(wsum, 1.0, 1e-9);
}

TEST(Bbv, SnapshotRoundTripPreservesProfileAndSimPoints)
{
    Config cfg;
    cfg.parseLine("tol.bbv_interval=4096");
    cfg.parseLine("tol.bb_threshold=4");
    cfg.parseLine("tol.sb_threshold=12");
    cfg.parseLine("tol.min_edge_total=8");
    guest::Program prog = phasedWorkload("bbv-snap", 7);

    // Uninterrupted run.
    sim::Controller a(cfg);
    a.load(prog);
    a.run();
    ASSERT_TRUE(a.finished());
    sampling::BbvProfile pa = sampling::harvestBbv(a.tol().profiler());

    // Checkpoint mid-run, restore into a fresh controller, finish.
    sim::Controller b1(cfg);
    b1.load(prog);
    b1.run(pa.totalInsts / 2);
    std::stringstream img;
    b1.saveCheckpoint(img);

    sim::Controller b2(cfg);
    b2.restoreCheckpoint(img);
    b2.run();
    ASSERT_TRUE(b2.finished());
    sampling::BbvProfile pb = sampling::harvestBbv(b2.tol().profiler());

    ASSERT_EQ(pa.totalInsts, pb.totalInsts);
    ASSERT_EQ(pa.numIntervals(), pb.numIntervals());
    for (std::size_t i = 0; i < pa.numIntervals(); ++i) {
        EXPECT_EQ(pa.intervals[i].counts, pb.intervals[i].counts)
            << "interval " << i;
        EXPECT_EQ(pa.intervals[i].insts, pb.intervals[i].insts);
        EXPECT_EQ(pa.intervals[i].overhead, pb.intervals[i].overhead)
            << "interval " << i;
    }

    sampling::SimPointOptions so;
    so.interval = 4096;
    expectSameSimPoints(sampling::pickSimPoints(pa, so),
                        sampling::pickSimPoints(pb, so));
}

// ---------------------------------------------------------------------
// The accuracy harness
// ---------------------------------------------------------------------

TEST(Accuracy, SampledEstimatesWithinBoundOfFullRun)
{
    // Three structurally different suite workloads: branchy integer
    // (bzip2), memory-bound pointer chasing (mcf), FP streaming with
    // unrolled loops (lbm).
    auto suite = workloads::paperSuite(0.1);
    std::vector<std::pair<std::string, guest::Program>> wls;
    for (const char *name : {"401.bzip2", "429.mcf", "470.lbm"}) {
        const workloads::Benchmark *b =
            workloads::findBenchmark(suite, name);
        ASSERT_NE(b, nullptr) << name;
        wls.emplace_back(name, workloads::synthesize(b->params));
    }
    auto cfgs = campaign::presetConfigs({"fullopt"});
    std::vector<campaign::Job> jobs =
        campaign::expandMatrix(wls, cfgs, ~0ull, 0);

    campaign::RunOptions full;
    full.jobs = 2;
    campaign::CampaignResult fr = campaign::runCampaign(jobs, full);

    campaign::CampaignResult sr =
        campaign::runCampaign(jobs, sampledOpts(50'000, 2));

    ASSERT_EQ(fr.results.size(), sr.results.size());
    for (std::size_t i = 0; i < fr.results.size(); ++i) {
        const campaign::JobResult &f = fr.results[i];
        const campaign::JobResult &s = sr.results[i];
        ASSERT_TRUE(f.ok) << f.workload << ": " << f.error;
        ASSERT_TRUE(s.ok) << s.workload << ": " << s.error;
        // The functional results must be exact, not estimates.
        EXPECT_EQ(f.insts, s.insts) << f.workload;
        EXPECT_EQ(f.exitCode, s.exitCode);
        ASSERT_GT(f.cycles, 0.0);
        ASSERT_GT(f.energyJ, 0.0);
        EXPECT_GT(s.plan.points.size(), 0u);
        // The point of sampling: detailed simulation over a strict
        // subset of the program. Meaningful once the workload has
        // more intervals than the clusterer can pick as simpoints
        // (short workloads may sample everything, paying warm-up on
        // top).
        if (f.insts / 50'000 >= 20) {
            EXPECT_LT(s.sampledInsts, f.sampledInsts) << f.workload;
        }

        EXPECT_LE(relErr(s.cycles, f.cycles), SIMPOINT_ERROR_BOUND)
            << f.workload << ": sampled " << s.cycles << " vs full "
            << f.cycles;
        EXPECT_LE(relErr(s.energyJ, f.energyJ), SIMPOINT_ERROR_BOUND)
            << f.workload << ": sampled " << s.energyJ << " vs full "
            << f.energyJ;
        EXPECT_LE(relErr(s.ipc, f.ipc), SIMPOINT_ERROR_BOUND)
            << f.workload;
    }
}

// ---------------------------------------------------------------------
// Campaign determinism
// ---------------------------------------------------------------------

namespace
{

std::vector<campaign::Job>
sampledMatrix()
{
    std::vector<std::pair<std::string, guest::Program>> wls = {
        {"wl-a", phasedWorkload("wl-a", 11)},
        {"wl-b", phasedWorkload("wl-b", 12)},
    };
    std::vector<std::string> extra = {"tol.bb_threshold=4",
                                      "tol.sb_threshold=12",
                                      "tol.min_edge_total=8"};
    return campaign::expandMatrix(
        wls, campaign::presetConfigs({"interp", "fullopt"}, extra),
        ~0ull, 0);
}

/**
 * Scratch dir unique to the running test and process, so that two
 * copies of the suite (say, two builds) can run at once.
 */
std::string
scratchDir()
{
    const ::testing::TestInfo *ti =
        ::testing::UnitTest::GetInstance()->current_test_info();
    std::string dir = std::string(::testing::TempDir()) + "darco-" +
                      std::to_string(::getpid()) + "-" +
                      ti->test_suite_name() + "-" + ti->name();
    std::filesystem::remove_all(dir);
    return dir;
}

// Drop the trailing worker/wall_ms provenance columns (CSV) and the
// "worker"/"wall_ms" fields (JSON): wall_ms is host wall-clock, the
// only legitimately nondeterministic part of a report.
std::string
stripCsvProvenance(const std::string &csv)
{
    std::string out;
    std::istringstream is(csv);
    std::string line;
    while (std::getline(is, line)) {
        std::size_t wall = line.rfind(',');
        std::size_t worker = line.rfind(',', wall - 1);
        out += line.substr(0, worker) + '\n';
    }
    return out;
}

std::string
stripJsonProvenance(std::string json)
{
    for (const char *key : {"\"worker\": ", "\"wall_ms\": "}) {
        for (std::size_t at; (at = json.find(key)) != std::string::npos;) {
            std::size_t end = json.find(',', at);
            json.erase(at, end - at + 2);
        }
    }
    return json;
}

} // namespace

TEST(SampledCampaign, WorkerCountIsByteIdentical)
{
    std::vector<campaign::Job> jobs = sampledMatrix();
    campaign::CampaignResult a =
        campaign::runCampaign(jobs, sampledOpts(10'000, 1));
    campaign::CampaignResult b =
        campaign::runCampaign(jobs, sampledOpts(10'000, 3));
    for (const campaign::JobResult &r : a.results)
        EXPECT_TRUE(r.ok) << r.workload << "/" << r.configName << ": "
                          << r.error;
    EXPECT_EQ(stripCsvProvenance(a.csv()), stripCsvProvenance(b.csv()));
    EXPECT_EQ(stripJsonProvenance(a.json()),
              stripJsonProvenance(b.json()));
}

TEST(SampledCampaign, SkipPrefixIsRejectedNotSilentlyIgnored)
{
    std::vector<std::pair<std::string, guest::Program>> wls = {
        {"wl-skip", phasedWorkload("wl-skip", 13, 120)},
    };
    std::vector<campaign::Job> jobs = campaign::expandMatrix(
        wls, campaign::presetConfigs({"fullopt"}), ~0ull, 20'000);
    campaign::CampaignResult res =
        campaign::runCampaign(jobs, sampledOpts(10'000));
    ASSERT_EQ(res.results.size(), 1u);
    EXPECT_FALSE(res.results[0].ok);
    EXPECT_NE(res.results[0].error.find("skip"), std::string::npos)
        << res.results[0].error;
}

TEST(SampledCampaign, StoresOneRestorableImagePerSimPoint)
{
    std::string dir = scratchDir();
    std::vector<std::pair<std::string, guest::Program>> wls = {
        {"sp-img", phasedWorkload("sp-img", 9)},
    };
    std::vector<std::string> extra = {"tol.bb_threshold=4",
                                      "tol.sb_threshold=12",
                                      "tol.min_edge_total=8"};
    std::vector<campaign::Job> jobs = campaign::expandMatrix(
        wls, campaign::presetConfigs({"fullopt"}, extra), ~0ull, 0);
    const campaign::Job &job = jobs[0];

    campaign::DirStore store(dir);
    campaign::RunOptions opts = sampledOpts(10'000);
    opts.store = &store;
    campaign::CampaignResult res = campaign::runCampaign(jobs, opts);
    ASSERT_TRUE(res.results[0].ok) << res.results[0].error;

    // The job's own stage 1 and 2, for its simpoint list.
    Config pcfg = job.config;
    pcfg.set("tol.bbv_interval", s64(opts.simpoint.interval));
    sim::Controller prof(pcfg);
    prof.load(job.program);
    prof.run();
    sampling::SimPointResult sp = sampling::pickSimPoints(
        sampling::harvestBbv(prof.tol().profiler()), opts.simpoint);
    ASSERT_GT(sp.points.size(), 1u);
    expectSameSimPoints(res.results[0].plan, sp);

    // One image per simpoint, under its simpointKey, each restoring
    // into a fresh controller at the warm-up start (quiesce may
    // overshoot it by a region's remainder, never past the sample).
    std::size_t files = 0;
    for (const auto &e : std::filesystem::directory_iterator(dir))
        files += e.path().extension() == ".ckpt";
    EXPECT_EQ(files, sp.points.size());
    for (const sampling::SimPoint &p : sp.points) {
        std::string image;
        ASSERT_TRUE(store.fetch(
            campaign::simpointKey(job, opts.simpoint.interval,
                                  opts.sampleWarmup, p.intervalIndex),
            &image))
            << "interval " << p.intervalIndex;
        sim::Controller ctl(job.config);
        std::istringstream is(image);
        ctl.restoreCheckpoint(is);
        u64 target = p.startInst > opts.sampleWarmup
                         ? p.startInst - opts.sampleWarmup
                         : 0;
        EXPECT_GE(ctl.tol().completedInsts(), target);
        EXPECT_LE(ctl.tol().completedInsts(), p.startInst);
    }
    std::filesystem::remove_all(dir);
}

TEST(SampledCampaign, CheckpointCacheDoesNotChangeEstimates)
{
    std::string dir = scratchDir();
    std::vector<campaign::Job> jobs = sampledMatrix();

    campaign::DirStore store(dir);
    campaign::RunOptions opts = sampledOpts(10'000, 2);
    opts.store = &store;
    campaign::CampaignResult cold = campaign::runCampaign(jobs, opts);
    campaign::CampaignResult warm = campaign::runCampaign(jobs, opts);
    campaign::CampaignResult none =
        campaign::runCampaign(jobs, sampledOpts(10'000, 2));

    // Tear every image in its last section, stats, which claims one
    // counter more than it holds: each restore throws after the Tol
    // was rebuilt, and the walk rewinds the half-restored controller
    // in place, by load() for a job's first simpoint and to the
    // image it recomputed last for the others. Where the cold walk
    // reached an image from a controller that had just measured a
    // window, this one walks untimed, so every recomputed image must
    // equal its cold bytes: an image holds no timing state.
    std::map<std::filesystem::path, std::string> images;
    for (const auto &e : std::filesystem::directory_iterator(dir)) {
        std::ifstream in(e.path(), std::ios::binary);
        images[e.path()] = {std::istreambuf_iterator<char>(in), {}};
    }
    ASSERT_GT(images.size(), jobs.size());
    for (const auto &[path, cold] : images) {
        std::string bytes = cold;
        std::size_t at = bytes.rfind(std::string("\x05\x00stats", 7));
        ASSERT_NE(at, std::string::npos);
        char &count = bytes[at + 7 + 8]; // low byte, after the length
        ASSERT_NE(u8(count), 0xff);
        ++count;
        std::ofstream(path, std::ios::binary) << bytes;
    }
    campaign::CampaignResult torn = campaign::runCampaign(jobs, opts);
    for (const auto &[path, bytes] : images) {
        std::ifstream in(path, std::ios::binary);
        EXPECT_TRUE(std::string(std::istreambuf_iterator<char>(in), {}) ==
                    bytes)
            << path;
    }

    ASSERT_EQ(cold.results.size(), warm.results.size());
    for (std::size_t i = 0; i < cold.results.size(); ++i) {
        const campaign::JobResult &c = cold.results[i];
        const campaign::JobResult &w = warm.results[i];
        const campaign::JobResult &n = none.results[i];
        const campaign::JobResult &t = torn.results[i];
        ASSERT_TRUE(c.ok) << c.error;
        EXPECT_TRUE(c.checkpointStored) << c.workload;
        EXPECT_TRUE(w.checkpointHit) << w.workload;
        EXPECT_TRUE(t.checkpointStored) << t.workload;
        EXPECT_FALSE(t.checkpointHit) << t.workload;
        for (const campaign::JobResult *x : {&w, &n, &t}) {
            EXPECT_EQ(c.cycles, x->cycles) << c.workload;
            EXPECT_EQ(c.ipc, x->ipc) << c.workload;
            EXPECT_EQ(c.energyJ, x->energyJ) << c.workload;
            EXPECT_EQ(c.sampledInsts, x->sampledInsts);
            expectSameSimPoints(c.plan, x->plan);
        }
    }
    std::filesystem::remove_all(dir);
}

TEST(SampledCampaign, TraceCoversTheProfilePass)
{
    // A sampled job is traced like a full-mode one: one trace and one
    // metrics file, written by its profile pass, whose counters are
    // the job's stats. The measuring controller writes neither.
    std::string dir = scratchDir();
    std::vector<std::pair<std::string, guest::Program>> wls = {
        {"sp-trace", phasedWorkload("sp-trace", 9)},
    };
    std::vector<std::string> extra = {"tol.bb_threshold=4",
                                      "tol.sb_threshold=12",
                                      "tol.min_edge_total=8"};
    std::vector<campaign::Job> jobs = campaign::expandMatrix(
        wls, campaign::presetConfigs({"fullopt"}, extra), ~0ull, 0);
    campaign::RunOptions opts = sampledOpts(10'000);
    opts.traceDir = dir;
    campaign::CampaignResult res = campaign::runCampaign(jobs, opts);
    const campaign::JobResult &r = res.results[0];
    ASSERT_TRUE(r.ok) << r.error;
    ASSERT_FALSE(r.plan.points.empty());
    EXPECT_GT(r.sampledInsts, 0u);

    std::vector<std::string> files;
    for (const auto &e : std::filesystem::directory_iterator(dir))
        files.push_back(e.path().filename().string());
    std::sort(files.begin(), files.end());
    EXPECT_EQ(files, (std::vector<std::string>{
                         "sp-trace-fullopt.metrics.jsonl",
                         "sp-trace-fullopt.trace.json"}));

    // The metrics rows tile the whole profile pass.
    std::ifstream in(dir + "/sp-trace-fullopt.metrics.jsonl");
    u64 rows = 0, modes = 0;
    for (std::string line; std::getline(in, line); ++rows) {
        for (const char *key : {"\"im\":", "\"bbm\":", "\"sbm\":"}) {
            std::size_t at = line.find(key);
            ASSERT_NE(at, std::string::npos) << line;
            modes += std::stoull(line.substr(at + std::strlen(key)));
        }
    }
    EXPECT_GT(rows, 1u);
    EXPECT_EQ(modes, r.insts);
    std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------
// Report schema
// ---------------------------------------------------------------------

TEST(Report, SampledRowsCarryTheirPlan)
{
    campaign::CampaignResult res;
    res.results.resize(3);
    campaign::JobResult &sampled = res.results[0];
    sampled.sampleMode = "simpoint";
    sampled.plan.interval = 1000;
    sampled.plan.totalInsts = 2500;
    sampled.plan.k = 2;
    sampled.plan.bic = -12.34;
    sampled.plan.bicSweep = {{1, -20.06}, {2, -12.34}};
    sampled.plan.points = {{0, 1, 0.79996, 0}, {2, 0, 0.2, 2000}};
    sampled.plan.assignment = {1, 1, 0};
    res.results[1].sampleMode = "simpoint"; // failed before its plan
    res.results[2].sampleMode = "full";

    std::string json = res.json();
    EXPECT_NE(json.find(
                  "\"stats_full\": null, \"simpoint_plan\": "
                  "{\"interval\": 1000, \"total_insts\": 2500, \"k\": 2, "
                  "\"bic\": -12.3, \"bic_sweep\": [{\"k\": 1, \"bic\": "
                  "-20.1}, {\"k\": 2, \"bic\": -12.3}], \"points\": "
                  "[{\"interval_index\": 0, \"start_inst\": 0, "
                  "\"cluster\": 1, \"weight\": 0.8000}, "
                  "{\"interval_index\": 2, \"start_inst\": 2000, "
                  "\"cluster\": 0, \"weight\": 0.2000}], "
                  "\"assignment\": [1, 1, 0]}, \"error\": \"\"}"),
              std::string::npos)
        << json;
    EXPECT_NE(json.find("\"simpoint_plan\": null, \"error\""),
              std::string::npos);
    // One plan per sampled row; a full-mode row has none, and its
    // simpoints cell stays 0.
    std::size_t plans = 0;
    for (std::size_t at = 0;
         (at = json.find("simpoint_plan", at)) != std::string::npos;
         ++at)
        ++plans;
    EXPECT_EQ(plans, 2u);
    std::string full = json.substr(json.rfind("  {"));
    EXPECT_EQ(full.find("simpoint_plan"), std::string::npos);
    EXPECT_NE(full.find("\"simpoints\": 0,"), std::string::npos);
    EXPECT_NE(json.find("\"simpoints\": 2,"), std::string::npos);
    EXPECT_NE(res.csv().find(",simpoint,2,"), std::string::npos);
}

TEST(Report, ColumnOrderIsStableAndDocumented)
{
    // Pinned: changing this header is a report-schema break. Keep in
    // sync with the schema documented in campaign.hh and README.md.
    EXPECT_EQ(campaign::CampaignResult::csvHeader(),
              "workload,config,ok,finished,exit_code,insts,bbs"
              ",cycles,ipc,energy_j,avg_w"
              ",sample_mode,simpoints,sampled_insts"
              ",tol.guest_im,tol.guest_bbm,tol.guest_sbm"
              ",tol.translations_bb,tol.translations_sb"
              ",cc.evictions,cc.flushes,sync.syscalls"
              ",effective_config,checkpoint,error,worker,wall_ms");
}

TEST(Report, TimingPowerColumnsPopulatedForPresets)
{
    std::vector<std::pair<std::string, guest::Program>> wls = {
        {"wl-r", phasedWorkload("wl-r", 31, 120)},
    };
    std::vector<std::string> extra = {"tol.bb_threshold=4",
                                      "tol.sb_threshold=12",
                                      "tol.min_edge_total=8"};
    std::vector<campaign::Job> jobs = campaign::expandMatrix(
        wls, campaign::presetConfigs({"interp", "fullopt"}, extra),
        ~0ull, 0);
    campaign::RunOptions opts;
    opts.jobs = 2;
    campaign::CampaignResult res = campaign::runCampaign(jobs, opts);

    std::string csv = res.csv();
    EXPECT_EQ(csv.substr(0, csv.find('\n')),
              campaign::CampaignResult::csvHeader());
    for (const campaign::JobResult &r : res.results) {
        ASSERT_TRUE(r.ok) << r.error;
        EXPECT_EQ(r.sampleMode, "full");
        EXPECT_GT(r.cycles, 0.0) << r.configName;
        EXPECT_GT(r.ipc, 0.0) << r.configName;
        EXPECT_GT(r.energyJ, 0.0) << r.configName;
        EXPECT_GT(r.avgPowerW, 0.0) << r.configName;
        EXPECT_EQ(r.sampledInsts, r.insts) << r.configName;
    }
    // interp must burn more cycles than the optimizing default.
    EXPECT_GT(res.results[0].cycles, res.results[1].cycles);

    std::string json = res.json();
    for (const char *key :
         {"\"cycles\": ", "\"ipc\": ", "\"energy_j\": ",
          "\"avg_w\": ", "\"sample_mode\": ", "\"simpoints\": ",
          "\"sampled_insts\": "}) {
        EXPECT_NE(json.find(key), std::string::npos) << key;
    }

    // --no-timing zeroes the timing columns but keeps the schema.
    campaign::RunOptions off;
    off.jobs = 1;
    off.timing = false;
    campaign::CampaignResult res2 = campaign::runCampaign(jobs, off);
    EXPECT_TRUE(res2.results[0].ok);
    EXPECT_EQ(res2.results[0].cycles, 0.0);
    EXPECT_EQ(res2.csv().substr(0, res2.csv().find('\n')),
              campaign::CampaignResult::csvHeader());
}

// ---------------------------------------------------------------------
// Fuzz-labeled shard: BBV conservation through the oracle
// ---------------------------------------------------------------------

TEST(BbvFuzzShard, ConservationAcrossRandomPrograms)
{
    // The oracle itself enforces Profiler::checkBbvInvariants when a
    // cell runs with BBV profiling (see fuzz/diffrun.cc); this shard
    // drives it across random programs with profiling forced on.
    fuzz::DiffOptions opts;
    opts.extra = {"tol.bbv_interval=2048"};
    for (u64 seed = 500; seed < 516; ++seed) {
        fuzz::GenParams gp;
        gp.seed = seed;
        guest::Program prog = fuzz::generate(gp);
        fuzz::DiffResult res = fuzz::diffRun(prog, seed, opts);
        EXPECT_TRUE(res.ok) << "seed " << seed << "\n" << res.report();
        for (const fuzz::RunOutcome &run : res.runs) {
            EXPECT_TRUE(run.bbvChecked) << run.config;
        }
    }
}

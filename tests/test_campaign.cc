/**
 * @file
 * Campaign-engine tests: the work-stealing pool runs every task, a
 * parallel matrix run produces per-job results identical to a serial
 * run, and the fast-forward checkpoint cache is stored on the first
 * invocation and hit on the second without changing any result; a
 * run without a cache measures the same. A job run with tol.verify
 * reports its translation proofs without changing any other cell,
 * and a refuted proof fails it.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include <unistd.h>

#include "campaign/campaign.hh"
#include "common/logging.hh"
#include "guest/asm.hh"
#include "sim/controller.hh"
#include "workloads/suite.hh"

using namespace darco;
using namespace darco::campaign;

namespace
{

guest::Program
smallWorkload(const std::string &name, u64 seed)
{
    workloads::WorkloadParams p;
    p.name = name;
    p.seed = seed;
    p.numBlocks = 32;
    p.outerIters = 140;
    p.fpFrac = seed % 2 ? 0.2 : 0.0;
    p.loopFrac = 0.10;
    return workloads::synthesize(p);
}

std::vector<Job>
matrix12()
{
    // 3 workloads x 4 configs = the 12-job matrix of the spec.
    std::vector<std::pair<std::string, guest::Program>> wls = {
        {"wl-a", smallWorkload("wl-a", 11)},
        {"wl-b", smallWorkload("wl-b", 12)},
        {"wl-c", smallWorkload("wl-c", 13)},
    };
    // Fast promotion so every mode is exercised at this size.
    std::vector<std::string> extra = {"tol.bb_threshold=4",
                                      "tol.sb_threshold=12",
                                      "tol.min_edge_total=8"};
    return expandMatrix(
        wls,
        presetConfigs({"interp", "noopt", "fullopt", "tinycc"}, extra),
        ~0ull, 0);
}

/** Everything except wall-clock and cache provenance must match. */
void
expectSameResults(const CampaignResult &a, const CampaignResult &b)
{
    ASSERT_EQ(a.results.size(), b.results.size());
    for (std::size_t i = 0; i < a.results.size(); ++i) {
        const JobResult &x = a.results[i];
        const JobResult &y = b.results[i];
        EXPECT_EQ(x.workload, y.workload);
        EXPECT_EQ(x.configName, y.configName);
        EXPECT_EQ(x.ok, y.ok) << x.workload << "/" << x.configName;
        EXPECT_EQ(x.error, y.error);
        EXPECT_EQ(x.finished, y.finished);
        EXPECT_EQ(x.exitCode, y.exitCode)
            << x.workload << "/" << x.configName;
        EXPECT_EQ(x.insts, y.insts) << x.workload << "/" << x.configName;
        EXPECT_EQ(x.bbs, y.bbs);
        EXPECT_EQ(x.proved, y.proved);
        EXPECT_EQ(x.refuted, y.refuted);
        EXPECT_EQ(x.unknown, y.unknown);
    }
}

/**
 * Cold and warm checkpoint-cache runs measure the same restored
 * state: beyond the architectural results, every non-provenance
 * column and the full stats map must match.
 */
void
expectSameMeasurement(const CampaignResult &a, const CampaignResult &b)
{
    expectSameResults(a, b);
    ASSERT_EQ(a.results.size(), b.results.size());
    for (std::size_t i = 0; i < a.results.size(); ++i) {
        const JobResult &x = a.results[i];
        const JobResult &y = b.results[i];
        const std::string job = x.workload + "/" + x.configName;
        EXPECT_EQ(x.cycles, y.cycles) << job;
        EXPECT_EQ(x.ipc, y.ipc) << job;
        EXPECT_EQ(x.energyJ, y.energyJ) << job;
        EXPECT_EQ(x.avgPowerW, y.avgPowerW) << job;
        EXPECT_EQ(x.sampledInsts, y.sampledInsts) << job;
        EXPECT_EQ(x.effectiveConfig, y.effectiveConfig) << job;
        EXPECT_EQ(x.stats, y.stats) << job;
    }
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

/** Fast promotion, so that every mode runs at smallWorkload's size. */
const std::vector<std::string> fastPromotion = {
    "tol.bb_threshold=4", "tol.sb_threshold=12", "tol.min_edge_total=8"};

/** A row's CSV cells through column 22, sync.syscalls. */
std::string
cellsThrough22(const JobResult &r)
{
    std::string row = csvRow(r);
    std::size_t end = 0;
    for (int i = 0; i < 22; ++i)
        end = row.find(',', end) + 1;
    return row.substr(0, end - 1);
}

/**
 * One proving job over a proof-suite program at scale 1, as
 * darco_campaign runs it: a 300,000-instruction budget, the preset
 * and then `extra` on top of tol.verify=true.
 */
Job
proofJob(const std::string &workload, const std::string &preset,
         std::vector<std::string> extra = {})
{
    std::vector<workloads::Benchmark> suite = workloads::proofSuite(1.0);
    extra.insert(extra.begin(), "tol.verify=true");
    return expandMatrix(
        {{workload, workloads::synthesize(
                        workloads::findBenchmark(suite, workload)->params)}},
        presetConfigs({preset}, extra), 300'000, 0)[0];
}

/** Where a DirStore at `dir` keeps the image for `key`. */
std::string
imagePath(const std::string &dir, const std::string &key)
{
    return dir + "/" + key + ".ckpt";
}

} // namespace

TEST(Pool, RunsEveryTaskOnAllWorkers)
{
    std::atomic<int> count{0};
    std::vector<std::function<void()>> tasks;
    for (int i = 0; i < 200; ++i)
        tasks.push_back([&count]() { ++count; });
    Pool(4).run(std::move(tasks));
    EXPECT_EQ(count.load(), 200);
}

TEST(Pool, SingleWorkerRunsInline)
{
    std::atomic<int> count{0};
    std::vector<std::function<void()>> tasks;
    for (int i = 0; i < 10; ++i)
        tasks.push_back([&count]() { ++count; });
    Pool(1).run(std::move(tasks));
    EXPECT_EQ(count.load(), 10);
}

TEST(Campaign, ExpandMatrixIsRowMajor)
{
    std::vector<Job> jobs = matrix12();
    ASSERT_EQ(jobs.size(), 12u);
    EXPECT_EQ(jobs[0].workload, "wl-a");
    EXPECT_EQ(jobs[0].configName, "interp");
    EXPECT_EQ(jobs[3].workload, "wl-a");
    EXPECT_EQ(jobs[3].configName, "tinycc");
    EXPECT_EQ(jobs[4].workload, "wl-b");
    EXPECT_EQ(jobs[4].configName, "interp");
}

// Every listed preset resolves, and the error for any other name
// lists them all, in order.
TEST(Campaign, PresetNamesResolve)
{
    for (const std::string &name : presetNames())
        EXPECT_NO_THROW(presetOverrides(name)) << name;
    try {
        presetOverrides("bogus");
        FAIL() << "an unknown preset resolved";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find(
                      "unknown config preset 'bogus' (expected "
                      "interp|noopt|fullopt|tinycc|async)"),
                  std::string::npos)
            << e.what();
    }
}

TEST(Campaign, ParallelMatchesSerial)
{
    std::vector<Job> jobs = matrix12();

    RunOptions serial;
    serial.jobs = 1;
    CampaignResult a = runCampaign(jobs, serial);

    RunOptions parallel;
    parallel.jobs = 4;
    CampaignResult b = runCampaign(jobs, parallel);

    for (const JobResult &r : a.results)
        EXPECT_TRUE(r.ok) << r.workload << "/" << r.configName << ": "
                          << r.error;
    expectSameResults(a, b);

    // Full stats snapshots must agree too (per-job isolation).
    for (std::size_t i = 0; i < a.results.size(); ++i)
        EXPECT_EQ(a.results[i].stats, b.results[i].stats)
            << a.results[i].workload << "/" << a.results[i].configName;
}

TEST(Campaign, CheckpointCacheStoresThenHits)
{
    std::string dir = scratchDir();
    std::vector<std::pair<std::string, guest::Program>> wls = {
        {"wl-ck", smallWorkload("wl-ck", 21)},
    };
    std::vector<std::string> extra = {"tol.bb_threshold=4",
                                      "tol.sb_threshold=12",
                                      "tol.min_edge_total=8"};
    std::vector<Job> jobs = expandMatrix(
        wls, presetConfigs({"fullopt", "tinycc"}, extra), ~0ull,
        40'000);

    DirStore store(dir);
    RunOptions opts;
    opts.jobs = 2;
    opts.store = &store;

    CampaignResult cold = runCampaign(jobs, opts);
    EXPECT_EQ(cold.checkpointMisses, 2u);
    EXPECT_EQ(cold.checkpointHits, 0u);
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const JobResult &r = cold.results[i];
        EXPECT_TRUE(r.ok) << r.error;
        EXPECT_TRUE(r.checkpointStored);
        EXPECT_TRUE(std::filesystem::exists(
            imagePath(dir, jobKeyString(jobs[i]))));
    }

    CampaignResult warm = runCampaign(jobs, opts);
    EXPECT_EQ(warm.checkpointHits, 2u);
    EXPECT_EQ(warm.checkpointMisses, 0u);
    expectSameMeasurement(cold, warm);

    // And both measure what a run without a store measures: it, too,
    // restores its prefix image before the measured region.
    RunOptions plain;
    plain.jobs = 1;
    CampaignResult base = runCampaign(jobs, plain);
    for (const JobResult &r : base.results)
        EXPECT_FALSE(r.checkpointHit || r.checkpointStored);
    expectSameMeasurement(base, warm);

    std::filesystem::remove_all(dir);
}

TEST(Campaign, CorruptCheckpointFallsBackToColdRun)
{
    std::string dir = scratchDir();
    std::vector<std::pair<std::string, guest::Program>> wls = {
        {"wl-cc", smallWorkload("wl-cc", 51)},
    };
    std::vector<Job> jobs = expandMatrix(
        wls, presetConfigs({"fullopt"}), ~0ull, 30'000);

    DirStore store(dir);
    RunOptions opts;
    opts.jobs = 1;
    opts.store = &store;

    // Poison the cache entry with garbage: the run must treat it as
    // a miss (cold run + overwrite), not fail the job.
    std::filesystem::create_directories(dir);
    {
        std::ofstream bad(imagePath(dir, jobKeyString(jobs[0])),
                          std::ios::binary);
        bad << "definitely not a checkpoint";
    }
    CampaignResult res = runCampaign(jobs, opts);
    ASSERT_EQ(res.results.size(), 1u);
    EXPECT_TRUE(res.results[0].ok) << res.results[0].error;
    EXPECT_FALSE(res.results[0].checkpointHit);
    EXPECT_TRUE(res.results[0].checkpointStored);

    // The overwritten entry must now be a genuine hit.
    CampaignResult again = runCampaign(jobs, opts);
    EXPECT_TRUE(again.results[0].checkpointHit);
    expectSameMeasurement(res, again);

    std::filesystem::remove_all(dir);
}

TEST(Campaign, ReportsCoverEveryJob)
{
    std::vector<std::pair<std::string, guest::Program>> wls = {
        {"wl-r", smallWorkload("wl-r", 31)},
    };
    std::vector<Job> jobs =
        expandMatrix(wls, presetConfigs({"interp", "fullopt"}), ~0ull,
                     0);
    RunOptions opts;
    opts.jobs = 2;
    CampaignResult res = runCampaign(jobs, opts);

    std::string csv = res.csv();
    EXPECT_NE(csv.find("wl-r,interp"), std::string::npos);
    EXPECT_NE(csv.find("wl-r,fullopt"), std::string::npos);
    std::string json = res.json();
    EXPECT_NE(json.find("\"config\": \"fullopt\""), std::string::npos);
    EXPECT_NE(json.find("\"insts\": "), std::string::npos);

    // A job's stats record renders as the bytes its Controller's
    // dumpJson writes, in stats_full too; a job without one is null.
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        sim::Controller ctl(jobs[i].config);
        ctl.load(jobs[i].program);
        ctl.run();
        std::ostringstream dump;
        ctl.stats().dumpJson(dump);
        EXPECT_EQ(statsJson(res.results[i]), dump.str());
        EXPECT_NE(json.find("\"stats_full\": " + dump.str() + ","),
                  std::string::npos);
    }
    EXPECT_EQ(statsJson(JobResult{}), "null");
}

TEST(Campaign, InvalidConfigIsRejectedAtMatrixExpansion)
{
    std::vector<std::pair<std::string, guest::Program>> wls = {
        {"wl-f", smallWorkload("wl-f", 41)},
    };
    // Schema validation happens when the matrix is expanded, naming
    // the config variant and the offending key — a bad sweep fails
    // before any simulation runs.
    Config bad;
    bad.parseLine("cc.policy=bogus");
    std::vector<std::pair<std::string, Config>> cfgs = {
        {"bad", bad},
        {"good", Config{}},
    };
    try {
        expandMatrix(wls, cfgs, ~0ull, 0);
        FAIL() << "expandMatrix accepted an invalid config";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("cc.policy"),
                  std::string::npos)
            << e.what();
        EXPECT_NE(std::string(e.what()).find("'bad'"),
                  std::string::npos)
            << e.what();
    }
}

TEST(Campaign, JobFailureIsCapturedNotThrown)
{
    // A job built outside expandMatrix (bypassing up-front
    // validation) still fails per-job, not per-campaign: the
    // Controller's own schema validation throws and the pool
    // captures it.
    Job badJob;
    badJob.workload = "wl-f";
    badJob.configName = "bad";
    badJob.program = smallWorkload("wl-f", 41);
    badJob.config.parseLine("cc.policy=bogus");
    Job goodJob = badJob;
    goodJob.configName = "good";
    goodJob.config = Config{};
    RunOptions opts;
    opts.jobs = 2;
    CampaignResult res = runCampaign({badJob, goodJob}, opts);
    ASSERT_EQ(res.results.size(), 2u);
    EXPECT_FALSE(res.results[0].ok);
    EXPECT_NE(res.results[0].error.find("cc.policy"),
              std::string::npos);
    EXPECT_TRUE(res.results[1].ok) << res.results[1].error;
}

// A guest fault fails its job like any other error, with one pool
// thread or several: runJob catches it, and the row names the fault.
TEST(Campaign, GuestFaultFailsTheJob)
{
    using namespace guest;
    Assembler a;
    a.movri(RAX, 7);
    a.movri(RBX, 0);
    a.idivrr(RAX, RBX);
    a.hlt();
    std::vector<Job> jobs =
        expandMatrix({{"div0", a.finish("div0")}},
                     presetConfigs({"interp", "fullopt"}), ~0ull, 0);
    for (unsigned workers : {1u, 2u}) {
        RunOptions opts;
        opts.jobs = workers;
        CampaignResult res = runCampaign(jobs, opts);
        ASSERT_EQ(res.results.size(), 2u);
        for (const JobResult &r : res.results) {
            EXPECT_FALSE(r.ok) << r.configName;
            EXPECT_EQ(r.error,
                      "guest fault at pc 0x100c: integer division by "
                      "zero")
                << r.configName;
        }
    }
}

// The controller that computes a --skip prefix image writes no trace
// or metrics file: an unwritable trace path warns once per job, for
// the measured controller only.
TEST(Campaign, SkipPrefixWritesNoTrace)
{
    std::vector<std::pair<std::string, guest::Program>> wls = {
        {"wl-a", smallWorkload("wl-a", 11)}};
    std::vector<Job> jobs = expandMatrix(
        wls,
        presetConfigs({"fullopt"},
                      {"obs.trace.path=no-such-dir/t.json"}),
        ~0ull, 5000);

    struct CaptureSink : LogSink
    {
        std::vector<std::string> lines;
        void log(const std::string &l) override { lines.push_back(l); }
    } sink;
    LogSink *prev = setLogSink(&sink);
    RunOptions opts;
    opts.timing = false;
    JobResult r = runJob(jobs[0], opts);
    setLogSink(prev);

    ASSERT_TRUE(r.ok) << r.error;
    ASSERT_EQ(sink.lines.size(), 1u);
    EXPECT_EQ(sink.lines[0],
              "obs: cannot write trace to no-such-dir/t.json");
}

// Two threads storing different complete images under one key: the
// exclusively-created (pid+tid-named) temp files can never
// interleave, so every observation of the image — and the file left
// at the end — is exactly one writer's complete image.
TEST(Campaign, ConcurrentCheckpointWritersNeverTear)
{
    namespace fs = std::filesystem;
    std::string dir = scratchDir();
    DirStore store(dir);
    const std::string key = "c0ffee";
    const std::string path = imagePath(dir, key);

    // Distinct, recognizable images of different lengths (a torn or
    // interleaved write cannot reproduce either).
    std::string imgA(4096, 'A');
    std::string imgB(8192, 'B');

    // A failed write is reported with warn(); count them.
    struct CountingSink : LogSink
    {
        std::atomic<int> warnings{0};
        void log(const std::string &) override { ++warnings; }
    } sink;
    LogSink *prev = setLogSink(&sink);

    constexpr int iters = 200;
    std::atomic<int> torn{0};
    auto writer = [&](const std::string &img) {
        for (int i = 0; i < iters; ++i) {
            store.store(key, img);
            std::string seen;
            if (store.fetch(key, &seen) && seen != imgA && seen != imgB)
                ++torn;
        }
    };
    std::thread ta(writer, imgA);
    std::thread tb(writer, imgB);
    ta.join();
    tb.join();
    setLogSink(prev);
    EXPECT_EQ(sink.warnings.load(), 0);
    EXPECT_EQ(torn.load(), 0);

    std::string final;
    ASSERT_TRUE(store.fetch(key, &final));
    EXPECT_TRUE(final == imgA || final == imgB)
        << "size " << final.size();

    // No leaked temp files.
    for (const auto &e : fs::directory_iterator(dir))
        EXPECT_EQ(e.path().string(), path) << e.path();
    fs::remove_all(dir);
}

// Proving changes no cell of a timed matrix when every proof passes:
// the row and stats record are read before the proof pass, which may
// publish the async jobs that are due. The counts cover every
// translation (interp translates none), and only proving rows carry
// them in the JSON report.
TEST(CampaignProofs, ProvingChangesNoCellAndCountsEveryProof)
{
    std::vector<std::pair<std::string, guest::Program>> wls = {
        {"wl-a", smallWorkload("wl-a", 11)},
        {"wl-b", smallWorkload("wl-b", 12)},
        {"wl-c", smallWorkload("wl-c", 13)},
    };
    std::vector<std::string> extra = fastPromotion;
    std::vector<Job> plain =
        expandMatrix(wls, presetConfigs(presetNames(), extra), ~0ull, 0);
    extra.push_back("tol.verify=true");
    std::vector<Job> proving =
        expandMatrix(wls, presetConfigs(presetNames(), extra), ~0ull, 0);
    ASSERT_EQ(proving.size(), 15u);

    RunOptions opts;
    opts.jobs = 4;
    CampaignResult off = runCampaign(plain, opts);
    CampaignResult on = runCampaign(proving, opts);
    std::string json = on.json();
    for (std::size_t i = 0; i < proving.size(); ++i) {
        const JobResult &x = off.results[i];
        const JobResult &y = on.results[i];
        SCOPED_TRACE(y.workload + "/" + y.configName);
        EXPECT_TRUE(y.ok) << y.error;
        EXPECT_EQ(x.proved + x.refuted + x.unknown, 0u);
        EXPECT_EQ(y.refuted + y.unknown, 0u);
        if (y.configName != "interp") {
            EXPECT_GT(y.proved, 0u);
        }
        EXPECT_EQ(cellsThrough22(x), cellsThrough22(y));
        EXPECT_EQ(statsJson(x), statsJson(y));
        EXPECT_NE(json.find("\"stats_full\": " + statsJson(y) +
                            ", \"proofs\": {\"proved\": " +
                            std::to_string(y.proved) +
                            ", \"refuted\": 0, \"unknown\": 0}, "
                            "\"error\": \"\"}"),
                  std::string::npos);
    }
    EXPECT_EQ(off.json().find("\"proofs\""), std::string::npos);
}

// A refuted proof fails a run that raised no error (it runs its whole
// budget): the row is read as usual, and its error names the refuted
// translation and its witness.
TEST(CampaignProofs, RefutedProofFailsACompletedRun)
{
    RunOptions opts;
    opts.timing = false;
    JobResult r =
        runJob(proofJob("int_basic", "noopt", {"debug.drop_guard=true"}),
               opts);
    EXPECT_FALSE(r.ok);
    EXPECT_GE(r.insts, 300'000u);
    EXPECT_NE(statsJson(r), "null");
    EXPECT_GT(r.refuted, 0u);
    EXPECT_EQ(r.error.rfind("proofs: ", 0), 0u) << r.error;
    EXPECT_NE(r.error.find("\nREFUTED SB @"), std::string::npos)
        << r.error;
    EXPECT_NE(r.error.find("\n    witness: "), std::string::npos)
        << r.error;
}

// A run that diverges still reports the proofs of the translations it
// published: the error carries the divergence, then the proofs. A
// job that fails before any proof reports none.
TEST(CampaignProofs, DivergedRunStillReportsItsProofs)
{
    RunOptions opts;
    opts.timing = true;
    Job bad = proofJob("int_basic", "fullopt");
    bad.config.parseLine("cc.policy=bogus");
    CampaignResult res;
    res.results = {
        runJob(proofJob("int_basic", "fullopt", {"debug.drop_guard=true"}),
               opts),
        runJob(bad, opts)};
    const JobResult &r = res.results[0];
    EXPECT_FALSE(r.ok);
    EXPECT_GT(r.proved, 0u);
    EXPECT_GT(r.refuted, 0u);
    EXPECT_EQ(r.error.rfind("syscall sync failed", 0), 0u) << r.error;
    std::size_t proofs = r.error.find("\nproofs: ");
    ASSERT_NE(proofs, std::string::npos) << r.error;
    EXPECT_NE(r.error.find("\nREFUTED ", proofs), std::string::npos);

    EXPECT_FALSE(res.results[1].ok);
    std::string json = res.json();
    EXPECT_NE(json.find("\"proofs\": {\"proved\": " +
                        std::to_string(r.proved) + ", \"refuted\": " +
                        std::to_string(r.refuted) +
                        ", \"unknown\": 0}"),
              std::string::npos);
    EXPECT_NE(json.find("\"proofs\": null"), std::string::npos);
}

// A --skip proving job measures (and proves) a controller restored
// from its prefix image, so its row and counts are the same with no
// store, a cold store and a warm one.
TEST(CampaignProofs, SkipJobProvesTheSameWithAnyStore)
{
    std::string dir = scratchDir();
    std::vector<std::string> extra = fastPromotion;
    extra.push_back("tol.verify=true");
    std::vector<Job> jobs = expandMatrix(
        {{"wl-ck", smallWorkload("wl-ck", 21)}},
        presetConfigs({"fullopt", "tinycc", "async"}, extra), ~0ull,
        40'000);

    RunOptions opts;
    opts.jobs = 2;
    CampaignResult none = runCampaign(jobs, opts);
    DirStore store(dir);
    opts.store = &store;
    CampaignResult cold = runCampaign(jobs, opts);
    CampaignResult warm = runCampaign(jobs, opts);
    EXPECT_EQ(cold.checkpointMisses, jobs.size());
    EXPECT_EQ(warm.checkpointHits, jobs.size());
    expectSameMeasurement(none, cold);
    expectSameMeasurement(none, warm);
    for (const JobResult &r : none.results) {
        EXPECT_TRUE(r.ok) << r.configName << ": " << r.error;
        EXPECT_GT(r.proved, 0u) << r.configName;
    }
    std::filesystem::remove_all(dir);
}

// Background translation proves the same translations whatever the
// number of translator threads.
TEST(CampaignProofs, CountsMatchAcrossAsyncThreads)
{
    RunOptions opts;
    opts.timing = false;
    std::vector<JobResult> rows;
    for (const char *threads : {"1", "2", "4"}) {
        std::vector<std::string> extra = fastPromotion;
        extra.push_back("tol.verify=true");
        extra.push_back(std::string("tol.async.threads=") + threads);
        rows.push_back(runJob(
            expandMatrix({{"wl-a", smallWorkload("wl-a", 11)}},
                         presetConfigs({"async"}, extra), ~0ull, 0)[0],
            opts));
        EXPECT_TRUE(rows.back().ok) << rows.back().error;
    }
    EXPECT_GT(rows[0].proved, 0u);
    for (const JobResult &r : rows) {
        EXPECT_EQ(r.proved, rows[0].proved);
        EXPECT_EQ(r.refuted + r.unknown, 0u);
        EXPECT_EQ(cellsThrough22(r), cellsThrough22(rows[0]));
    }
}

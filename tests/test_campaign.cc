/**
 * @file
 * Campaign-engine tests: the work-stealing pool runs every task, a
 * parallel matrix run produces per-job results identical to a serial
 * run, and the fast-forward checkpoint cache is stored on the first
 * invocation and hit on the second without changing any result.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <thread>

#include <unistd.h>

#include "campaign/campaign.hh"
#include "common/logging.hh"
#include "workloads/synth.hh"

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

    // And both agree with a run that never checkpoints.
    RunOptions plain;
    plain.jobs = 1;
    CampaignResult base = runCampaign(jobs, plain);
    expectSameResults(base, warm);

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

/**
 * @file
 * Distributed campaign-service tests, all over loopback TCP:
 *
 *  - end-to-end equivalence: a coordinator + two worker processes
 *    (in-process threads here) produce results byte-identical to a
 *    local runCampaign — every field, the full stats map, and the CSV
 *    report with the provenance columns stripped;
 *  - fault tolerance: a worker that dies holding a job, and a worker
 *    that stays alive (pinging) but never finishes, both get their job
 *    reassigned and the campaign still completes correctly;
 *  - manifest resume: a restarted coordinator re-emits journaled rows
 *    without re-running them, drops a torn tail from a crashed
 *    predecessor, and refuses a manifest from a different campaign,
 *    down to one job's timing key;
 *  - the served checkpoint store deduplicates the fast-forward prefix
 *    across jobs and shares per-simpoint images across campaigns over
 *    the wire, and keeps hostile keys from escaping its directory;
 *  - a worker that asks for work while every remaining job is leased
 *    is told to wait.
 *
 * Fault injection speaks the raw wire protocol through net::Socket
 * directly, so the tests cover exactly what a hostile or crashing
 * peer can do to the coordinator.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include <unistd.h>

#include "campaign/campaign.hh"
#include "campaign/service.hh"
#include "campaign/wire.hh"
#include "common/logging.hh"
#include "net/frame.hh"
#include "net/socket.hh"
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

/** 2 workloads x 3 configs, fast promotion thresholds. */
std::vector<Job>
matrix6(u64 maxInsts = ~0ull, u64 skip = 0)
{
    std::vector<std::pair<std::string, guest::Program>> wls = {
        {"wl-a", smallWorkload("wl-a", 11)},
        {"wl-b", smallWorkload("wl-b", 12)},
    };
    std::vector<std::string> extra = {"tol.bb_threshold=4",
                                      "tol.sb_threshold=12",
                                      "tol.min_edge_total=8"};
    return expandMatrix(
        wls, presetConfigs({"interp", "noopt", "fullopt"}, extra),
        maxInsts, skip);
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
    std::filesystem::create_directories(dir);
    return dir;
}

/** Start an in-process worker against a loopback coordinator. */
std::thread
spawnWorker(u16 port, const std::string &id, int *rc)
{
    return std::thread([port, id, rc]() {
        WorkerOptions w;
        w.port = port;
        w.workerId = id;
        *rc = runWorker(w);
    });
}

/** Two SimPoint plans, field by field. */
void
expectSamePlan(const sampling::SimPointResult &a,
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
        EXPECT_EQ(a.points[i].weight, b.points[i].weight);
        EXPECT_EQ(a.points[i].startInst, b.points[i].startInst);
    }
}

/**
 * Everything that must be byte-identical between a local and a
 * distributed run: every result field except the provenance pair
 * (workerId, wallMs), including the full stats map and the plan.
 */
void
expectIdenticalResults(const CampaignResult &local,
                       const CampaignResult &dist)
{
    ASSERT_EQ(local.results.size(), dist.results.size());
    for (std::size_t i = 0; i < local.results.size(); ++i) {
        const JobResult &x = local.results[i];
        const JobResult &y = dist.results[i];
        SCOPED_TRACE(x.workload + "/" + x.configName);
        EXPECT_EQ(x.workload, y.workload);
        EXPECT_EQ(x.configName, y.configName);
        EXPECT_EQ(x.ok, y.ok);
        EXPECT_EQ(x.error, y.error);
        EXPECT_EQ(x.exitCode, y.exitCode);
        EXPECT_EQ(x.insts, y.insts);
        EXPECT_EQ(x.bbs, y.bbs);
        EXPECT_EQ(x.finished, y.finished);
        EXPECT_EQ(x.cycles, y.cycles);
        EXPECT_EQ(x.ipc, y.ipc);
        EXPECT_EQ(x.energyJ, y.energyJ);
        EXPECT_EQ(x.avgPowerW, y.avgPowerW);
        EXPECT_EQ(x.sampleMode, y.sampleMode);
        EXPECT_EQ(x.sampledInsts, y.sampledInsts);
        expectSamePlan(x.plan, y.plan);
        EXPECT_EQ(x.proved, y.proved);
        EXPECT_EQ(x.refuted, y.refuted);
        EXPECT_EQ(x.unknown, y.unknown);
        EXPECT_EQ(x.stats, y.stats);
        EXPECT_EQ(x.effectiveConfig, y.effectiveConfig);
    }
}

/** Drop the two trailing provenance cells from every CSV line. */
std::string
stripProvenance(const std::string &csv)
{
    std::istringstream is(csv);
    std::ostringstream os;
    std::string line;
    while (std::getline(is, line)) {
        std::size_t c2 = line.rfind(',');
        std::size_t c1 = line.rfind(',', c2 - 1);
        os << line.substr(0, c1) << '\n';
    }
    return os.str();
}

/** Raw wire-protocol client for fault injection. */
struct RawClient
{
    net::Socket sock;

    void
    connect(u16 port, const std::string &id)
    {
        sock = net::connectTo("127.0.0.1", port, 2000);
        net::sendFrame(sock,
                       wire::encode(wire::msg::hello,
                                    [&](snapshot::Serializer &s) {
                                        s.w32(wire::protoVersion);
                                        s.wstr(id);
                                    }));
        std::string payload;
        ASSERT_EQ(net::recvFrame(sock, payload, 5000),
                  net::RecvStatus::Ok);
        wire::Decoder welcome(payload);
        ASSERT_EQ(welcome.type, wire::msg::welcome);
    }

    /** Ask for work; returns the granted job index (asserts a grant). */
    u64
    takeJob()
    {
        net::sendFrame(sock, wire::encode(wire::msg::next));
        std::string payload;
        EXPECT_EQ(net::recvFrame(sock, payload, 5000),
                  net::RecvStatus::Ok);
        wire::Decoder m(payload);
        EXPECT_EQ(m.type, wire::msg::job);
        return m.d.r64();
    }

    void
    ping()
    {
        net::sendFrame(sock, wire::encode(wire::msg::ping));
    }

    /** ckpt.put; asserts the `ok` acknowledgement. */
    void
    put(const std::string &key, const std::string &image)
    {
        net::sendFrame(sock, wire::encode(wire::msg::ckptPut,
                                          [&](snapshot::Serializer &s) {
                                              s.wstr(key);
                                              s.wstr(image);
                                          }));
        std::string payload;
        ASSERT_EQ(net::recvFrame(sock, payload, 5000),
                  net::RecvStatus::Ok);
        EXPECT_EQ(wire::Decoder(payload).type, wire::msg::ok);
    }

    /** ckpt.get; true (with *image filled) on ckpt.hit. */
    bool
    get(const std::string &key, std::string *image)
    {
        net::sendFrame(sock, wire::encode(wire::msg::ckptGet,
                                          [&](snapshot::Serializer &s) {
                                              s.wstr(key);
                                          }));
        std::string payload;
        EXPECT_EQ(net::recvFrame(sock, payload, 5000),
                  net::RecvStatus::Ok);
        wire::Decoder m(payload);
        if (m.type != wire::msg::ckptHit) {
            EXPECT_EQ(m.type, wire::msg::ckptMiss);
            return false;
        }
        *image = m.d.rstr();
        return true;
    }
};

/** Every regular file under `dir`, recursively (none if absent). */
std::vector<std::string>
filesUnder(const std::string &dir)
{
    std::vector<std::string> out;
    if (!std::filesystem::exists(dir))
        return out;
    for (const auto &e :
         std::filesystem::recursive_directory_iterator(dir))
        if (e.is_regular_file())
            out.push_back(e.path().string());
    return out;
}

} // namespace

TEST(ServiceLoopback, TwoWorkersMatchLocalBitForBit)
{
    std::vector<Job> jobs = matrix6();

    RunOptions local;
    local.jobs = 2;
    CampaignResult base = runCampaign(jobs, local);

    std::vector<std::size_t> rowOrder;
    ServiceOptions svc;
    svc.onRow = [&rowOrder](std::size_t i, const JobResult &) {
        rowOrder.push_back(i);
    };
    Coordinator coord(jobs, svc);
    int rc1 = -1, rc2 = -1;
    std::thread w1 = spawnWorker(coord.port(), "alpha", &rc1);
    std::thread w2 = spawnWorker(coord.port(), "beta", &rc2);
    CampaignResult dist = coord.wait();
    w1.join();
    w2.join();

    EXPECT_EQ(rc1, 0);
    EXPECT_EQ(rc2, 0);
    EXPECT_EQ(coord.workersSeen(), 2u);
    EXPECT_EQ(coord.completedJobs(), jobs.size());
    EXPECT_EQ(coord.reassignments(), 0u);

    expectIdenticalResults(base, dist);
    EXPECT_EQ(stripProvenance(base.csv()), stripProvenance(dist.csv()));

    // Rows streamed strictly in submission order, and every row names
    // the worker that ran it.
    std::vector<std::size_t> expected(jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i)
        expected[i] = i;
    EXPECT_EQ(rowOrder, expected);
    for (const JobResult &r : dist.results) {
        EXPECT_TRUE(r.workerId == "alpha" || r.workerId == "beta")
            << "'" << r.workerId << "'";
        EXPECT_GE(r.wallMs, 0.0);
    }
}

// A proving cell, passing or refuted, reports over the wire exactly
// what it reports locally: the counts, and the error that names each
// refuted proof. The refuted cell has a budget: its wrong translation
// never reaches the program's exit.
TEST(ServiceLoopback, ProofCellsMatchLocal)
{
    std::vector<std::string> extra = {"tol.bb_threshold=4",
                                      "tol.sb_threshold=12",
                                      "tol.min_edge_total=8",
                                      "tol.verify=true"};
    std::vector<Job> jobs =
        expandMatrix({{"wl-a", smallWorkload("wl-a", 11)}},
                     presetConfigs({"fullopt"}, extra), 300'000, 0);
    extra.push_back("debug.drop_guard=true");
    for (Job &j : expandMatrix({{"wl-a", smallWorkload("wl-a", 11)}},
                               presetConfigs({"noopt"}, extra), 300'000,
                               0)) {
        j.configName = "noopt-drop-guard";
        jobs.push_back(std::move(j));
    }

    RunOptions local;
    local.jobs = 1;
    CampaignResult base = runCampaign(jobs, local);
    ASSERT_TRUE(base.results[0].ok) << base.results[0].error;
    EXPECT_GT(base.results[0].proved, 0u);
    EXPECT_FALSE(base.results[1].ok);
    EXPECT_GT(base.results[1].refuted, 0u);
    EXPECT_NE(base.results[1].error.find("REFUTED"), std::string::npos);

    Coordinator coord(jobs, ServiceOptions{});
    int rc = -1;
    std::thread w = spawnWorker(coord.port(), "prover", &rc);
    CampaignResult dist = coord.wait();
    w.join();
    EXPECT_EQ(rc, 0);
    expectIdenticalResults(base, dist);
    EXPECT_EQ(stripProvenance(base.csv()), stripProvenance(dist.csv()));
}

TEST(ServiceFault, DeadWorkerJobIsReassigned)
{
    std::vector<Job> jobs = matrix6();

    ServiceOptions svc;
    Coordinator coord(jobs, svc);

    // A worker takes a job and dies (EOF) without finishing it.
    RawClient victim;
    victim.connect(coord.port(), "victim");
    if (::testing::Test::HasFatalFailure())
        return;
    victim.takeJob();
    victim.sock.close();

    int rc = -1;
    std::thread w = spawnWorker(coord.port(), "survivor", &rc);
    CampaignResult res = coord.wait();
    w.join();

    EXPECT_EQ(rc, 0);
    EXPECT_GE(coord.reassignments(), 1u);
    ASSERT_EQ(res.results.size(), jobs.size());
    for (const JobResult &r : res.results) {
        EXPECT_TRUE(r.ok) << r.error;
        EXPECT_EQ(r.workerId, "survivor");
    }

    RunOptions local;
    local.jobs = 1;
    expectIdenticalResults(runCampaign(jobs, local), res);
}

TEST(ServiceFault, ExpiredLeaseIsReassignedWhileWorkerStillPings)
{
    std::vector<Job> jobs = matrix6();

    ServiceOptions svc;
    svc.leaseMs = 300;          // expire quickly
    svc.deadAfterMs = 60'000;   // pings must NOT save the lease
    Coordinator coord(jobs, svc);

    // This worker is alive (heartbeats flowing) but never delivers:
    // only the lease, not the liveness check, can free its job.
    RawClient stuck;
    stuck.connect(coord.port(), "stuck");
    if (::testing::Test::HasFatalFailure())
        return;
    u64 stuckJob = stuck.takeJob();
    std::atomic<bool> stop{false};
    std::thread pinger([&stuck, &stop]() {
        while (!stop.load()) {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(100));
            try {
                stuck.ping();
            } catch (const net::NetError &) {
                return; // coordinator hung up after completion
            }
        }
    });

    int rc = -1;
    std::thread w = spawnWorker(coord.port(), "runner", &rc);
    CampaignResult res = coord.wait();
    stop.store(true);
    pinger.join();
    w.join();

    EXPECT_GE(coord.reassignments(), 1u);
    ASSERT_EQ(res.results.size(), jobs.size());
    for (const JobResult &r : res.results)
        EXPECT_TRUE(r.ok) << r.error;
    EXPECT_EQ(res.results[stuckJob].workerId, "runner");
}

TEST(ServiceManifest, RestartResumesWithoutRerunning)
{
    std::string dir = scratchDir();
    std::string manifest = dir + "/campaign.manifest";
    std::vector<Job> jobs = matrix6();

    ServiceOptions svc;
    svc.manifestPath = manifest;

    CampaignResult first;
    {
        Coordinator coord(jobs, svc);
        int rc = -1;
        std::thread w = spawnWorker(coord.port(), "w0", &rc);
        first = coord.wait();
        w.join();
        EXPECT_EQ(rc, 0);
        EXPECT_EQ(coord.resumedFromManifest(), 0u);
    }

    // A crashed coordinator can die mid-append: simulate with garbage
    // after the last complete record. The resume must drop it.
    {
        std::ofstream f(manifest,
                        std::ios::binary | std::ios::app);
        f << "\x07torn";
    }

    // Restart: every row comes from the journal, no worker needed,
    // and the report (provenance included — it is replayed verbatim)
    // matches the first run.
    std::vector<std::size_t> rowOrder;
    svc.onRow = [&rowOrder](std::size_t i, const JobResult &) {
        rowOrder.push_back(i);
    };
    Coordinator coord(jobs, svc);
    EXPECT_EQ(coord.resumedFromManifest(), jobs.size());
    CampaignResult resumed = coord.wait();
    EXPECT_EQ(rowOrder.size(), jobs.size());
    EXPECT_EQ(first.csv(), resumed.csv());
    EXPECT_EQ(first.json(), resumed.json());

    std::filesystem::remove_all(dir);
}

TEST(ServiceManifest, TornFinalRecordIsReRun)
{
    std::string dir = scratchDir();
    std::string manifest = dir + "/campaign.manifest";
    std::vector<Job> jobs = matrix6();

    ServiceOptions svc;
    svc.manifestPath = manifest;

    CampaignResult first;
    {
        Coordinator coord(jobs, svc);
        int rc = -1;
        std::thread w = spawnWorker(coord.port(), "w0", &rc);
        first = coord.wait();
        w.join();
    }

    // Chop into the last record — the crash landed mid-write.
    auto size = std::filesystem::file_size(manifest);
    std::filesystem::resize_file(manifest, size - 5);

    Coordinator coord(jobs, svc);
    EXPECT_EQ(coord.resumedFromManifest(), jobs.size() - 1);
    int rc = -1;
    std::thread w = spawnWorker(coord.port(), "rerun", &rc);
    CampaignResult resumed = coord.wait();
    w.join();

    EXPECT_EQ(rc, 0);
    expectIdenticalResults(first, resumed);

    std::filesystem::remove_all(dir);
}

TEST(ServiceManifest, DifferentCampaignIsRefused)
{
    std::string dir = scratchDir();
    std::string manifest = dir + "/campaign.manifest";

    ServiceOptions svc;
    svc.manifestPath = manifest;
    {
        Coordinator coord(matrix6(), svc);
        int rc = -1;
        std::thread w = spawnWorker(coord.port(), "w0", &rc);
        coord.wait();
        w.join();
    }

    // Same manifest, different campaign (budget changed): refuse
    // rather than mixing incompatible rows into one report.
    EXPECT_THROW(Coordinator(matrix6(120'000), svc), FatalError);

    std::filesystem::remove_all(dir);
}

TEST(ServiceManifest, NonExecutionKeyChangeIsRefused)
{
    std::string dir = scratchDir();
    std::string manifest = dir + "/campaign.manifest";
    std::vector<Job> jobs = matrix6(60'000);

    ServiceOptions svc;
    svc.manifestPath = manifest;
    {
        Coordinator coord(jobs, svc);
        int rc = -1;
        std::thread w = spawnWorker(coord.port(), "w0", &rc);
        coord.wait();
        w.join();
    }

    // A timing-model key leaves the execution identity (and the
    // prefix-checkpoint key) alone but changes the rows' cycles and
    // effective_config: the recorded rows belong to another campaign.
    jobs[2].config.parseLine("l1d.size=8192");
    EXPECT_EQ(jobKeyHash(jobs[2]), jobKeyHash(matrix6(60'000)[2]));
    EXPECT_THROW(Coordinator(jobs, svc), FatalError);

    std::filesystem::remove_all(dir);
}

TEST(ServiceStore, PrefixCheckpointSharedAcrossJobs)
{
    std::string dir = scratchDir();
    std::vector<std::pair<std::string, guest::Program>> wls = {
        {"wl-ck", smallWorkload("wl-ck", 21)},
    };
    std::vector<std::string> extra = {"tol.bb_threshold=4",
                                      "tol.sb_threshold=12",
                                      "tol.min_edge_total=8"};
    // Two cells with *identical* execution identity (same config
    // content under different display names) and a skip prefix: the
    // content-addressed store must compute the prefix once and serve
    // the second job from cache.
    std::vector<std::pair<std::string, Config>> cells =
        presetConfigs({"fullopt"}, extra);
    cells.emplace_back("fullopt-again", cells[0].second);
    std::vector<Job> jobs = expandMatrix(wls, cells, ~0ull, 40'000);
    ASSERT_EQ(jobKeyString(jobs[0]), jobKeyString(jobs[1]));

    DirStore store(dir + "/store");
    ServiceOptions svc;
    svc.store = &store;
    Coordinator coord(jobs, svc);
    int rc = -1;
    std::thread w = spawnWorker(coord.port(), "solo", &rc);
    CampaignResult res = coord.wait();
    w.join();

    EXPECT_EQ(rc, 0);
    ASSERT_EQ(res.results.size(), 2u);
    for (const JobResult &r : res.results)
        EXPECT_TRUE(r.ok) << r.error;
    // One worker runs the jobs in order: first computes + publishes,
    // second hits.
    EXPECT_TRUE(res.results[0].checkpointStored);
    EXPECT_FALSE(res.results[0].checkpointHit);
    EXPECT_TRUE(res.results[1].checkpointHit);
    EXPECT_FALSE(res.results[1].checkpointStored);
    EXPECT_TRUE(std::filesystem::exists(
        dir + "/store/" + jobKeyString(jobs[0]) + ".ckpt"));

    // And the results agree with a local run through an in-memory
    // store (like-for-like: a restored prefix re-translates lazily,
    // so its translation-side stats legitimately differ from a
    // never-checkpointed run — locally and distributed alike).
    class MemStore : public CheckpointStore
    {
      public:
        bool
        fetch(const std::string &key, std::string *image) override
        {
            auto it = map_.find(key);
            if (it == map_.end())
                return false;
            *image = it->second;
            return true;
        }
        void
        store(const std::string &key, const std::string &image) override
        {
            map_[key] = image;
        }

      private:
        std::map<std::string, std::string> map_;
    } mem;
    RunOptions local;
    local.jobs = 1;
    local.store = &mem;
    CampaignResult localRes = runCampaign(jobs, local);
    EXPECT_TRUE(localRes.results[0].checkpointStored);
    EXPECT_TRUE(localRes.results[1].checkpointHit);
    expectIdenticalResults(localRes, res);

    std::filesystem::remove_all(dir);
}

// Store keys arrive over the wire: a key that is not a bare hex hash
// must neither escape the store directory nor land in it.
TEST(ServiceStore, HostileKeysStayInTheStore)
{
    std::string dir = scratchDir();
    DirStore store(dir + "/store");
    ServiceOptions svc;
    svc.store = &store;
    Coordinator coord(matrix6(), svc);

    RawClient peer;
    peer.connect(coord.port(), "hostile");
    if (::testing::Test::HasFatalFailure())
        return;
    const std::vector<std::string> hostile = {
        "../x", "a/b", "ABC", "", "0123456789abcdef0"};
    for (const std::string &key : hostile) {
        SCOPED_TRACE("key '" + key + "'");
        peer.put(key, "image bytes");
        std::string image;
        EXPECT_FALSE(peer.get(key, &image));
    }
    EXPECT_EQ(filesUnder(dir), std::vector<std::string>{});

    const std::string key = "0123456789abcdef";
    const std::string bytes("valid\0image", 11);
    peer.put(key, bytes);
    std::string image;
    EXPECT_TRUE(peer.get(key, &image));
    EXPECT_EQ(image, bytes);
    EXPECT_EQ(filesUnder(dir),
              std::vector<std::string>{dir + "/store/" + key + ".ckpt"});

    peer.sock.close();
    coord.stop();
    std::filesystem::remove_all(dir);
}

// A SimPoint-sampled job's per-simpoint images go through the served
// store too: a second campaign on a fresh worker hits them, and its
// estimates equal a local run that never checkpoints.
TEST(ServiceStore, SampledJobsSharePerSimpointImages)
{
    std::string dir = scratchDir();
    std::vector<std::pair<std::string, guest::Program>> wls = {
        {"wl-sp", smallWorkload("wl-sp", 23)},
    };
    std::vector<std::string> extra = {"tol.bb_threshold=4",
                                      "tol.sb_threshold=12",
                                      "tol.min_edge_total=8"};
    std::vector<Job> jobs =
        expandMatrix(wls, presetConfigs({"fullopt"}, extra), ~0ull, 0);

    RunOptions sampled;
    sampled.sampleMode = SampleMode::SimPoint;
    sampled.simpoint.interval = 10'000;
    sampled.sampleWarmup = 5'000;
    CampaignResult local = runCampaign(jobs, sampled);
    ASSERT_TRUE(local.results[0].ok) << local.results[0].error;
    ASSERT_GT(local.results[0].plan.points.size(), 0u);

    DirStore store(dir + "/store");
    std::vector<CampaignResult> runs;
    for (const char *id : {"first", "second"}) {
        ServiceOptions svc;
        svc.run = sampled;
        svc.store = &store;
        Coordinator coord(jobs, svc);
        int rc = -1;
        std::thread w = spawnWorker(coord.port(), id, &rc);
        runs.push_back(coord.wait());
        w.join();
        EXPECT_EQ(rc, 0);
    }

    const JobResult &cold = runs[0].results[0];
    const JobResult &warm = runs[1].results[0];
    ASSERT_TRUE(cold.ok) << cold.error;
    ASSERT_TRUE(warm.ok) << warm.error;
    EXPECT_TRUE(cold.checkpointStored);
    EXPECT_FALSE(cold.checkpointHit);
    EXPECT_TRUE(warm.checkpointHit);
    EXPECT_EQ(filesUnder(dir + "/store").size(),
              local.results[0].plan.points.size());
    const JobResult &base = local.results[0];
    for (const JobResult *r : {&cold, &warm}) {
        expectSamePlan(r->plan, base.plan);
        EXPECT_EQ(r->cycles, base.cycles);
        EXPECT_EQ(r->ipc, base.ipc);
        EXPECT_EQ(r->energyJ, base.energyJ);
        EXPECT_EQ(r->sampledInsts, base.sampledInsts);
    }

    std::filesystem::remove_all(dir);
}

TEST(ServiceDispatch, IdleWorkerIsToldToWait)
{
    // One job, leased to a first worker (the lease runs for minutes):
    // a second worker asking for work must be told to wait, with no
    // timing involved. Once the holder drops, the job is reassigned
    // and the campaign completes.
    std::vector<Job> jobs = matrix6();
    jobs.resize(1);
    ServiceOptions svc;
    svc.waitDelayMs = 20;
    Coordinator coord(jobs, svc);

    RawClient holder, idle;
    holder.connect(coord.port(), "holder");
    idle.connect(coord.port(), "idle");
    if (::testing::Test::HasFatalFailure())
        return;
    EXPECT_EQ(holder.takeJob(), 0u);
    net::sendFrame(idle.sock, wire::encode(wire::msg::next));
    std::string payload;
    ASSERT_EQ(net::recvFrame(idle.sock, payload, 5000),
              net::RecvStatus::Ok);
    wire::Decoder m(payload);
    EXPECT_EQ(m.type, wire::msg::wait);
    EXPECT_EQ(m.d.r64(), 20u);
    EXPECT_EQ(coord.waitsIssued(), 1u);
    idle.sock.close();
    holder.sock.close();

    int rc = -1;
    std::thread w = spawnWorker(coord.port(), "finisher", &rc);
    CampaignResult res = coord.wait();
    w.join();
    EXPECT_EQ(rc, 0);
    ASSERT_EQ(res.results.size(), 1u);
    EXPECT_TRUE(res.results[0].ok) << res.results[0].error;
    EXPECT_EQ(res.results[0].workerId, "finisher");
}

TEST(Wire, JobAndResultRoundTrip)
{
    std::vector<Job> jobs = matrix6(500'000, 1000);
    const Job &job = jobs[3];
    {
        std::string payload = wire::encode(
            wire::msg::job, [&](snapshot::Serializer &s) {
                s.w64(3);
                wire::writeJob(s, job);
            });
        wire::Decoder m(payload);
        ASSERT_EQ(m.type, wire::msg::job);
        EXPECT_EQ(m.d.r64(), 3u);
        Job back = wire::readJob(m.d);
        EXPECT_EQ(back.workload, job.workload);
        EXPECT_EQ(back.configName, job.configName);
        EXPECT_EQ(back.program.code, job.program.code);
        EXPECT_EQ(back.program.data, job.program.data);
        EXPECT_EQ(back.program.entry, job.program.entry);
        EXPECT_EQ(back.config.entries(), job.config.entries());
        EXPECT_EQ(back.maxInsts, job.maxInsts);
        EXPECT_EQ(back.skip, job.skip);
    }

    JobResult r;
    r.workload = "w";
    r.configName = "c";
    r.ok = true;
    r.error = "none";
    r.insts = 123;
    r.bbs = 45;
    r.finished = true;
    r.checkpointHit = true;
    r.wallMs = 1.5;
    r.workerId = "worker-7";
    r.cycles = 1e6;
    r.ipc = 1.25;
    r.stats = {{"tol.guest_im", 7}, {"cc.flushes", 1}};
    r.effectiveConfig = {{"cores", "1"}};
    r.sampleMode = "simpoint";
    r.plan.interval = 1000;
    r.plan.totalInsts = 2500;
    r.plan.k = 2;
    r.plan.bic = -12.34;
    r.plan.bicSweep = {{1, -20.06}, {2, -12.34}};
    r.plan.points = {{0, 1, 0.8, 0}, {2, 0, 0.2, 2000}};
    r.plan.assignment = {1, 1, 0};
    r.proved = 31;
    r.refuted = 2;
    r.unknown = 1;
    {
        std::string payload = wire::encode(
            wire::msg::result, [&](snapshot::Serializer &s) {
                s.w64(9);
                wire::writeResult(s, r);
            });
        wire::Decoder m(payload);
        ASSERT_EQ(m.type, wire::msg::result);
        EXPECT_EQ(m.d.r64(), 9u);
        JobResult back = wire::readResult(m.d);
        EXPECT_EQ(back.workload, r.workload);
        EXPECT_EQ(back.ok, r.ok);
        EXPECT_EQ(back.error, r.error);
        EXPECT_EQ(back.insts, r.insts);
        EXPECT_EQ(back.checkpointHit, r.checkpointHit);
        EXPECT_EQ(back.wallMs, r.wallMs);
        EXPECT_EQ(back.workerId, r.workerId);
        EXPECT_EQ(back.cycles, r.cycles);
        EXPECT_EQ(back.ipc, r.ipc);
        EXPECT_EQ(back.stats, r.stats);
        EXPECT_EQ(back.effectiveConfig, r.effectiveConfig);
        EXPECT_EQ(back.sampleMode, r.sampleMode);
        expectSamePlan(back.plan, r.plan);
        EXPECT_EQ(back.proved, r.proved);
        EXPECT_EQ(back.refuted, r.refuted);
        EXPECT_EQ(back.unknown, r.unknown);
    }
}

#include "campaign/service.hh"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <optional>
#include <sstream>
#include <thread>
#include <vector>

#include <sys/socket.h>

#include "campaign/wire.hh"
#include "common/logging.hh"
#include "net/frame.hh"
#include "net/socket.hh"

namespace darco::campaign
{

namespace
{

using Clock = std::chrono::steady_clock;

u64
msSince(Clock::time_point t0)
{
    return u64(std::chrono::duration_cast<std::chrono::milliseconds>(
                   Clock::now() - t0)
                   .count());
}

void
sleepMs(u64 ms)
{
    std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

/**
 * Content hash of the whole campaign definition: the manifest refuses
 * to resume against a different job list or different run options
 * (which would silently mix incompatible rows into one report).
 */
u64
campaignHash(const std::vector<Job> &jobs, const RunOptions &run)
{
    u64 h = 0xcbf29ce484222325ull;
    auto mix = [&h](u64 v) {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 0x100000001b3ull;
        }
    };
    auto mixStr = [&](const std::string &s) {
        for (char c : s) {
            h ^= u8(c);
            h *= 0x100000001b3ull;
        }
        h ^= 0xff;
        h *= 0x100000001b3ull;
    };
    mix(jobs.size());
    for (const Job &j : jobs) {
        mix(jobKeyHash(j));
        mixStr(j.workload);
        mixStr(j.configName);
        mix(j.maxInsts);
    }
    mix(run.timing ? 1 : 0);
    mix(run.sampleMode == SampleMode::SimPoint ? 1 : 0);
    mix(run.sampleInterval);
    mix(run.sampleMaxK);
    mix(run.sampleSeed);
    mix(run.sampleWarmup);
    return h;
}

/** A store key is a bare hex hash — anything else is path traversal. */
bool
validStoreKey(const std::string &key)
{
    if (key.empty() || key.size() > 16)
        return false;
    for (char c : key)
        if (!std::isxdigit(u8(c)) || std::isupper(u8(c)))
            return false;
    return true;
}

constexpr const char *manifestRecCampaign = "manifest";
constexpr const char *manifestRecDone = "done";

/** [len u32 LE][payload] — the manifest uses the network framing. */
void
appendRecord(std::ostream &os, const std::string &payload)
{
    u8 hdr[4];
    u32 len = u32(payload.size());
    hdr[0] = u8(len);
    hdr[1] = u8(len >> 8);
    hdr[2] = u8(len >> 16);
    hdr[3] = u8(len >> 24);
    os.write(reinterpret_cast<const char *>(hdr), 4);
    os.write(payload.data(), std::streamsize(payload.size()));
    os.flush();
}

} // namespace

// ---------------------------------------------------------------------
// Coordinator
// ---------------------------------------------------------------------

struct Coordinator::Impl
{
    std::vector<Job> jobs;
    ServiceOptions opts;
    Clock::time_point t0 = Clock::now();

    // Locking: emitMutex > mutex (complete() takes both in that
    // order). onRow runs under emitMutex only, so a callback may call
    // stop() (which takes mutex) without deadlocking.
    std::mutex mutex;
    std::mutex emitMutex;
    std::condition_variable cv;

    std::deque<std::size_t> pending;            // runnable job indices
    std::vector<std::optional<JobResult>> results;
    std::size_t completedCount = 0;
    std::size_t emitted = 0;
    std::size_t resumed = 0;
    bool stopped = false;

    u64 reassignments = 0;
    u64 duplicates = 0;
    u64 waits = 0;
    u64 workersSeen = 0;

    std::ofstream manifest;
    u64 manifestHash = 0;

    std::optional<net::Listener> listener;
    std::thread acceptThread;
    std::vector<std::thread> connThreads;
    std::vector<int> liveFds; // guarded by mutex; for stop() wakeups
    bool joined = false;

    bool
    allDone() const
    {
        return completedCount == results.size();
    }

    // --- manifest ----------------------------------------------------

    /**
     * Replay an existing manifest: validate the campaign header, load
     * completed rows, drop a torn tail (truncating the file to the
     * last whole record so the journal stays clean for appending).
     */
    void
    resumeManifest()
    {
        std::ifstream in(opts.manifestPath, std::ios::binary);
        if (!in)
            return; // fresh campaign
        std::ostringstream buf;
        buf << in.rdbuf();
        std::string bytes = buf.str();
        if (bytes.empty())
            return;

        std::size_t pos = 0, goodEnd = 0;
        bool sawHeader = false;
        for (;;) {
            if (pos + 4 > bytes.size())
                break; // torn length
            u32 len = u32(u8(bytes[pos])) |
                      (u32(u8(bytes[pos + 1])) << 8) |
                      (u32(u8(bytes[pos + 2])) << 16) |
                      (u32(u8(bytes[pos + 3])) << 24);
            if (len > net::maxFrameBytes ||
                pos + 4 + len > bytes.size())
                break; // torn payload
            std::string payload = bytes.substr(pos + 4, len);
            try {
                wire::Decoder rec(payload);
                if (!sawHeader) {
                    if (rec.type != manifestRecCampaign)
                        throw FatalError(
                            "manifest '" + opts.manifestPath +
                            "' does not start with a campaign header");
                    u32 proto = rec.d.r32();
                    u64 hash = rec.d.r64();
                    u64 count = rec.d.r64();
                    if (proto != wire::protoVersion ||
                        hash != manifestHash ||
                        count != jobs.size())
                        throw FatalError(
                            "manifest '" + opts.manifestPath +
                            "' records a different campaign "
                            "(refusing to resume)");
                    sawHeader = true;
                } else if (rec.type == manifestRecDone) {
                    u64 idx = rec.d.r64();
                    JobResult r = wire::readResult(rec.d);
                    if (idx < results.size() && !results[idx]) {
                        results[idx] = std::move(r);
                        ++completedCount;
                        ++resumed;
                    }
                }
                // Unknown record types are skipped (forward compat).
            } catch (const snapshot::SnapshotError &) {
                break; // torn/corrupt record: drop it and the rest
            }
            pos += 4 + len;
            goodEnd = pos;
        }
        if (!sawHeader)
            throw FatalError("manifest '" + opts.manifestPath +
                             "' is not a campaign manifest");
        if (goodEnd < bytes.size()) {
            std::error_code ec;
            std::filesystem::resize_file(opts.manifestPath, goodEnd,
                                         ec);
            warn("manifest: dropped ", bytes.size() - goodEnd,
                 " trailing bytes (torn record from a crashed "
                 "coordinator)");
        }
    }

    void
    openManifest()
    {
        if (opts.manifestPath.empty())
            return;
        manifestHash = campaignHash(jobs, opts.run);
        resumeManifest();
        bool fresh = !std::filesystem::exists(opts.manifestPath) ||
                     std::filesystem::file_size(opts.manifestPath) == 0;
        manifest.open(opts.manifestPath,
                      std::ios::binary | std::ios::app);
        if (!manifest)
            throw FatalError("cannot open manifest '" +
                             opts.manifestPath + "' for append");
        if (fresh) {
            appendRecord(
                manifest,
                wire::encode(manifestRecCampaign,
                             [&](snapshot::Serializer &s) {
                                 s.w32(wire::protoVersion);
                                 s.w64(manifestHash);
                                 s.w64(jobs.size());
                             }));
        }
    }

    // --- completion & emission ---------------------------------------

    /**
     * Record one finished job (exactly once), journal it, and emit
     * every newly in-order row. Caller must hold NEITHER lock.
     */
    void
    complete(std::size_t idx, JobResult r)
    {
        std::unique_lock<std::mutex> eg(emitMutex);
        std::vector<std::pair<std::size_t, const JobResult *>> emit;
        {
            std::lock_guard<std::mutex> g(mutex);
            if (idx >= results.size() || results[idx]) {
                ++duplicates;
                return;
            }
            results[idx] = std::move(r);
            ++completedCount;
            if (manifest.is_open()) {
                appendRecord(
                    manifest,
                    wire::encode(manifestRecDone,
                                 [&](snapshot::Serializer &s) {
                                     s.w64(idx);
                                     wire::writeResult(
                                         s, *results[idx]);
                                 }));
            }
            while (emitted < results.size() && results[emitted]) {
                emit.emplace_back(emitted, &*results[emitted]);
                ++emitted;
            }
            cv.notify_all();
        }
        if (opts.onRow)
            for (const auto &[i, jr] : emit)
                opts.onRow(i, *jr);
    }

    /** Emit rows already satisfied (manifest resume), before serving. */
    void
    emitResumedPrefix()
    {
        std::unique_lock<std::mutex> eg(emitMutex);
        std::vector<std::pair<std::size_t, const JobResult *>> emit;
        {
            std::lock_guard<std::mutex> g(mutex);
            while (emitted < results.size() && results[emitted]) {
                emit.emplace_back(emitted, &*results[emitted]);
                ++emitted;
            }
        }
        if (opts.onRow)
            for (const auto &[i, jr] : emit)
                opts.onRow(i, *jr);
    }

    // --- dispatch ----------------------------------------------------

    /**
     * Pick the next runnable job for a worker. Returns the reply
     * payload; sets *assignedOut / *deadlineOut on a job grant and
     * *isShutdown when the campaign is complete.
     */
    std::string
    nextAssignment(std::optional<std::size_t> *assignedOut,
                   Clock::time_point *deadlineOut, bool *isShutdown)
    {
        std::lock_guard<std::mutex> g(mutex);
        *isShutdown = false;
        if (allDone() || stopped) {
            *isShutdown = true;
            return wire::encode(wire::msg::shutdown);
        }
        for (auto it = pending.begin(); it != pending.end();) {
            std::size_t idx = *it;
            if (results[idx]) {
                // Completed while queued (late result beat the
                // reassigned copy): drop the stale queue entry.
                it = pending.erase(it);
                continue;
            }
            if (idx < emitted + opts.window) {
                pending.erase(it);
                *assignedOut = idx;
                *deadlineOut =
                    Clock::now() +
                    std::chrono::milliseconds(opts.leaseMs);
                const Job &job = jobs[idx];
                return wire::encode(
                    wire::msg::job, [&](snapshot::Serializer &s) {
                        s.w64(idx);
                        wire::writeJob(s, job);
                    });
            }
            ++it; // outside the in-flight window: keep for later
        }
        ++waits;
        return wire::encode(wire::msg::wait,
                            [&](snapshot::Serializer &s) {
                                s.w64(opts.waitDelayMs);
                            });
    }

    /** Return a leased job to the head of the queue. */
    void
    requeueLocked(std::size_t idx)
    {
        if (!results[idx]) {
            pending.push_front(idx);
            ++reassignments;
            cv.notify_all();
        }
    }

    // --- per-connection protocol loop --------------------------------

    void
    serveConnection(net::Socket sock)
    {
        {
            std::lock_guard<std::mutex> g(mutex);
            if (stopped)
                return;
            liveFds.push_back(sock.fd());
        }
        std::string workerId;
        std::optional<std::size_t> assigned;
        Clock::time_point deadline{};
        bool leaseReturned = false; // assigned already requeued
        Clock::time_point lastSeen = Clock::now();

        try {
            for (;;) {
                // Campaign-state gate, every iteration: frames keep
                // arriving from live workers (pings, requests), so
                // end-of-campaign must not hide in the timeout branch.
                {
                    std::unique_lock<std::mutex> g(mutex);
                    if (stopped)
                        break;
                    if (allDone()) {
                        g.unlock();
                        try {
                            net::sendFrame(
                                sock,
                                wire::encode(wire::msg::shutdown));
                            // Let the worker close first (bounded).
                            // Closing first resets the connection of
                            // a worker still sleeping off a `wait`
                            // reply: its next send then fails and it
                            // never reads the queued shutdown.
                            Clock::time_point until =
                                Clock::now() +
                                std::chrono::milliseconds(
                                    opts.waitDelayMs + 1000);
                            std::string ignored;
                            while (Clock::now() < until &&
                                   net::recvFrame(sock, ignored, 100) !=
                                       net::RecvStatus::Eof) {
                            }
                        } catch (const net::NetError &) {
                        }
                        break;
                    }
                }

                std::string payload;
                net::RecvStatus st =
                    net::recvFrame(sock, payload, 250);
                Clock::time_point now = Clock::now();

                // Lease check on *every* iteration: a worker pinging
                // away while stuck in a pathological job keeps frames
                // flowing, so the timeout branch alone would never
                // notice the expired lease.
                if (assigned && !leaseReturned && now >= deadline) {
                    // Lease expired: hand the job to someone else but
                    // keep the connection — a late result is still
                    // accepted if it comes first.
                    std::lock_guard<std::mutex> g(mutex);
                    requeueLocked(*assigned);
                    leaseReturned = true;
                }

                if (st == net::RecvStatus::Timeout) {
                    u64 silentMs = u64(
                        std::chrono::duration_cast<
                            std::chrono::milliseconds>(now - lastSeen)
                            .count());
                    if (silentMs > opts.deadAfterMs)
                        break; // silent worker: dead
                    continue;
                }
                if (st == net::RecvStatus::Eof)
                    break;
                lastSeen = now;

                wire::Decoder m(payload);
                if (m.type == wire::msg::hello) {
                    u32 proto = m.d.r32();
                    std::string advisory = m.d.rstr();
                    if (proto != wire::protoVersion) {
                        net::sendFrame(
                            sock,
                            wire::encode(
                                wire::msg::error,
                                [&](snapshot::Serializer &s) {
                                    s.wstr(
                                        "protocol version mismatch");
                                }));
                        break;
                    }
                    {
                        std::lock_guard<std::mutex> g(mutex);
                        ++workersSeen;
                        workerId =
                            !advisory.empty()
                                ? advisory
                                : "w" + std::to_string(workersSeen);
                    }
                    bool storeOn = !opts.storeDir.empty();
                    net::sendFrame(
                        sock,
                        wire::encode(
                            wire::msg::welcome,
                            [&](snapshot::Serializer &s) {
                                s.w32(wire::protoVersion);
                                s.wstr(workerId);
                                wire::writeRunOptions(s, opts.run);
                                s.w64(opts.heartbeatMs);
                                s.wbool(storeOn);
                            }));
                } else if (m.type == wire::msg::ping) {
                    // Heartbeat: lastSeen already refreshed above.
                } else if (m.type == wire::msg::next ||
                           m.type == wire::msg::result) {
                    if (m.type == wire::msg::result) {
                        u64 idx = m.d.r64();
                        JobResult r = wire::readResult(m.d);
                        r.workerId = workerId; // enforce provenance
                        assigned.reset();
                        leaseReturned = false;
                        complete(std::size_t(idx), std::move(r));
                    }
                    bool isShutdown = false;
                    std::string reply = nextAssignment(
                        &assigned, &deadline, &isShutdown);
                    net::sendFrame(sock, reply);
                    if (isShutdown)
                        break;
                } else if (m.type == wire::msg::ckptGet) {
                    std::string key = m.d.rstr();
                    std::string image;
                    bool hit = false;
                    if (!opts.storeDir.empty() &&
                        validStoreKey(key)) {
                        std::ifstream in(opts.storeDir + "/" + key +
                                             ".ckpt",
                                         std::ios::binary);
                        if (in) {
                            std::ostringstream buf;
                            buf << in.rdbuf();
                            image = buf.str();
                            hit = true;
                        }
                    }
                    net::sendFrame(
                        sock,
                        hit ? wire::encode(
                                  wire::msg::ckptHit,
                                  [&](snapshot::Serializer &s) {
                                      s.wstr(image);
                                  })
                            : wire::encode(wire::msg::ckptMiss));
                } else if (m.type == wire::msg::ckptPut) {
                    std::string key = m.d.rstr();
                    std::string image = m.d.rstr();
                    if (!opts.storeDir.empty() && validStoreKey(key))
                        writeCheckpointBytes(opts.storeDir,
                                             opts.storeDir + "/" +
                                                 key + ".ckpt",
                                             image);
                    net::sendFrame(sock,
                                   wire::encode(wire::msg::ok));
                } else {
                    net::sendFrame(
                        sock,
                        wire::encode(wire::msg::error,
                                     [&](snapshot::Serializer &s) {
                                         s.wstr("unknown message '" +
                                                m.type + "'");
                                     }));
                }
            }
        } catch (const net::NetError &) {
            // Connection-level failure: treated as worker death.
        } catch (const snapshot::SnapshotError &) {
            // Malformed message from the peer: drop the connection.
        }

        {
            std::lock_guard<std::mutex> g(mutex);
            if (assigned && !leaseReturned && !stopped)
                requeueLocked(*assigned);
            liveFds.erase(std::remove(liveFds.begin(), liveFds.end(),
                                      sock.fd()),
                          liveFds.end());
        }
    }

    /**
     * Abandon the campaign: the accept loop notices `stopped` within
     * one poll, and every live connection is woken. The listener is
     * left open: only joinThreads closes it, after the accept loop has
     * exited, so its fd is never closed while accept() may read it.
     */
    void
    stopLocked()
    {
        stopped = true;
        for (int fd : liveFds)
            ::shutdown(fd, SHUT_RDWR);
        cv.notify_all();
    }

    /** Join the accept loop, close the listener, then join every
     *  connection thread. Idempotent. */
    void
    joinThreads()
    {
        if (joined)
            return;
        joined = true;
        if (acceptThread.joinable())
            acceptThread.join();
        listener->close();
        for (auto &t : connThreads)
            if (t.joinable())
                t.join();
    }

    void
    acceptLoop()
    {
        for (;;) {
            {
                std::lock_guard<std::mutex> g(mutex);
                if (stopped || allDone())
                    return;
            }
            std::optional<net::Socket> s = listener->accept(200);
            if (!s)
                continue;
            std::lock_guard<std::mutex> g(mutex);
            if (stopped)
                return;
            connThreads.emplace_back(
                [this, sock = std::make_shared<net::Socket>(
                           std::move(*s))]() mutable {
                    serveConnection(std::move(*sock));
                });
        }
    }
};

Coordinator::Coordinator(std::vector<Job> jobs, ServiceOptions opts)
    : impl_(std::make_unique<Impl>())
{
    impl_->jobs = std::move(jobs);
    impl_->opts = std::move(opts);
    if (impl_->opts.window == 0)
        impl_->opts.window = 1;
    impl_->results.resize(impl_->jobs.size());
    if (!impl_->opts.storeDir.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(impl_->opts.storeDir, ec);
    }
    impl_->openManifest(); // may load completed rows
    for (std::size_t i = 0; i < impl_->results.size(); ++i)
        if (!impl_->results[i])
            impl_->pending.push_back(i);
    impl_->emitResumedPrefix();
    impl_->listener.emplace(impl_->opts.bind, impl_->opts.port);
    impl_->acceptThread =
        std::thread([this]() { impl_->acceptLoop(); });
}

u16
Coordinator::port() const
{
    return impl_->listener->port();
}

CampaignResult
Coordinator::wait()
{
    {
        std::unique_lock<std::mutex> g(impl_->mutex);
        impl_->cv.wait(g, [&] {
            return impl_->stopped || impl_->allDone();
        });
    }
    // Tear the service down: the accept loop sees done/stopped
    // within one poll, and every connection thread either hands its
    // worker a shutdown or notices the closed socket.
    impl_->joinThreads();

    CampaignResult res;
    res.results.reserve(impl_->results.size());
    for (const auto &r : impl_->results)
        res.results.push_back(r ? *r : JobResult{});
    res.wallMs = double(msSince(impl_->t0));
    for (const JobResult &r : res.results) {
        if (r.checkpointHit)
            ++res.checkpointHits;
        if (r.checkpointStored)
            ++res.checkpointMisses;
    }
    return res;
}

void
Coordinator::stop()
{
    std::lock_guard<std::mutex> g(impl_->mutex);
    impl_->stopLocked();
}

Coordinator::~Coordinator()
{
    {
        std::lock_guard<std::mutex> g(impl_->mutex);
        impl_->stopLocked();
    }
    impl_->joinThreads();
}

std::size_t
Coordinator::totalJobs() const
{
    return impl_->jobs.size();
}

std::size_t
Coordinator::completedJobs() const
{
    std::lock_guard<std::mutex> g(impl_->mutex);
    return impl_->completedCount;
}

u64
Coordinator::reassignments() const
{
    std::lock_guard<std::mutex> g(impl_->mutex);
    return impl_->reassignments;
}

u64
Coordinator::duplicateResults() const
{
    std::lock_guard<std::mutex> g(impl_->mutex);
    return impl_->duplicates;
}

u64
Coordinator::waitsIssued() const
{
    std::lock_guard<std::mutex> g(impl_->mutex);
    return impl_->waits;
}

std::size_t
Coordinator::resumedFromManifest() const
{
    std::lock_guard<std::mutex> g(impl_->mutex);
    return impl_->resumed;
}

u64
Coordinator::workersSeen() const
{
    std::lock_guard<std::mutex> g(impl_->mutex);
    return impl_->workersSeen;
}

// ---------------------------------------------------------------------
// Worker
// ---------------------------------------------------------------------

namespace
{

/**
 * CheckpointStore speaking the ckpt.get/ckpt.put protocol over the
 * worker's coordinator connection. Runs on the worker main thread —
 * the connection's only reader — so a request's reply is simply the
 * next frame (pings carry no reply).
 */
class RemoteStore : public CheckpointStore
{
  public:
    RemoteStore(net::Socket &sock, std::mutex &sendMu)
        : sock_(sock), sendMu_(sendMu)
    {}

    bool
    fetch(const std::string &key, std::string *image) override
    {
        {
            std::lock_guard<std::mutex> g(sendMu_);
            net::sendFrame(sock_,
                           wire::encode(wire::msg::ckptGet,
                                        [&](snapshot::Serializer &s) {
                                            s.wstr(key);
                                        }));
        }
        std::string payload;
        if (net::recvFrame(sock_, payload, 120'000) !=
            net::RecvStatus::Ok)
            throw net::NetError("checkpoint fetch: no reply");
        wire::Decoder m(payload);
        if (m.type == wire::msg::ckptHit) {
            *image = m.d.rstr();
            return true;
        }
        return false; // miss (or an unexpected type: treat as miss)
    }

    void
    store(const std::string &key, const std::string &image) override
    {
        {
            std::lock_guard<std::mutex> g(sendMu_);
            net::sendFrame(sock_,
                           wire::encode(wire::msg::ckptPut,
                                        [&](snapshot::Serializer &s) {
                                            s.wstr(key);
                                            s.wstr(image);
                                        }));
        }
        std::string payload;
        if (net::recvFrame(sock_, payload, 120'000) !=
            net::RecvStatus::Ok)
            throw net::NetError("checkpoint store: no ack");
        // Reply is `ok`; anything else is tolerated (best effort).
    }

  private:
    net::Socket &sock_;
    std::mutex &sendMu_;
};

} // namespace

int
runWorker(const WorkerOptions &wopts)
{
    net::Socket sock;
    for (unsigned attempt = 0;; ++attempt) {
        try {
            sock = net::connectTo(wopts.host, wopts.port, 2000);
            break;
        } catch (const net::NetError &) {
            if (attempt + 1 >= wopts.connectRetries)
                return 1;
            sleepMs(250);
        }
    }

    std::mutex sendMu;
    auto send = [&](const std::string &payload) {
        std::lock_guard<std::mutex> g(sendMu);
        net::sendFrame(sock, payload);
    };

    int rc = 1;
    std::atomic<bool> hbStop{false};
    std::thread hb;
    try {
        send(wire::encode(wire::msg::hello,
                          [&](snapshot::Serializer &s) {
                              s.w32(wire::protoVersion);
                              s.wstr(wopts.workerId);
                          }));
        std::string payload;
        if (net::recvFrame(sock, payload, 30'000) !=
            net::RecvStatus::Ok)
            return 1;
        wire::Decoder welcome(payload);
        if (welcome.type != wire::msg::welcome)
            return 1;
        if (welcome.d.r32() != wire::protoVersion)
            return 1;
        std::string myId = welcome.d.rstr();
        RunOptions ropts;
        wire::readRunOptions(welcome.d, ropts);
        u64 heartbeatMs = welcome.d.r64();
        bool storeEnabled = welcome.d.rbool();
        ropts.jobs = 1;
        ropts.checkpointDir = wopts.checkpointDir;
        RemoteStore remote(sock, sendMu);
        if (storeEnabled)
            ropts.store = &remote;

        // Heartbeats keep the registration alive across long jobs.
        // Short sleep slices keep teardown prompt.
        hb = std::thread([&, heartbeatMs]() {
            u64 elapsed = 0;
            while (!hbStop.load(std::memory_order_relaxed)) {
                sleepMs(50);
                elapsed += 50;
                if (elapsed < heartbeatMs)
                    continue;
                elapsed = 0;
                try {
                    send(wire::encode(wire::msg::ping));
                } catch (const net::NetError &) {
                    return; // connection gone; main loop notices
                }
            }
        });

        send(wire::encode(wire::msg::next));
        for (;;) {
            if (net::recvFrame(sock, payload, -1) !=
                net::RecvStatus::Ok)
                break; // coordinator gone
            wire::Decoder m(payload);
            if (m.type == wire::msg::job) {
                u64 idx = m.d.r64();
                Job job = wire::readJob(m.d);
                JobResult r = runJob(job, ropts);
                r.workerId = myId;
                send(wire::encode(wire::msg::result,
                                  [&](snapshot::Serializer &s) {
                                      s.w64(idx);
                                      wire::writeResult(s, r);
                                  }));
            } else if (m.type == wire::msg::wait) {
                sleepMs(m.d.r64());
                send(wire::encode(wire::msg::next));
            } else if (m.type == wire::msg::shutdown) {
                rc = 0;
                break;
            } else if (m.type == wire::msg::error) {
                break;
            }
            // Stray ckpt replies cannot appear here: RemoteStore
            // consumes them inline during runJob.
        }
    } catch (const net::NetError &) {
        rc = 1;
    } catch (const snapshot::SnapshotError &) {
        rc = 1;
    }
    hbStop.store(true, std::memory_order_relaxed);
    if (hb.joinable())
        hb.join();
    return rc;
}

} // namespace darco::campaign

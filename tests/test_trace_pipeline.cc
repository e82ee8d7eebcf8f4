/**
 * @file
 * Trace-pipeline tests: the timing model consumes the host stream on
 * a library thread, and every reader that follows Tol::run or
 * Tol::quiesce must see exactly what direct calls would have
 * produced — record order, recordConcurrent positions, blocks that
 * stop at each of them, a block-fed core against one fed record by
 * record, sink switches, sink exceptions, guest faults with records in
 * flight, and the single-CPU path that starts no thread.
 */

#include <gtest/gtest.h>

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hh"
#include "guest/asm.hh"
#include "host/trace_pipeline.hh"
#include "sim/controller.hh"
#include "timing/core.hh"
#include "workloads/suite.hh"

using namespace darco;
using namespace darco::guest;
using darco::host::InstClass;
using darco::host::InstRecord;
using darco::host::TracePipeline;

namespace
{

/** One sink call: a record, or recordConcurrent(insts). */
struct Event
{
    bool conc = false;
    u64 insts = 0;
    u32 pc = 0, memAddr = 0, nextPc = 0;
    u8 cls = 0, dst = 0, src1 = 0, src2 = 0;
    bool taken = false;

    bool
    operator==(const Event &o) const
    {
        return conc == o.conc && insts == o.insts && pc == o.pc &&
               memAddr == o.memAddr && nextPc == o.nextPc &&
               cls == o.cls && dst == o.dst && src1 == o.src1 &&
               src2 == o.src2 && taken == o.taken;
    }
};

Event
recordEvent(const InstRecord &r)
{
    Event e;
    e.pc = r.pc;
    e.memAddr = r.memAddr;
    e.nextPc = r.nextPc;
    e.cls = u8(r.cls);
    e.dst = r.dst;
    e.src1 = r.src1;
    e.src2 = r.src2;
    e.taken = r.taken;
    return e;
}

Event
concEvent(u64 insts)
{
    Event e;
    e.conc = true;
    e.insts = insts;
    return e;
}

/** Logs every call, the threads that made them, and the span of each
 *  recordBlock call in the stream. */
struct RecordingSink : host::TraceSink
{
    std::vector<Event> events;
    std::vector<std::thread::id> callers;
    std::vector<std::pair<u64, u64>> blocks; //!< first record, count
    u64 records = 0;

    void
    note(const Event &e)
    {
        events.push_back(e);
        std::thread::id me = std::this_thread::get_id();
        if (callers.empty() || callers.back() != me)
            callers.push_back(me);
    }
    void
    record(const InstRecord &r) override
    {
        ++records;
        note(recordEvent(r));
    }
    void
    recordBlock(const InstRecord *recs, std::size_t n) override
    {
        blocks.emplace_back(records, n);
        for (std::size_t i = 0; i < n; ++i)
            record(recs[i]);
    }
    void recordConcurrent(u64 n) override { note(concEvent(n)); }
};

struct CountingSink : host::TraceSink
{
    u64 records = 0;
    u64 concurrent = 0;

    void record(const InstRecord &) override { ++records; }
    void recordConcurrent(u64 n) override { concurrent += n; }
};

/** Throws on its `limit`-th record. */
struct ThrowingSink : host::TraceSink
{
    explicit ThrowingSink(u64 limit) : limit(limit) {}
    u64 limit;
    u64 seen = 0;
    std::thread::id thrower;

    void
    record(const InstRecord &) override
    {
        if (++seen == limit) {
            thrower = std::this_thread::get_id();
            throw std::runtime_error("sink overflow");
        }
    }
};

Config
timedCfg(std::vector<std::string> extra = {})
{
    Config cfg(extra);
    cfg.set("tol.bb_threshold", s64(4));
    cfg.set("tol.sb_threshold", s64(12));
    cfg.set("tol.min_edge_total", s64(8));
    return cfg;
}

Program
smallProgram()
{
    workloads::WorkloadParams p;
    p.seed = 29;
    p.name = "pipe29";
    p.numBlocks = 24;
    p.outerIters = 40;
    p.fpFrac = 0.25;
    p.callFrac = 0.08;
    p.indirectFrac = 0.03;
    return workloads::synthesize(p);
}

/** Attach `sink` to the host emulator and cost model directly,
 *  bypassing the pipeline: today's direct-call stream. */
void
attachDirect(sim::Controller &ctl, host::TraceSink *sink)
{
    ctl.tol().hostEmu().setTraceSink(sink);
    ctl.tol().costModel().setTraceSink(sink);
}

/** A timing core with its own StatGroup. */
struct Timed
{
    explicit Timed(const Config &cfg) : stats("timing"), core(cfg, stats)
    {
    }
    StatGroup stats;
    timing::InOrderCore core;
};

void
expectSameTiming(const Timed &piped, const Timed &direct,
                 const std::string &where)
{
    ASSERT_EQ(piped.core.cycles(), direct.core.cycles()) << where;
    ASSERT_EQ(piped.core.instructions(), direct.core.instructions())
        << where;
    const auto &a = piped.stats.counters();
    const auto &b = direct.stats.counters();
    ASSERT_EQ(a.size(), b.size()) << where;
    for (const auto &[name, c] : a) {
        auto it = b.find(name);
        ASSERT_NE(it, b.end()) << where << ": " << name;
        ASSERT_EQ(c.value(), it->second.value()) << where << ": " << name;
    }
}

/** Allowed CPUs of the calling thread. */
int
allowedCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) != 0)
        return 1;
    return CPU_COUNT(&set);
}

/**
 * A seeded stream of 200,000 records: random classes, operands and
 * addresses at sequential PCs, recordConcurrent positions (before the
 * first record, after the last, around every block boundary and at
 * random, sometimes two at one position) and mid-stream drains, each
 * one a partial block.
 */
struct SeededStream
{
    std::vector<InstRecord> recs;
    std::multimap<u64, u64> conc; //!< record position -> insts
    std::vector<u64> drains;      //!< drain after this many records
};

SeededStream
seededStream(u64 seed)
{
    constexpr u64 n = 200'000;
    constexpr u64 blk = TracePipeline::blockRecords;
    Rng rng(seed);
    SeededStream s;
    s.conc.emplace(0, rng.range(1, 1000));
    s.conc.emplace(n, rng.range(1, 1000));
    for (u64 b = blk; b < n; b += blk) {
        if (rng.chance(0.5))
            s.conc.emplace(b, rng.range(1, 1000));
        if (rng.chance(0.25))
            s.conc.emplace(b - 1, rng.range(1, 1000));
        if (rng.chance(0.25))
            s.conc.emplace(b + 1, rng.range(1, 1000));
    }
    for (int k = 0; k < 300; ++k) {
        u64 pos = rng.range(0, n);
        s.conc.emplace(pos, rng.range(1, 1000));
        if (k % 10 == 0)
            s.conc.emplace(pos, rng.range(1, 1000));
    }
    for (int k = 0; k < 40; ++k)
        s.drains.push_back(rng.range(1, n - 1));
    s.drains.push_back(blk);
    std::sort(s.drains.begin(), s.drains.end());
    for (u64 i = 0; i < n; ++i) {
        InstRecord r;
        r.pc = u32(i * 4);
        r.memAddr = u32(rng.next());
        r.nextPc = u32(rng.next());
        r.cls = InstClass(rng.range(0, u64(InstClass::Other)));
        r.dst = u8(rng.next());
        r.src1 = u8(rng.next());
        r.src2 = u8(rng.next());
        r.taken = rng.chance(0.5);
        s.recs.push_back(r);
    }
    return s;
}

/** The calls a sink attached directly receives for `s`. */
std::vector<Event>
directEvents(const SeededStream &s)
{
    std::vector<Event> events;
    auto c = s.conc.begin();
    for (u64 i = 0; i <= s.recs.size(); ++i) {
        for (; c != s.conc.end() && c->first == i; ++c)
            events.push_back(concEvent(c->second));
        if (i < s.recs.size())
            events.push_back(recordEvent(s.recs[i]));
    }
    return events;
}

/**
 * Feed `s` through `pipe`, and the same calls one at a time to
 * `direct` when given. Drain at each of s.drains, then call `drained`
 * with the records fed so far; drain again at the end.
 */
template <typename OnDrain>
void
feedSeeded(TracePipeline &pipe, const SeededStream &s,
           host::TraceSink *direct, OnDrain drained)
{
    auto d = s.drains.begin();
    auto c = s.conc.begin();
    for (u64 i = 0; i <= s.recs.size(); ++i) {
        for (; c != s.conc.end() && c->first == i; ++c) {
            pipe.recordConcurrent(c->second);
            if (direct)
                direct->recordConcurrent(c->second);
        }
        if (i == s.recs.size())
            break;
        pipe.record(s.recs[i]);
        if (direct)
            direct->record(s.recs[i]);
        for (; d != s.drains.end() && *d == i + 1; ++d) {
            pipe.drain();
            drained(i + 1);
        }
    }
    pipe.drain();
}

} // namespace

TEST(TracePipeline, SeededStreamArrivesInDirectCallOrder)
{
    const SeededStream stream = seededStream(1607);
    std::vector<Event> expected = directEvents(stream);

    RecordingSink sink;
    TracePipeline pipe;
    pipe.setSink(&sink);
    feedSeeded(pipe, stream, nullptr, [&](u64 recs) {
        // The records so far and the recordConcurrent calls before them.
        auto concs = std::distance(stream.conc.begin(),
                                   stream.conc.lower_bound(recs));
        ASSERT_EQ(sink.events.size(), recs + u64(concs))
            << "drain after record " << recs;
    });
    ASSERT_EQ(sink.events.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i)
        ASSERT_TRUE(sink.events[i] == expected[i]) << "event " << i;

    // Every record came in a recordBlock call, and no call spans a
    // recordConcurrent position.
    u64 covered = 0;
    for (const auto &[first, n] : sink.blocks) {
        ASSERT_GT(n, 0u);
        ASSERT_LE(n, TracePipeline::blockRecords);
        ASSERT_EQ(first, covered) << "blocks are in stream order";
        auto c = stream.conc.upper_bound(first);
        ASSERT_TRUE(c == stream.conc.end() || c->first >= first + n)
            << "block [" << first << ", " << first + n
            << ") spans a recordConcurrent at " << c->first;
        covered += n;
    }
    EXPECT_EQ(covered, stream.recs.size());

    // One writer: the consumer thread, once it started (drains before
    // the first full block deliver on this thread).
    if (pipe.threaded()) {
        ASSERT_FALSE(sink.callers.empty());
        EXPECT_LE(sink.callers.size(), 2u);
        EXPECT_NE(sink.callers.back(), std::this_thread::get_id());
    }
}

TEST(TracePipeline, CoreThroughPipelineMatchesRecordByRecord)
{
    // The core takes each delivered run as one block; the direct core
    // gets record() and recordConcurrent() calls one at a time. After
    // every drain both must agree in cycles and every counter.
    const SeededStream stream = seededStream(3319);
    Config cfg = timedCfg({"tol.async.vthreads=3"});
    Timed piped(cfg), direct(cfg);
    TracePipeline pipe;
    pipe.setSink(&piped.core);
    feedSeeded(pipe, stream, &direct.core, [&](u64 recs) {
        expectSameTiming(piped, direct,
                         "drain after record " + std::to_string(recs));
    });
    expectSameTiming(piped, direct, "end of stream");
    EXPECT_EQ(pipe.threaded(), allowedCpus() >= 2);
    EXPECT_EQ(direct.core.instructions(), stream.recs.size());
    EXPECT_GT(direct.stats.value("core.translator_insts"), 0u);
    EXPECT_GT(direct.stats.value("bpred.mispredicts"), 0u);
    EXPECT_GT(direct.stats.value("l1d.misses"), 0u);
}

TEST(TracePipeline, BudgetSlicesMatchDirectFeed)
{
    Program prog = smallProgram();
    struct Case
    {
        u64 slice;
        std::vector<std::string> cfg;
    };
    // The async case puts real recordConcurrent calls in the stream.
    const std::vector<Case> cases = {
        {1, {}},
        {7, {}},
        {4096, {}},
        {100'000, {}},
        {4096, {"tol.async.threads=1", "tol.async.vthreads=2"}},
    };
    for (const Case &k : cases) {
        Config cfg = timedCfg(k.cfg);
        sim::Controller piped(cfg), direct(cfg);
        piped.load(prog);
        direct.load(prog);
        Timed tp(cfg), td(cfg);
        piped.tol().setTraceSink(&tp.core);
        attachDirect(direct, &td.core);
        u64 slices = 0;
        while (!piped.finished()) {
            piped.run(k.slice);
            direct.run(k.slice);
            ++slices;
            ASSERT_EQ(piped.tol().completedInsts(),
                      direct.tol().completedInsts());
            expectSameTiming(tp, td,
                             "slice " + std::to_string(k.slice) + " #" +
                                 std::to_string(slices));
        }
        EXPECT_TRUE(direct.finished());
        EXPECT_GT(td.core.instructions(), 0u);
        if (!k.cfg.empty()) {
            EXPECT_GT(td.stats.value("core.translator_insts"), 0u);
        }
    }
}

TEST(TracePipeline, SwitchingSinksRoutesEveryRecord)
{
    Program prog = smallProgram();
    Config cfg = timedCfg({"tol.async.threads=1"});
    sim::Controller piped(cfg), direct(cfg);
    piped.load(prog);
    direct.load(prog);

    CountingSink a, b, da, db;
    piped.tol().setTraceSink(&a);
    attachDirect(direct, &da);
    piped.run(12'000);
    direct.run(12'000);

    piped.tol().setTraceSink(&b);
    attachDirect(direct, &db);
    piped.run(12'000);
    direct.run(12'000);

    piped.tol().setTraceSink(nullptr);
    attachDirect(direct, nullptr);
    u64 before = piped.tol().completedInsts();
    piped.run();
    direct.run();
    ASSERT_TRUE(piped.finished());
    EXPECT_GT(piped.tol().completedInsts(), before) << "detached phase ran";

    EXPECT_GT(da.records, 0u);
    EXPECT_GT(db.records, 0u);
    EXPECT_EQ(a.records, da.records);
    EXPECT_EQ(a.concurrent, da.concurrent);
    EXPECT_EQ(b.records, db.records);
    EXPECT_EQ(b.concurrent, db.concurrent);
}

TEST(TracePipeline, SinkExceptionRethrowsOnSimulationThread)
{
    Program prog = smallProgram();
    Config cfg = timedCfg();
    ThrowingSink sink(3 * TracePipeline::blockRecords + 17);
    {
        sim::Controller ctl(cfg);
        ctl.load(prog);
        ctl.tol().setTraceSink(&sink);
        try {
            ctl.run();
            FAIL() << "the sink's exception must escape run()";
        } catch (const std::runtime_error &e) {
            EXPECT_STREQ(e.what(), "sink overflow");
        }
        if (ctl.tol().tracePipeline().threaded()) {
            EXPECT_NE(sink.thrower, std::this_thread::get_id());
        }
        EXPECT_EQ(sink.seen, sink.limit) << "no delivery after the throw";
        // The Controller, its Tol and the consumer go out of scope here.
    }
}

TEST(TracePipeline, GuestFaultDrainsRecordsInFlight)
{
    // A hot loop whose division faults after 2000 iterations, inside a
    // translated region: the fault rolls back, IM re-executes it and
    // GuestFault escapes run() with records still in the ring.
    Assembler a;
    auto loop = a.newLabel();
    a.movri(RSI, 3000);
    a.movri(RAX, 1000);
    a.bind(loop);
    a.movrr(RBX, RSI);
    a.subri(RBX, 1000);
    a.movrr(RDX, RAX);
    a.idivrr(RDX, RBX);
    a.dec(RSI);
    a.jcc(GCond::NE, loop);
    a.movri(RAX, xemu::sysExit);
    a.syscall();
    Program prog = a.finish("pipefault");

    Config cfg = timedCfg();
    sim::Controller direct(cfg);
    direct.load(prog);
    CountingSink expect;
    attachDirect(direct, &expect);
    EXPECT_THROW(direct.run(), GuestFault);
    ASSERT_GT(expect.records, TracePipeline::blockRecords);

    auto sink = std::make_unique<CountingSink>();
    sim::Controller piped(cfg);
    piped.load(prog);
    piped.tol().setTraceSink(sink.get());
    EXPECT_THROW(piped.run(), GuestFault);
    EXPECT_EQ(sink->records, expect.records);
    EXPECT_EQ(sink->concurrent, expect.concurrent);
    // Destroying the sink first is safe: nothing is left in flight.
    sink.reset();
}

TEST(TracePipeline, SingleCpuThreadDeliversInline)
{
    Program prog = smallProgram();
    Config cfg = timedCfg();

    auto simulate = [&](bool &threaded) {
        auto t = std::make_unique<Timed>(cfg);
        sim::Controller ctl(cfg);
        ctl.load(prog);
        ctl.tol().setTraceSink(&t->core);
        ctl.run();
        threaded = ctl.tol().tracePipeline().threaded();
        return t;
    };

    bool pinnedThreaded = true;
    std::unique_ptr<Timed> pinned;
    int pinErr = 0;
    std::thread th([&] {
        cpu_set_t one;
        CPU_ZERO(&one);
        int cpu = sched_getcpu();
        CPU_SET(cpu < 0 ? 0 : cpu, &one);
        pinErr = pthread_setaffinity_np(pthread_self(), sizeof one, &one);
        if (pinErr == 0)
            pinned = simulate(pinnedThreaded);
    });
    th.join();
    ASSERT_EQ(pinErr, 0);
    EXPECT_FALSE(pinnedThreaded) << "one allowed CPU starts no thread";

    bool unpinnedThreaded = false;
    std::unique_ptr<Timed> unpinned = simulate(unpinnedThreaded);
    EXPECT_EQ(unpinnedThreaded, allowedCpus() >= 2);
    expectSameTiming(*pinned, *unpinned, "single-CPU vs threaded");
}

TEST(TracePipeline, ConsumerStartsOnlyWhileACpuIsSpare)
{
    const int cpus = allowedCpus();
    CountingSink sink;
    TracePipeline pipe;
    pipe.setSink(&sink);
    auto feedBlock = [&] {
        for (u32 i = 0; i < TracePipeline::blockRecords; ++i)
            pipe.record(InstRecord());
    };
    {
        // Every allowed CPU runs a simulation: blocks go inline.
        std::vector<std::unique_ptr<TracePipeline::Running>> busy;
        for (int i = 0; i < cpus; ++i)
            busy.push_back(std::make_unique<TracePipeline::Running>());
        feedBlock();
        feedBlock();
        EXPECT_FALSE(pipe.threaded());
        EXPECT_EQ(sink.records, 2 * TracePipeline::blockRecords)
            << "full blocks are delivered inline, before any drain";
    }
    // A CPU is spare again: the next full block starts the consumer.
    feedBlock();
    pipe.drain();
    EXPECT_EQ(pipe.threaded(), cpus >= 2);
    EXPECT_EQ(sink.records, 3 * TracePipeline::blockRecords);
}

/**
 * @file
 * Reference run-ahead tests: with one core, the Controller runs the
 * reference component ahead on a thread of its own, and nothing a
 * caller can read may depend on it. A threaded run is compared with
 * one on a thread pinned to a single CPU, which starts no thread:
 * stats, exit codes, final states, OS output, images saved between
 * run() slices, and the exceptions of diverging and faulting runs.
 * The two-level page table under it is tested here too: pages at the
 * ends of the address space, page-crossing accesses, the image
 * format, concurrent allocation and the write guard.
 */

#include <gtest/gtest.h>

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <functional>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "campaign/campaign.hh"
#include "common/rng.hh"
#include "guest/asm.hh"
#include "guest/memory.hh"
#include "guest/semantics.hh"
#include "sim/controller.hh"
#include "snapshot/io.hh"
#include "timing/core.hh"
#include "workloads/synth.hh"
#include "xemu/os.hh"

using namespace darco;
using namespace darco::guest;
using darco::sim::Controller;
using darco::sim::DivergenceError;

namespace
{

int
allowedCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) != 0)
        return 1;
    return CPU_COUNT(&set);
}

/** Run `body` on a thread allowed only the CPU it starts on. */
void
onOneCpu(const std::function<void()> &body)
{
    int err = 0;
    std::thread th([&] {
        cpu_set_t one;
        CPU_ZERO(&one);
        int cpu = sched_getcpu();
        CPU_SET(cpu < 0 ? 0 : cpu, &one);
        err = pthread_setaffinity_np(pthread_self(), sizeof one, &one);
        if (err == 0)
            body();
    });
    th.join();
    ASSERT_EQ(err, 0);
}

/** Two syscalls and a store per iteration. */
Program
syscallHeavy()
{
    Assembler a;
    auto loop = a.newLabel();
    a.movri(RSI, 1500);
    a.movri(RBX, s32(layout::dataBase));
    a.movri(RDX, 0);
    a.bind(loop);
    a.movri(RAX, s32(xemu::sysTime));
    a.syscall();
    a.addrr(RDX, RAX);
    a.movri(RAX, s32(xemu::sysRand));
    a.syscall();
    a.andri(RAX, 0xffc);
    a.addrr(RAX, RBX);
    a.addmr(mem(RAX), RDX);
    a.dec(RSI);
    a.jcc(GCond::NE, loop);
    a.movri(RAX, s32(xemu::sysWriteInt));
    a.movrr(RCX, RDX);
    a.syscall();
    a.movri(RAX, s32(xemu::sysExit));
    a.movri(RCX, 3);
    a.syscall();
    Program p = a.finish("syscalls");
    p.data.resize(4096, 0);
    return p;
}

/**
 * Stores across 300 fresh pages, each also spanning into the next
 * page, then a REP STOSB over three page boundaries, then a read-back.
 */
Program
pageHeavy()
{
    constexpr s32 pages = 300;
    constexpr s32 base = s32(layout::dataBase) + 0x10000;
    Assembler a;
    auto fill = a.newLabel();
    auto sum = a.newLabel();
    a.movri(RBX, base);
    a.movri(RSI, pages);
    a.bind(fill);
    a.movmr(mem(RBX), RSI);
    a.movmr(mem(RBX, s32(pageSizeBytes) - 2), RSI);
    a.addri(RBX, s32(pageSizeBytes));
    a.dec(RSI);
    a.jcc(GCond::NE, fill);
    a.movri(RDI, base + 7 * s32(pageSizeBytes) - 100);
    a.movri(RCX, 3 * s32(pageSizeBytes));
    a.movri(RAX, 0x5a);
    a.stosb(true);
    a.movri(RBX, base);
    a.movri(RSI, pages);
    a.movri(RDX, 0);
    a.bind(sum);
    a.addrm(RDX, mem(RBX, s32(pageSizeBytes) - 2));
    a.addrm(RDX, mem(RBX, 40));
    a.addri(RBX, s32(pageSizeBytes));
    a.dec(RSI);
    a.jcc(GCond::NE, sum);
    a.movri(RAX, s32(xemu::sysWriteInt));
    a.movrr(RCX, RDX);
    a.syscall();
    a.hlt();
    return a.finish("pages");
}

/** A SPEC-shaped program with syscalls, calls, REP ops and FP. */
Program
synthProgram(u64 seed)
{
    workloads::WorkloadParams p;
    p.seed = seed;
    p.name = "runahead" + std::to_string(seed);
    p.numBlocks = 30;
    p.outerIters = 150;
    p.fpFrac = 0.2;
    p.strFrac = 0.1;
    return workloads::synthesize(p);
}

Config
preset(const std::string &name, std::vector<std::string> extra = {})
{
    auto configs = campaign::presetConfigs({name}, extra);
    return configs.at(0).second;
}

/** Everything a caller can read after a sliced run. */
struct Outcome
{
    std::map<std::string, u64> stats;
    u32 exitCode = 0;
    CpuState refState, tolState;
    std::string output;
    std::vector<std::string> images;
    bool threaded = false;
    bool refAtCount = true; //!< after every run(k)
};

Outcome
sliced(const Config &cfg, const Program &prog, u64 slice)
{
    Outcome o;
    Controller ctl(cfg);
    ctl.load(prog);
    bool more = true;
    while (more) {
        more = ctl.run(slice);
        for (u32 c = 0; c < ctl.numCores(); ++c) {
            if (ctl.ref(c).instCount() != ctl.tol().completedInsts(c))
                o.refAtCount = false;
        }
        if (more) {
            std::ostringstream os;
            ctl.saveCheckpoint(os);
            o.images.push_back(os.str());
        }
    }
    for (const auto &[name, c] : ctl.stats().counters())
        o.stats[name] = c.value();
    o.exitCode = ctl.exitCode();
    o.refState = ctl.ref().state();
    o.tolState = ctl.tol().state();
    o.output = ctl.ref().os().output();
    o.threaded = ctl.threaded();
    return o;
}

void
expectSame(const Outcome &threaded, const Outcome &pinned,
           const std::string &what)
{
    EXPECT_EQ(threaded.stats, pinned.stats) << what;
    EXPECT_EQ(threaded.exitCode, pinned.exitCode) << what;
    EXPECT_TRUE(threaded.refState == pinned.refState) << what;
    EXPECT_TRUE(threaded.tolState == pinned.tolState) << what;
    EXPECT_EQ(threaded.output, pinned.output) << what;
    ASSERT_EQ(threaded.images.size(), pinned.images.size()) << what;
    for (std::size_t i = 0; i < threaded.images.size(); ++i)
        EXPECT_TRUE(threaded.images[i] == pinned.images[i])
            << what << ": image " << i;
    EXPECT_TRUE(threaded.refAtCount) << what;
    EXPECT_TRUE(pinned.refAtCount) << what;
    EXPECT_FALSE(pinned.threaded) << what << ": one CPU starts no thread";
    EXPECT_EQ(threaded.threaded, allowedCpus() >= 2) << what;
}

/** The type and text of what a run raises ("" if nothing). */
std::string
failure(const Config &cfg, const Program &prog)
{
    Controller ctl(cfg);
    ctl.load(prog);
    try {
        ctl.run();
    } catch (const DivergenceError &e) {
        return std::string("DivergenceError: ") + e.what();
    } catch (const GuestFault &e) {
        return std::string("GuestFault: ") + e.what();
    } catch (const std::exception &e) {
        return std::string("exception: ") + e.what();
    }
    return "";
}

/** FNV-1a, to pin a byte string. */
u64
fnv1a(const std::string &s)
{
    u64 h = 0xcbf29ce484222325ull;
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

} // namespace

TEST(RefRunAhead, ThreadedRunsEqualPinnedOnes)
{
    const std::vector<std::pair<std::string, Program>> programs = {
        {"syscalls", syscallHeavy()},
        {"pages", pageHeavy()},
        {"synth", synthProgram(3)},
    };
    for (const char *name : {"interp", "noopt", "fullopt", "tinycc",
                             "async"}) {
        for (const auto &[pname, prog] : programs) {
            Config cfg = preset(name);
            Outcome pinned;
            onOneCpu([&] { pinned = sliced(cfg, prog, 1'499); });
            Outcome threaded = sliced(cfg, prog, 1'499);
            expectSame(threaded, pinned, std::string(name) + "/" + pname);
            EXPECT_GT(threaded.images.size(), 0u) << pname;
        }
    }
}

TEST(RefRunAhead, UnboundedRunsEqualPinnedOnes)
{
    for (const char *name : {"fullopt", "async"}) {
        Config cfg = preset(name);
        Program prog = synthProgram(5);
        Outcome pinned;
        onOneCpu([&] { pinned = sliced(cfg, prog, ~0ull); });
        Outcome threaded = sliced(cfg, prog, ~0ull);
        expectSame(threaded, pinned, name);
        EXPECT_EQ(threaded.stats.at("sync.syscalls"),
                  pinned.stats.at("sync.syscalls"));
    }
}

TEST(RefRunAhead, ReferenceStandsAtTheCoDesignedCount)
{
    for (const char *cores : {"cores=1", "cores=2"}) {
        Controller ctl(preset("fullopt", {cores}));
        ctl.load(synthProgram(7));
        bool more = true;
        while (more) {
            more = ctl.run(3'001);
            for (u32 c = 0; c < ctl.numCores(); ++c) {
                ASSERT_EQ(ctl.ref(c).instCount(),
                          ctl.tol().completedInsts(c))
                    << cores << " core " << c;
                ASSERT_EQ(ctl.validateState(c), "") << cores;
            }
        }
        EXPECT_EQ(ctl.threaded(),
                  std::string(cores) == "cores=1" && allowedCpus() >= 2);
    }
}

TEST(RefRunAhead, TraceSinkKeepsTheSpareCpuForItsConsumer)
{
    Config cfg = preset("fullopt");
    Controller ctl(cfg);
    ctl.load(synthProgram(9));
    StatGroup tstats("timing");
    timing::InOrderCore core(cfg, tstats);
    ctl.tol().setTraceSink(&core);
    ctl.run(20'000);
    EXPECT_FALSE(ctl.threaded());
    ctl.tol().setTraceSink(nullptr);
    ctl.run();
    EXPECT_EQ(ctl.threaded(), allowedCpus() >= 2);
    EXPECT_EQ(ctl.validateState(), "");
}

TEST(RefRunAhead, DivergenceRaisesTheSameOnBothPaths)
{
    // Flipped conditional exits send the co-designed side down wrong
    // paths; the reference may then be anywhere ahead of it.
    int divergences = 0;
    for (u64 seed = 1; seed <= 6; ++seed) {
        Config cfg = preset("fullopt", {"debug.flip_cond_exits=true"});
        Program prog = synthProgram(seed);
        std::string pinned;
        onOneCpu([&] { pinned = failure(cfg, prog); });
        std::string threaded = failure(cfg, prog);
        EXPECT_EQ(threaded, pinned) << "seed " << seed;
        divergences += pinned.rfind("DivergenceError", 0) == 0;
    }
    EXPECT_GT(divergences, 0) << "no seed diverged: the test is blind";
}

TEST(RefRunAhead, GuestFaultRaisesTheSameOnBothPaths)
{
    Assembler a;
    auto loop = a.newLabel();
    a.movri(RSI, 5000);
    a.movri(RDX, 0);
    a.bind(loop);
    a.addri(RDX, 3);
    a.dec(RSI);
    a.jcc(GCond::NE, loop);
    a.movri(RAX, s32(xemu::sysTime));
    a.syscall();
    a.movri(RCX, 0);
    a.movri(RAX, 7);
    a.idivrr(RAX, RCX);
    a.movri(RAX, s32(xemu::sysExit));
    a.syscall();
    Program prog = a.finish("div0");
    for (const char *name : {"interp", "fullopt"}) {
        std::string pinned;
        onOneCpu([&] { pinned = failure(preset(name), prog); });
        EXPECT_EQ(pinned.rfind("GuestFault: ", 0), 0u) << pinned;
        EXPECT_EQ(failure(preset(name), prog), pinned) << name;
    }
}

// ---------------------------------------------------------------------
// The two-level page table
// ---------------------------------------------------------------------

TEST(RunAheadMemory, PagesAtBothEndsOfTheAddressSpace)
{
    PagedMemory m;
    m.write32(0, 0x11223344);
    m.write32(0xfffffffc, 0x55667788);
    EXPECT_EQ(m.read32(0), 0x11223344u);
    EXPECT_EQ(m.read32(0xfffffffc), 0x55667788u);
    EXPECT_TRUE(m.hasPage(0));
    EXPECT_TRUE(m.hasPage(0xfffff000));
    EXPECT_FALSE(m.hasPage(0xffffe000));
    EXPECT_EQ(m.residentPages(), (std::vector<GAddr>{0, 0xfffff000}));
}

TEST(RunAheadMemory, AccessesSpanningTwoPages)
{
    PagedMemory m;
    // Across a page boundary, and across a directory boundary.
    for (GAddr at : {GAddr(0x1ffe), GAddr(0x3ffffd)}) {
        m.write64(at, 0x0102030405060708ull);
        EXPECT_EQ(m.read64(at), 0x0102030405060708ull);
        EXPECT_EQ(m.read8(at), 0x08);
        EXPECT_EQ(m.read16(at + 6), 0x0102);
        EXPECT_EQ(m.read32(at + 2), 0x03040506u);
    }
    EXPECT_EQ(m.pageCount(), 4u);
    std::vector<u8> block(3 * pageSizeBytes);
    for (std::size_t i = 0; i < block.size(); ++i)
        block[i] = u8(i * 7);
    m.writeBlock(0x3ff800, block.data(), block.size());
    std::vector<u8> back(block.size());
    m.readBlock(0x3ff800, back.data(), back.size());
    EXPECT_EQ(back, block);
}

TEST(RunAheadMemory, ResidentPagesSorted)
{
    PagedMemory m;
    Rng rng(9);
    std::vector<GAddr> want;
    for (int i = 0; i < 200; ++i) {
        GAddr a = GAddr(rng.next());
        m.write8(a, 1);
        want.push_back(pageBase(a));
    }
    std::sort(want.begin(), want.end());
    want.erase(std::unique(want.begin(), want.end()), want.end());
    EXPECT_EQ(m.residentPages(), want);
    EXPECT_EQ(m.pageCount(), want.size());
}

TEST(RunAheadMemory, ImageBytesUnchanged)
{
    // Three pages in three directories, saved as the unordered-map
    // table did: the `ref` and `emem` section format is unchanged.
    PagedMemory m;
    for (GAddr base : {GAddr(0xfffff000), GAddr(0), GAddr(0x400000)}) {
        for (u32 i = 0; i < pageSizeBytes; i += 4)
            m.write32(base + i, base ^ (i * 2654435761u));
    }
    std::ostringstream os;
    {
        snapshot::Serializer s(os);
        s.beginSection("mem");
        m.save(s);
        s.endSection();
        s.finish();
    }
    EXPECT_EQ(os.str().size(), 12'332u);
    EXPECT_EQ(fnv1a(os.str()), 0x0dc53e49e65ab4f3ull);

    std::istringstream is(os.str());
    snapshot::Deserializer d(is);
    PagedMemory back(MissPolicy::Signal);
    d.expectSection("mem");
    back.restore(d);
    d.endSection();
    EXPECT_EQ(back.policy(), MissPolicy::AllocateZero);
    EXPECT_EQ(back.residentPages(), m.residentPages());
    EXPECT_EQ(back.read32(0x400ffc), m.read32(0x400ffc));
}

TEST(RunAheadMemory, TwoThreadsAllocatingAPageGetOnePage)
{
    constexpr u32 pages = 3000;
    PagedMemory m;
    std::atomic<int> ready{0};
    std::vector<const u8 *> seen[2];
    auto touch = [&](int t) {
        seen[t].reserve(pages);
        ready.fetch_add(1);
        while (ready.load() < 2) {
        }
        // Both walk the same pages, in opposite directory orders.
        for (u32 i = 0; i < pages; ++i) {
            u32 k = t == 0 ? i : pages - 1 - i;
            seen[t].push_back(m.page(GAddr(k) * 0x15000u));
        }
    };
    std::thread a(touch, 0), b(touch, 1);
    a.join();
    b.join();
    EXPECT_EQ(m.pageCount(), pages);
    for (u32 i = 0; i < pages; ++i)
        ASSERT_EQ(seen[0][i], seen[1][pages - 1 - i]) << i;
}

TEST(RunAheadMemory, GuardedStoreRaisesBeforeWritingAnyByte)
{
    PagedMemory held(MissPolicy::Signal);
    std::vector<u8> fill(pageSizeBytes, 0xee);
    held.installPage(0x1000, fill.data());

    PagedMemory m;
    m.writeBlock(0x1000, fill.data(), fill.size());
    m.setWriteGuard(&held);
    m.write32(0x1ff0, 0x12345678); // a held page
    EXPECT_EQ(m.read32(0x1ff0), 0x12345678u);

    auto missAt = [&](const std::function<void()> &store) -> GAddr {
        try {
            store();
        } catch (const PageMiss &pm) {
            return pm.page;
        }
        return 1;
    };
    EXPECT_EQ(missAt([&] { m.write8(0x2000, 1); }), 0x2000u);
    EXPECT_EQ(missAt([&] { m.write32(0x1ffe, 0xaabbccdd); }), 0x2000u);
    EXPECT_EQ(missAt([&] { m.write64(0xffd, 1); }), 0x0u);
    EXPECT_EQ(missAt([&] { m.writeBlock(0x1f00, fill.data(), 512); }),
              0x2000u);
    // Nothing of the refused stores landed, and reads stay free.
    EXPECT_EQ(m.read16(0x1ffe), 0xeeee);
    EXPECT_EQ(m.read8(0x1f00), 0xee);
    EXPECT_EQ(m.read32(0x2000), 0u);

    held.installPage(0x2000, fill.data());
    m.write32(0x1ffe, 0xaabbccdd);
    EXPECT_EQ(m.read32(0x1ffe), 0xaabbccddu);
    m.setWriteGuard(nullptr);
    m.write8(0x9000, 1);
    EXPECT_EQ(m.read8(0x9000), 1);
}

/**
 * @file
 * Controller / sync-protocol tests: three-phase execution flow, the
 * data-request protocol (demand paging from the reference component),
 * syscall synchronization with validation, end-of-application
 * comparison, and the divergence debug toolchain.
 */

#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "guest/asm.hh"
#include "sim/controller.hh"
#include "sim/debug.hh"
#include "timing/core.hh"
#include "workloads/suite.hh"

using namespace darco;
using namespace darco::guest;
using namespace darco::sim;
using darco::workloads::synthesize;
using darco::workloads::WorkloadParams;
using darco::xemu::sysExit;
using darco::xemu::sysRead;
using darco::xemu::sysWrite;

namespace
{

Config
testCfg(std::vector<std::string> extra = {})
{
    Config cfg(extra);
    if (!cfg.has("tol.bb_threshold"))
        cfg.set("tol.bb_threshold", s64(4));
    if (!cfg.has("tol.sb_threshold"))
        cfg.set("tol.sb_threshold", s64(12));
    if (!cfg.has("tol.min_edge_total"))
        cfg.set("tol.min_edge_total", s64(8));
    return cfg;
}

WorkloadParams
smallWorkload(u64 seed)
{
    WorkloadParams p;
    p.seed = seed;
    p.name = "ctl" + std::to_string(seed);
    p.numBlocks = 30;
    p.outerIters = 120;
    p.fpFrac = 0.25;
    p.trigFrac = 0.1;
    p.strFrac = 0.04;
    p.callFrac = 0.08;
    p.indirectFrac = 0.03;
    return p;
}

/** Every counter of the controller, by name. */
std::map<std::string, u64>
statsOf(Controller &ctl)
{
    std::map<std::string, u64> m;
    for (const auto &[name, c] : ctl.stats().counters())
        m[name] = c.value();
    return m;
}

std::string
saveImage(Controller &ctl)
{
    std::ostringstream os;
    ctl.saveCheckpoint(os);
    return os.str();
}

void
restoreImage(Controller &ctl, const std::string &image)
{
    std::istringstream is(image);
    ctl.restoreCheckpoint(is);
}

} // namespace

TEST(Controller, FullSystemRunValidates)
{
    Controller ctl(testCfg());
    ctl.load(synthesize(smallWorkload(11)));
    ASSERT_NO_THROW(ctl.run());
    EXPECT_TRUE(ctl.finished());
    // Both components agree on final architectural state.
    EXPECT_EQ(ctl.validateState(), "");
    // Sync traffic actually happened.
    EXPECT_GT(ctl.stats().value("sync.pages_transferred"), 0u);
    EXPECT_GT(ctl.stats().value("sync.syscalls"), 0u);
    EXPECT_GT(ctl.stats().value("sync.validations"), 0u);
}

TEST(Controller, DemandPagingIsLazy)
{
    // The co-designed component must hold only the pages it touched;
    // the reference side owns the full image.
    Controller ctl(testCfg());
    ctl.load(synthesize(smallWorkload(12)));
    ctl.run();
    std::size_t codesigned_pages = ctl.emulatedMemory().pageCount();
    std::size_t ref_pages = ctl.ref().memory().pageCount();
    EXPECT_GT(codesigned_pages, 0u);
    EXPECT_LE(codesigned_pages, ref_pages);
    EXPECT_EQ(ctl.stats().value("sync.pages_transferred"),
              codesigned_pages);
}

TEST(Controller, SyscallEffectsCrossTheBoundary)
{
    // sysRead writes guest memory on the reference side; the
    // co-designed side must observe the bytes.
    Assembler a;
    std::size_t buf = a.dataZero(32);
    auto loop = a.newLabel();
    // Warm the buffer page into the co-designed image first.
    a.movri(RBX, s32(Program::dataAddr(buf)));
    a.movrm(RAX, mem(RBX));
    // Hot loop so translation kicks in.
    a.movri(RCX, 50);
    a.bind(loop);
    a.addri(RAX, 1);
    a.dec(RCX);
    a.jcc(GCond::NE, loop);
    // Read 5 bytes into the buffer.
    a.movri(RAX, sysRead);
    a.movri(RCX, s32(Program::dataAddr(buf)));
    a.movri(RDX, 5);
    a.syscall();
    // Exit with the first byte.
    a.movzx8(RCX, mem(RBX));
    a.movri(RAX, sysExit);
    a.syscall();

    Controller ctl(testCfg());
    ctl.load(a.finish("readsync"));
    ctl.ref().os().setInput("HELLO");
    ctl.run();
    EXPECT_EQ(ctl.exitCode(), u32('H'));
}

TEST(Controller, SteppedExecutionMatchesMonolithic)
{
    guest::Program p = synthesize(smallWorkload(13));
    Controller mono(testCfg());
    mono.load(p);
    mono.run();

    Controller stepped(testCfg());
    stepped.load(p);
    int slices = 0;
    while (stepped.run(1500))
        ++slices;
    EXPECT_GT(slices, 2);
    EXPECT_EQ(stepped.exitCode(), mono.exitCode());
    EXPECT_EQ(stepped.tol().completedInsts(), mono.tol().completedInsts());
}

TEST(Controller, RunAfterFinishChangesNothing)
{
    Controller ctl(testCfg());
    ctl.load(synthesize(smallWorkload(15)));
    ctl.run();
    ASSERT_TRUE(ctl.finished());
    std::map<std::string, u64> before = statsOf(ctl);
    EXPECT_GT(ctl.stats().value("sync.pages_validated"), 0u);

    // The end-of-application validation ran once, when the program
    // finished; a second run() must not repeat it.
    EXPECT_FALSE(ctl.run());
    EXPECT_EQ(statsOf(ctl), before);
}

TEST(Controller, OutputMatchesReferenceOnlyRun)
{
    guest::Program p = synthesize(smallWorkload(14));
    xemu::RefComponent solo(1);
    solo.load(p);
    solo.runToCompletion(50'000'000);

    Controller ctl(testCfg());
    ctl.load(p);
    ctl.run();
    EXPECT_EQ(ctl.exitCode(), solo.exitCode());
    EXPECT_EQ(ctl.ref().os().output(), solo.os().output());
}

TEST(Controller, ValidationCatchesInjectedCorruption)
{
    // Sabotage the co-designed state mid-run; the syscall validation
    // must throw DivergenceError.
    Assembler a;
    auto loop = a.newLabel();
    a.movri(RSI, 200);
    a.movri(RDX, 0);
    a.bind(loop);
    a.addri(RDX, 3);
    a.dec(RSI);
    a.jcc(GCond::NE, loop);
    a.movri(RAX, s32(xemu::sysTime));
    a.syscall();
    a.movri(RAX, sysExit);
    a.movri(RCX, 0);
    a.syscall();

    Controller ctl(testCfg());
    ctl.load(a.finish("sabotage"));
    // Run half the loop, then corrupt a register the loop doesn't
    // touch (the corruption survives to the syscall sync point).
    ctl.tol().run(300);
    ctl.tol().state().gpr[RBP] ^= 0xdead;
    EXPECT_THROW(ctl.run(), DivergenceError);
}

TEST(Controller, FinalMemoryValidationCatchesCorruption)
{
    Assembler a;
    auto loop = a.newLabel();
    a.movri(RBX, s32(layout::dataBase));
    a.movri(RSI, 100);
    a.bind(loop);
    a.addmr(mem(RBX), RSI);
    a.dec(RSI);
    a.jcc(GCond::NE, loop);
    a.hlt();
    std::vector<std::string> cfg = {"sync.validate_syscalls=false"};

    Controller ctl(testCfg(cfg));
    guest::Program p = a.finish("memsab");
    p.data.resize(64, 0);
    ctl.load(p);
    ctl.tol().run(150);
    // Corrupt co-designed guest memory behind the system's back.
    ctl.emulatedMemory().write32(layout::dataBase, 0xbad);
    EXPECT_THROW(ctl.run(), DivergenceError);
}

TEST(DebugToolchain, CleanRunReportsNoDivergence)
{
    auto d = findFirstDivergence(synthesize(smallWorkload(15)),
                                 testCfg(), 10'000'000);
    EXPECT_FALSE(d.has_value());
}

TEST(DebugToolchain, PinpointsInjectedBug)
{
    guest::Program p = synthesize(smallWorkload(16));
    bool fired = false;
    u64 inject_at = 5000;
    auto d = findFirstDivergence(
        p, testCfg(), 10'000'000,
        [&](tol::Tol &t, u64 completed) {
            if (!fired && completed >= inject_at) {
                fired = true;
                t.state().gpr[RDX] ^= 0x5a5a;
            }
        });
    ASSERT_TRUE(d.has_value());
    EXPECT_TRUE(fired);
    // The report localizes the bug to the slice where it was injected.
    EXPECT_GE(d->instTo, inject_at);
    EXPECT_LE(d->instFrom, inject_at + 2000);
    EXPECT_NE(d->stateDiff.find("r2"), std::string::npos)
        << d->stateDiff;
    EXPECT_FALSE(d->disassembly.empty());
}

TEST(DebugToolchain, PinpointsBugOnSecondCore)
{
    // Core 1 has its own memory and reference component; the replay
    // must compare it like core 0 and name it.
    guest::Program p = synthesize(smallWorkload(16));
    bool fired = false;
    u64 injected_at = 0, seen = 0;
    auto d = findFirstDivergence(
        p, testCfg({"cores=2"}), 10'000'000,
        [&](tol::Tol &t, u64) {
            // Corrupt core 1 right after a slice that ran on it.
            u64 now = t.completedInsts(1);
            if (!fired && now >= 5000 && now != seen) {
                fired = true;
                injected_at = now;
                t.state(1).gpr[RDX] ^= 0x5a5a;
            }
            seen = now;
        });
    ASSERT_TRUE(d.has_value());
    ASSERT_TRUE(fired);
    EXPECT_EQ(d->core, 1u);
    EXPECT_EQ(d->instTo, injected_at);
    EXPECT_LT(d->instFrom, d->instTo);
    EXPECT_NE(d->stateDiff.find("r2"), std::string::npos)
        << d->stateDiff;
    EXPECT_FALSE(d->disassembly.empty());
}

TEST(DebugToolchain, DivergenceAtSyscallIsReported)
{
    // A superblock whose guard is dropped (a translator bug) commits
    // the wrong path on the last iteration and ends in a syscall in
    // the same slice. Even with syscall validation off in the config,
    // the replay must report the divergence, not fail in the syscall
    // sync (the reference is not at a syscall) or let the reference
    // execute it on diverged state.
    Assembler a;
    auto loop = a.newLabel(), rare = a.newLabel(), back = a.newLabel();
    a.movri(RSI, 40);
    a.movri(RDX, 0);
    a.bind(loop);
    a.cmpri(RSI, 1);
    a.jcc(GCond::EQ, rare); // biased: taken on the last pass only
    a.addri(RDX, 3);
    a.movri(RAX, xemu::sysTime);
    a.syscall();
    a.bind(back);
    a.dec(RSI);
    a.jcc(GCond::NE, loop);
    a.movri(RCX, 0);
    a.movri(RAX, sysExit);
    a.syscall();
    a.bind(rare);
    a.addri(RDX, 1000);
    a.jmp(back);
    guest::Program p = a.finish("dropguard");

    auto d = findFirstDivergence(
        p,
        testCfg({"debug.drop_guard=true", "sync.validate_syscalls=false"}),
        1'000'000);
    ASSERT_TRUE(d.has_value());
    EXPECT_EQ(d->core, 0u);
    EXPECT_LT(d->instFrom, d->instTo);
    EXPECT_NE(d->stateDiff.find("r2"), std::string::npos)
        << d->stateDiff;
}

TEST(Controller, FastForwardStartsCold)
{
    // Every core's reference runs to n; the co-designed side restarts
    // there with nothing translated and no page resident, whatever it
    // had done before.
    const u64 n = 20'000;
    Controller ctl(testCfg({"cores=2"}));
    ctl.load(synthesize(smallWorkload(20)));
    ctl.run(6'000);
    ctl.fastForward(n);
    EXPECT_EQ(ctl.tol().completedInsts(), 2 * n);
    EXPECT_EQ(ctl.tol().translationCount(), 0u);
    for (u32 c = 0; c < 2; ++c) {
        EXPECT_EQ(ctl.tol().completedInsts(c), n);
        EXPECT_EQ(ctl.ref(c).instCount(), n);
        EXPECT_EQ(ctl.emulatedMemory(c).pageCount(), 0u);
        EXPECT_EQ(ctl.validateState(c), "");
    }
    // n must lie ahead of every reference, inside the program.
    EXPECT_THROW(ctl.fastForward(n - 1), PanicError);
}

TEST(Controller, FastForwardedRunCompletesValidated)
{
    // From n the sync protocol is unchanged: pages cross at the
    // cores' absolute counts and the end validation passes.
    guest::Program p = synthesize(smallWorkload(21));
    Controller full(testCfg());
    full.load(p);
    full.run();

    Controller ff(testCfg());
    ff.load(p);
    ff.fastForward(15'000);
    ASSERT_NO_THROW(ff.run());
    EXPECT_TRUE(ff.finished());
    EXPECT_EQ(ff.exitCode(), full.exitCode());
    EXPECT_EQ(ff.tol().completedInsts(), full.tol().completedInsts());
    EXPECT_GT(ff.stats().value("sync.pages_transferred"), 0u);
    EXPECT_GT(ff.stats().value("sync.pages_validated"), 0u);
}

TEST(Controller, FastForwardCheckpointRoundTrips)
{
    guest::Program p = synthesize(smallWorkload(22));
    Controller a(testCfg({"cores=2"}));
    a.load(p);
    a.fastForward(10'000);
    std::stringstream img;
    a.saveCheckpoint(img);

    Controller b(testCfg({"cores=2"}));
    b.restoreCheckpoint(img);
    EXPECT_EQ(b.tol().translationCount(), 0u);
    for (u32 c = 0; c < 2; ++c)
        EXPECT_EQ(b.tol().completedInsts(c), 10'000u);

    a.run();
    b.run();
    EXPECT_TRUE(b.finished());
    EXPECT_EQ(b.exitCode(), a.exitCode());
    EXPECT_EQ(b.tol().completedInsts(), a.tol().completedInsts());
    EXPECT_EQ(b.stats().value("tol.guest_sbm"),
              a.stats().value("tol.guest_sbm"));
}

TEST(Controller, DoubleLoadRestartsCleanly)
{
    // The Tol is built lazily in load(), and loading a second program
    // must restart cleanly even after a partial run of the first: the
    // run then equals a fresh Controller's, counter for counter, and
    // so does the guest OS (time, output) it ran against.
    guest::Program p1 = synthesize(smallWorkload(18));
    guest::Program p2 = synthesize(smallWorkload(19));

    Controller fresh(testCfg());
    fresh.load(p2);
    fresh.run();

    Controller reused(testCfg());
    EXPECT_FALSE(reused.loaded());
    EXPECT_FALSE(reused.finished());
    reused.load(p1);
    EXPECT_TRUE(reused.loaded());
    reused.run(20'000); // abandon p1 mid-flight, past some syscalls
    ASSERT_GT(reused.stats().value("sync.syscalls"), 0u);
    reused.load(p2);
    ASSERT_NO_THROW(reused.run());
    EXPECT_TRUE(reused.finished());
    EXPECT_EQ(reused.exitCode(), fresh.exitCode());
    EXPECT_EQ(reused.tol().completedInsts(),
              fresh.tol().completedInsts());
    EXPECT_EQ(reused.validateState(), "");
    EXPECT_EQ(statsOf(reused), statsOf(fresh));
    EXPECT_EQ(reused.ref().os().output(), fresh.ref().os().output());
}

TEST(Controller, RestoreIntoUsedControllerEqualsFresh)
{
    // A restore rebuilds the whole controller from the image. Into a
    // controller that has run a program past the image's point, this
    // one or another, it must give what a fresh Controller gives: the
    // same stats map, and the same bytes when saved again at once.
    guest::Program saved = synthesize(smallWorkload(20));
    guest::Program other = synthesize(smallWorkload(21));
    const std::vector<std::vector<std::string>> variants = {
        {},
        {"cores=2"},
        {"tol.async.threads=2", "tol.async.vthreads=2",
         "tol.async.rate=1"},
    };
    for (const std::vector<std::string> &extra : variants) {
        SCOPED_TRACE(extra.empty() ? "cores=1" : extra.front());
        Config cfg = testCfg(extra);
        const bool async = cfg.has("tol.async.threads");

        // The async image is saved with translations in flight.
        Controller src(cfg);
        src.load(saved);
        u64 at = 15'000;
        src.run(at);
        while (async && !src.finished() && src.tol().asyncPending() == 0)
            src.run(500);
        ASSERT_FALSE(src.finished());
        std::string image = saveImage(src);
        if (async) {
            ASSERT_GT(src.tol().asyncPending(), 0u);
        }

        Controller fresh(cfg);
        restoreImage(fresh, image);
        std::map<std::string, u64> freshStats = statsOf(fresh);
        std::string freshImage = saveImage(fresh);

        for (const guest::Program *prog : {&saved, &other}) {
            SCOPED_TRACE(prog->name);
            Controller used(cfg);
            used.load(*prog);
            used.run(3 * at);
            restoreImage(used, image);
            EXPECT_EQ(statsOf(used), freshStats);
            EXPECT_TRUE(saveImage(used) == freshImage);
        }
    }
}

TEST(Controller, TimingSinkLeavesImageUnchanged)
{
    // An image holds functional state only. A run that had the timing
    // model attached for a while saves the bytes of one that never
    // had it: the synthesized TOL-code stream feeding the model is
    // timing state, and a restored run starts it afresh.
    guest::Program prog = synthesize(smallWorkload(22));
    auto imageAfter = [&prog](bool timed) {
        Config cfg = testCfg();
        Controller ctl(cfg);
        ctl.load(prog);
        StatGroup tstats("timing");
        timing::InOrderCore core(cfg, tstats);
        if (timed)
            ctl.tol().setTraceSink(&core);
        ctl.run(50'000);
        ctl.tol().setTraceSink(nullptr);
        ctl.run(50'000);
        EXPECT_FALSE(ctl.finished());
        EXPECT_EQ(core.cycles() > 0, timed);
        return saveImage(ctl);
    };
    EXPECT_TRUE(imageAfter(true) == imageAfter(false));
}

TEST(Controller, DisabledValidationSkipsChecks)
{
    Controller ctl(testCfg({"sync.validate_syscalls=false",
                            "sync.validate_end=false"}));
    ctl.load(synthesize(smallWorkload(17)));
    ctl.run();
    EXPECT_EQ(ctl.stats().value("sync.validations"), 0u);
}

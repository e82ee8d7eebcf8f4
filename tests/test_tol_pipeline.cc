/**
 * @file
 * End-to-end TOL tests: whole guest programs through the co-designed
 * path (a Controller, so pages cross on demand and syscalls run in
 * the reference component) compared against a separate reference
 * interpreter run; mode promotion, chaining, superblock formation,
 * loop unrolling, speculation-failure recreation, IBTC.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <sstream>

#include "guest/asm.hh"
#include "sim/controller.hh"
#include "workloads/suite.hh"
#include "xemu/ref_component.hh"

using namespace darco;
using namespace darco::guest;
using namespace darco::tol;
using darco::xemu::RefComponent;
using darco::xemu::sysExit;
using darco::xemu::sysWrite;

namespace
{

/** Co-designed rig: a Controller built at load() from `cfg`. */
struct TolRig
{
    Config cfg;
    std::unique_ptr<sim::Controller> ctl;

    explicit TolRig(std::vector<std::string> extra = {})
    {
        cfg = Config(extra);
        // Low thresholds so small tests reach SBM quickly.
        if (!cfg.has("tol.bb_threshold"))
            cfg.set("tol.bb_threshold", s64(4));
        if (!cfg.has("tol.sb_threshold"))
            cfg.set("tol.sb_threshold", s64(12));
        if (!cfg.has("tol.min_edge_total"))
            cfg.set("tol.min_edge_total", s64(8));
    }

    void
    load(const Program &p)
    {
        ctl = std::make_unique<sim::Controller>(cfg);
        ctl->load(p);
    }

    void
    run()
    {
        ctl->run();
    }

    Tol &tol() { return ctl->tol(); }
    StatGroup &stats() { return ctl->stats(); }
};

/** Run a program on both paths and require identical final state. */
void
differential(const Program &p, std::vector<std::string> cfg = {},
             u64 seed = 1)
{
    RefComponent ref(seed);
    ref.load(p);
    ref.runToCompletion(50'000'000);
    ASSERT_TRUE(ref.finished()) << "reference did not finish";

    TolRig rig(std::move(cfg));
    // Match the OS seed so syscalls agree.
    rig.cfg.set("seed", s64(seed));
    rig.load(p);
    rig.run();
    ASSERT_TRUE(rig.tol().finished());

    // Architectural state must match exactly.
    CpuState a = ref.state();
    CpuState b = rig.tol().state();
    EXPECT_TRUE(a == b) << "state diverged: " << a.diff(b);
    EXPECT_EQ(ref.instCount(), rig.tol().completedInsts());
    EXPECT_EQ(ref.bbCount(), rig.tol().completedBBs());

    // All guest memory pages the co-designed side touched must match.
    PagedMemory &mem = rig.ctl->emulatedMemory();
    for (GAddr page : mem.residentPages()) {
        std::vector<u8> mine(pageSizeBytes), theirs(pageSizeBytes);
        mem.readBlock(page, mine.data(), pageSizeBytes);
        ref.memory().readBlock(page, theirs.data(), pageSizeBytes);
        ASSERT_EQ(mine, theirs) << "page 0x" << std::hex << page;
    }
}

/** Hot-loop program: sums data array `iters` times. */
Program
hotLoop(u32 iters, u32 elems)
{
    Assembler a;
    std::size_t arr = a.dataZero(elems * 4);
    // Fill the array with a deterministic pattern at runtime.
    auto fill = a.newLabel();
    a.movri(RBX, s32(Program::dataAddr(arr)));
    a.movri(RCX, s32(elems));
    a.movri(RAX, 17);
    a.bind(fill);
    a.movmr(mem(RBX), RAX);
    a.addri(RAX, 13);
    a.addri(RBX, 4);
    a.dec(RCX);
    a.jcc(GCond::NE, fill);

    // outer: for iters: for elems: sum += arr[i]
    auto outer = a.newLabel();
    auto inner = a.newLabel();
    a.movri(RSI, s32(iters));
    a.movri(RDX, 0); // checksum
    a.bind(outer);
    a.movri(RBX, s32(Program::dataAddr(arr)));
    a.movri(RCX, s32(elems));
    a.bind(inner);
    a.addrm(RDX, mem(RBX));
    a.addri(RBX, 4);
    a.dec(RCX);
    a.jcc(GCond::NE, inner);
    a.dec(RSI);
    a.jcc(GCond::NE, outer);

    a.movrr(RCX, RDX);
    a.andri(RCX, 0xff);
    a.movri(RAX, sysExit);
    a.syscall();
    return a.finish("hotloop");
}

/**
 * A workload with enough distinct hot code to overflow a small code
 * cache many times over (exercises the eviction / flush policies).
 */
Program
evictionWorkload(u64 seed)
{
    workloads::WorkloadParams p;
    p.seed = seed;
    p.name = "evict" + std::to_string(seed);
    p.numBlocks = 96;
    p.outerIters = 200;
    p.fpFrac = 0.2;
    p.callFrac = 0.08;
    p.indirectFrac = 0.04;
    return workloads::synthesize(p);
}

} // namespace

TEST(TolPipeline, StraightLineProgram)
{
    Assembler a;
    a.movri(RAX, 5);
    a.addri(RAX, 10);
    a.imulri(RAX, 3);
    a.movrr(RCX, RAX);
    a.movri(RAX, sysExit);
    a.syscall();
    differential(a.finish("straight"));
}

TEST(TolPipeline, HotLoopReachesSbm)
{
    TolRig rig;
    rig.load(hotLoop(200, 8));
    rig.run();
    // The inner loop must have been promoted to a superblock.
    EXPECT_GT(rig.stats().value("tol.translations_bb"), 0u);
    EXPECT_GT(rig.stats().value("tol.translations_sb"), 0u);
    EXPECT_GT(rig.stats().value("tol.guest_sbm"), 0u);
    // SBM should dominate dynamic execution for a hot loop.
    u64 im = rig.stats().value("tol.guest_im");
    u64 bbm = rig.stats().value("tol.guest_bbm");
    u64 sbm = rig.stats().value("tol.guest_sbm");
    EXPECT_GT(sbm, (im + bbm) * 2) << "im=" << im << " bbm=" << bbm
                                   << " sbm=" << sbm;
}

TEST(TolPipeline, HotLoopDifferential)
{
    differential(hotLoop(150, 16));
}

TEST(TolPipeline, UnrolledCountedLoop)
{
    TolRig rig;
    rig.load(hotLoop(300, 32));
    rig.run();
    EXPECT_GT(rig.stats().value("tol.unrolled_loops"), 0u)
        << "dec/jnz self-loop must trigger unrolling";
}

TEST(TolPipeline, ChainingHappens)
{
    TolRig rig;
    rig.load(hotLoop(200, 8));
    rig.run();
    EXPECT_GT(rig.stats().value("tol.chains"), 0u);
}

TEST(TolPipeline, ModesDisabledFallbacks)
{
    // BBM disabled: pure interpretation still correct.
    differential(hotLoop(50, 8), {"tol.enable_bbm=false"});
    // SBM disabled: BBM only.
    differential(hotLoop(50, 8), {"tol.enable_sbm=false"});
}

TEST(TolPipeline, OptimizationAblationsCorrect)
{
    Program p = hotLoop(120, 12);
    differential(p, {"tol.opt=false"});
    differential(p, {"tol.sched=false"});
    differential(p, {"tol.spec_mem=false"});
    differential(p, {"tol.chaining=false"});
    differential(p, {"tol.unroll=false"});
    differential(p, {"tol.fuse_flags=false"});
}

TEST(TolPipeline, CallsAndReturnsThroughIbtc)
{
    Assembler a;
    auto fn = a.newLabel();
    auto loop = a.newLabel();
    a.movri(RSI, 100);
    a.movri(RDX, 0);
    a.bind(loop);
    a.movrr(RBX, RSI);
    a.call(fn);
    a.addrr(RDX, RAX);
    a.dec(RSI);
    a.jcc(GCond::NE, loop);
    a.movrr(RCX, RDX);
    a.andri(RCX, 0xff);
    a.movri(RAX, sysExit);
    a.syscall();
    a.bind(fn);
    a.movrr(RAX, RBX);
    a.imulri(RAX, 3);
    a.addri(RAX, 1);
    a.ret();
    Program p = a.finish("calls");

    differential(p);

    TolRig rig;
    rig.load(p);
    rig.run();
    EXPECT_GT(rig.tol().hostEmu().ibtc().hits(), 0u)
        << "RET must hit the IBTC once warm";
}

TEST(TolPipeline, BiasedBranchesBecomeAsserts)
{
    // Loop with a 15/16-biased branch inside: superblock converts it
    // to an assert; the rare direction causes assert failures that IM
    // absorbs.
    Assembler a;
    auto loop = a.newLabel(), rare = a.newLabel(), back = a.newLabel();
    a.movri(RSI, 400);
    a.movri(RDX, 0);
    a.movri(RBX, 0);
    a.bind(loop);
    a.inc(RBX);
    a.movrr(RAX, RBX);
    a.andri(RAX, 15);
    a.cmpri(RAX, 0);
    a.jcc(GCond::EQ, rare); // taken 1/16
    a.addri(RDX, 3);
    a.bind(back);
    a.dec(RSI);
    a.jcc(GCond::NE, loop);
    a.movrr(RCX, RDX);
    a.andri(RCX, 0xff);
    a.movri(RAX, sysExit);
    a.syscall();
    a.bind(rare);
    a.addri(RDX, 1000);
    a.jmp(back);
    Program p = a.finish("biased");

    differential(p);

    TolRig rig;
    rig.load(p);
    rig.run();
    EXPECT_GT(rig.stats().value("tol.translations_sb"), 0u);
    EXPECT_GT(rig.stats().value("tol.assert_fails"), 0u)
        << "rare path must fail asserts";
}

TEST(TolPipeline, AssertStormTriggersRecreation)
{
    // A branch that is heavily biased during warm-up then flips: the
    // superblock's asserts start failing every time and TOL must
    // recreate it without asserts (paper Section V-B3).
    Assembler a;
    auto loop = a.newLabel(), second = a.newLabel(), join = a.newLabel();
    a.movri(RSI, 3000);
    a.movri(RDX, 0);
    a.movri(RBX, 0);
    a.bind(loop);
    a.inc(RBX);
    a.cmpri(RBX, 600); // first 600 iterations: below, then above
    a.jcc(GCond::GT, second);
    a.addri(RDX, 1);
    a.jmp(join);
    a.bind(second);
    a.addri(RDX, 7);
    a.bind(join);
    a.dec(RSI);
    a.jcc(GCond::NE, loop);
    a.movrr(RCX, RDX);
    a.andri(RCX, 0xff);
    a.movri(RAX, sysExit);
    a.syscall();
    Program p = a.finish("flip");

    differential(p, {"tol.max_assert_fails=8"});

    TolRig rig({"tol.max_assert_fails=8"});
    rig.load(p);
    rig.run();
    EXPECT_GT(rig.stats().value("tol.sb_recreated_noassert"), 0u)
        << "flipped branch must force assert-free recreation";
}

TEST(TolPipeline, StringOpsInterpreted)
{
    Assembler a;
    std::size_t src = a.dataZero(256);
    std::size_t dst = a.dataZero(256);
    auto loop = a.newLabel();
    a.movri(RDX, 40);
    a.bind(loop);
    a.movri(RAX, 0x41);
    a.movri(RDI, s32(Program::dataAddr(src)));
    a.movri(RCX, 256);
    a.stosb(true);
    a.movri(RSI, s32(Program::dataAddr(src)));
    a.movri(RDI, s32(Program::dataAddr(dst)));
    a.movri(RCX, 64);
    a.movsw(true);
    a.dec(RDX);
    a.jcc(GCond::NE, loop);
    a.movri(RBX, s32(Program::dataAddr(dst)));
    a.movzx8(RCX, mem(RBX, 255));
    a.movri(RAX, sysExit);
    a.syscall();
    Program p = a.finish("strings");

    differential(p);
}

TEST(TolPipeline, FpWorkloadDifferential)
{
    Assembler a;
    std::size_t c1 = a.dataF64(1.0001);
    std::size_t c2 = a.dataF64(0.5);
    auto loop = a.newLabel();
    a.movri(RSI, 500);
    a.fld(0, memAbs32(Program::dataAddr(c1)));
    a.fld(1, memAbs32(Program::dataAddr(c2)));
    a.fmov(2, 1);
    a.bind(loop);
    a.fmul(2, 0);
    a.fsin(3, 2);
    a.fadd(2, 3);
    a.fcos(4, 2);
    a.fmul(4, 1);
    a.fsub(2, 4);
    a.fsqrt(5, 2);
    a.fabs_(5, 5);
    a.dec(RSI);
    a.jcc(GCond::NE, loop);
    a.cvtfi(RCX, 2);
    a.andri(RCX, 0xff);
    a.movri(RAX, sysExit);
    a.syscall();
    differential(a.finish("fp"));
}

TEST(TolPipeline, SyscallsInsideHotCode)
{
    Assembler a;
    std::size_t buf = a.dataBytes("x", 1);
    auto loop = a.newLabel();
    a.movri(RSI, 60);
    a.bind(loop);
    a.movri(RAX, sysWrite);
    a.movri(RCX, s32(Program::dataAddr(buf)));
    a.movri(RDX, 1);
    a.syscall();
    a.dec(RSI);
    a.jcc(GCond::NE, loop);
    a.movri(RAX, sysExit);
    a.movri(RCX, 0);
    a.syscall();
    differential(a.finish("sys"));
}

TEST(TolPipeline, DivisionFaultIsPrecise)
{
    // Crash after the loop got hot: the fault must surface at the
    // correct guest pc via IM re-execution.
    Assembler a;
    auto loop = a.newLabel();
    a.movri(RSI, 100);
    a.movri(RAX, 1000);
    a.bind(loop);
    a.movrr(RBX, RSI);
    a.subri(RBX, 50); // becomes 0 at RSI == 50
    a.movrr(RDX, RAX);
    a.idivrr(RDX, RBX);
    a.dec(RSI);
    a.jcc(GCond::NE, loop);
    a.movri(RAX, sysExit);
    a.syscall();
    Program p = a.finish("divfault");

    RefComponent ref;
    ref.load(p);
    GAddr ref_fault_pc = 0;
    try {
        ref.runToCompletion();
        FAIL() << "expected fault";
    } catch (const GuestFault &f) {
        ref_fault_pc = f.pc;
    }

    TolRig rig;
    rig.load(p);
    try {
        rig.run();
        FAIL() << "expected fault";
    } catch (const GuestFault &f) {
        EXPECT_EQ(f.pc, ref_fault_pc) << "fault pc must be precise";
    }
}

TEST(TolPipeline, ThresholdScalingSpeedsPromotion)
{
    TolRig slow({"tol.bb_threshold=64", "tol.sb_threshold=512"});
    TolRig fast({"tol.bb_threshold=64", "tol.sb_threshold=512"});

    Program p = hotLoop(300, 8);
    slow.load(p);
    slow.run();
    fast.load(p);
    fast.tol().scaleThresholds(16); // warm-up downscaling (VI-E)
    fast.run();
    EXPECT_GT(fast.stats().value("tol.guest_sbm"),
              slow.stats().value("tol.guest_sbm"))
        << "downscaled thresholds must promote earlier";
}

TEST(TolPipeline, RunBudgetPausesAndResumes)
{
    // Small host chunk: the emulator surfaces Budget exits even when
    // chained execution never returns to the dispatch loop.
    TolRig rig({"tol.host_chunk=4000"});
    rig.load(hotLoop(500, 16));
    int rounds = 0;
    while (rig.ctl->run(2000))
        ++rounds;
    EXPECT_GT(rounds, 2);
    EXPECT_TRUE(rig.tol().finished());

    // Must still be correct.
    RefComponent ref;
    ref.load(hotLoop(500, 16));
    ref.runToCompletion();
    EXPECT_TRUE(ref.state() == rig.tol().state())
        << ref.state().diff(rig.tol().state());
}

TEST(TolPipeline, IndirectJumpTableDifferential)
{
    // Dispatch through a jump table driven by a rotating index.
    Assembler a;
    std::size_t table = a.dataZero(16);
    auto loop = a.newLabel();
    auto c0 = a.newLabel(), c1 = a.newLabel(), c2 = a.newLabel(),
         c3 = a.newLabel();
    auto join = a.newLabel();
    a.movri(RSI, 200);
    a.movri(RDX, 0);
    a.movri(RBX, 0);
    a.bind(loop);
    a.inc(RBX);
    a.movrr(RAX, RBX);
    a.andri(RAX, 3);
    a.movri(RCX, s32(Program::dataAddr(table)));
    a.movrm(RDI, memIdx(RCX, RAX, 2, 0));
    a.jmpr(RDI);
    a.bind(c0);
    a.addri(RDX, 1);
    a.jmp(join);
    a.bind(c1);
    a.addri(RDX, 10);
    a.jmp(join);
    a.bind(c2);
    a.addri(RDX, 100);
    a.jmp(join);
    a.bind(c3);
    a.addri(RDX, 1000);
    a.bind(join);
    a.dec(RSI);
    a.jcc(GCond::NE, loop);
    a.movrr(RCX, RDX);
    a.andri(RCX, 0xff);
    a.movri(RAX, sysExit);
    a.syscall();
    Program p = a.finish("jumptable");

    // Patch the table with the case addresses by scanning for the
    // distinctive addri immediates.
    auto findPc = [&](s32 needle) -> u32 {
        std::size_t off = 0;
        while (off < p.code.size()) {
            GInst gi;
            EXPECT_TRUE(
                decode(p.code.data() + off, p.code.size() - off, gi));
            if (gi.op == GOp::ADD_RI && gi.rd == RDX &&
                gi.imm == needle) {
                return u32(Program::codeAddr(off));
            }
            off += gi.length;
        }
        ADD_FAILURE() << "case not found";
        return 0;
    };
    u32 pcs[4] = {findPc(1), findPc(10), findPc(100), findPc(1000)};
    std::memcpy(p.data.data() + table, pcs, 16);

    differential(p);

    TolRig rig;
    rig.load(p);
    rig.run();
    EXPECT_GT(rig.tol().hostEmu().ibtc().hits(), 0u);
}

// ---------------------------------------------------------------------
// Code-cache capacity policies (region-granular eviction vs flush)
// ---------------------------------------------------------------------

TEST(TolPipeline, EvictionPolicyDifferential)
{
    Program p = evictionWorkload(7);
    // Region-granular eviction (default policy) and the classic full
    // flush must both stay architecturally correct under a code cache
    // far too small for the workload's hot code.
    differential(p, {"cc.capacity_words=1500"});
    differential(p, {"cc.capacity_words=1500", "cc.policy=flush"});
}

TEST(TolPipeline, EvictionReclaimsWithoutFlushing)
{
    TolRig rig({"cc.capacity_words=1500"});
    rig.load(evictionWorkload(7));
    rig.run();
    ASSERT_TRUE(rig.tol().finished());
    EXPECT_GE(rig.stats().value("cc.evictions"), 10u);
    EXPECT_EQ(rig.stats().value("cc.flushes"), 0u);
    EXPECT_GT(rig.stats().value("cc.bytes_reclaimed"), 0u);
    // Chain sites into evicted regions were restored to EXITBs.
    EXPECT_GT(rig.stats().value("cc.evict_unchains"), 0u);
    // The surviving chain graph must be fully consistent.
    EXPECT_EQ(rig.tol().registry().checkInvariants(), "");
    EXPECT_LE(rig.tol().codeCache().used(),
              rig.tol().codeCache().capacity());
}

TEST(TolPipeline, FlushPolicyStillAvailable)
{
    TolRig rig({"cc.capacity_words=1500", "cc.policy=flush"});
    rig.load(evictionWorkload(7));
    rig.run();
    ASSERT_TRUE(rig.tol().finished());
    EXPECT_GT(rig.stats().value("cc.flushes"), 0u);
    EXPECT_EQ(rig.stats().value("cc.evictions"), 0u);
}

TEST(TolPipeline, AmpleCacheNeverEvicts)
{
    TolRig rig; // default 4M-word cache
    rig.load(evictionWorkload(7));
    rig.run();
    EXPECT_EQ(rig.stats().value("cc.evictions"), 0u);
    EXPECT_EQ(rig.stats().value("cc.flushes"), 0u);
    EXPECT_EQ(rig.tol().registry().checkInvariants(), "");
}

TEST(TolPipeline, ChainTargetsTouchedAtRetire)
{
    // Eviction-clock blind spot (ROADMAP): regions entered through a
    // chained jump used to earn a refBit only via their own RETIRE,
    // which a rollback exit never reaches. onRetire now touches the
    // chain target on entry; the counter proves the path fires.
    TolRig rig;
    rig.load(evictionWorkload(7));
    rig.run();
    ASSERT_TRUE(rig.tol().finished());
    ASSERT_GT(rig.stats().value("tol.chains"), 0u);
    EXPECT_GT(rig.stats().value("tol.chain_target_touches"), 0u);
}

TEST(TolPipeline, NoChainTouchesWithChainingDisabled)
{
    // tol.unroll must be off too: residual-BB chains of unrolled
    // loops are structural, not part of the chaining optimization.
    TolRig rig({"tol.chaining=false", "tol.unroll=false"});
    rig.load(evictionWorkload(7));
    rig.run();
    ASSERT_TRUE(rig.tol().finished());
    EXPECT_EQ(rig.stats().value("tol.chain_target_touches"), 0u);
}

TEST(TolPipeline, EvictionStormStaysCorrectWithChainTouches)
{
    // The tinycc stress cell of the differential fuzzer: an eviction
    // storm with chaining on must remain architecturally exact now
    // that chain targets and rollback exits feed the clock.
    Program p = evictionWorkload(7);
    differential(p, {"cc.capacity_words=768", "tol.max_sb_insts=120"});
}

/**
 * @file
 * Reference-component tests: whole programs through the authoritative
 * interpreter + OS model, instruction/BB counting, run-until-count,
 * and block retirement against an instruction-at-a-time loop.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "fuzz/generator.hh"
#include "guest/asm.hh"
#include "xemu/ref_component.hh"

using namespace darco;
using namespace darco::guest;
using namespace darco::xemu;

namespace
{

/** Countdown-loop program: sums 1..n into RAX, exits via sysExit. */
Program
sumProgram(s32 n)
{
    Assembler a;
    a.movri(RAX, 0);
    a.movri(RCX, n);
    auto loop = a.newLabel();
    a.bind(loop);
    a.addrr(RAX, RCX);
    a.dec(RCX);
    a.jcc(GCond::NE, loop);
    a.movrr(RCX, RAX); // exit code = sum
    a.movri(RAX, sysExit);
    a.syscall();
    return a.finish("sum");
}

/** Writes a message with sysWrite, exits with the returned length. */
Program
writeProgram()
{
    Assembler a;
    std::size_t msg = a.dataBytes("hello darco\n", 12);
    a.movri(RAX, sysWrite);
    a.movri(RCX, s32(Program::dataAddr(msg)));
    a.movri(RDX, 12);
    a.syscall();
    a.movrr(RBX, RAX); // returned length
    a.movri(RAX, sysExit);
    a.movrr(RCX, RBX);
    a.syscall();
    return a.finish("hello");
}

/** memset a 64-byte buffer then copy it with rep movsb; exit with a
 *  probe byte. */
Program
stringProgram()
{
    Assembler a;
    std::size_t src = a.dataZero(64);
    std::size_t dst = a.dataZero(64);
    a.movri(RAX, 0x61); // 'a'
    a.movri(RDI, s32(Program::dataAddr(src)));
    a.movri(RCX, 64);
    a.stosb(true);
    a.movri(RSI, s32(Program::dataAddr(src)));
    a.movri(RDI, s32(Program::dataAddr(dst)));
    a.movri(RCX, 64);
    a.movsb(true);
    a.movri(RBX, s32(Program::dataAddr(dst)));
    a.movzx8(RCX, mem(RBX, 63));
    a.movri(RAX, sysExit);
    a.syscall();
    return a.finish("str");
}

/** Compute sqrt(2.0) * sin(1.0) + 3, truncate, exit with it. */
Program
fpProgram()
{
    Assembler a;
    std::size_t two = a.dataF64(2.0);
    std::size_t one = a.dataF64(1.0);
    a.fld(0, memAbs32(Program::dataAddr(two)));
    a.fsqrt(0, 0);
    a.fld(1, memAbs32(Program::dataAddr(one)));
    a.fsin(1, 1);
    a.fmul(0, 1);
    a.movri(RBX, 3);
    a.cvtif(2, RBX);
    a.fadd(0, 2);
    a.cvtfi(RCX, 0);
    a.movri(RAX, sysExit);
    a.syscall();
    return a.finish("fp");
}

/** Divides by zero after two instructions. */
Program
divZeroProgram()
{
    Assembler a;
    a.movri(RAX, 1);
    a.movri(RBX, 0);
    a.idivrr(RAX, RBX);
    a.hlt();
    return a.finish("div0");
}

} // namespace

TEST(RefComponent, SumLoop)
{
    RefComponent ref;
    ref.load(sumProgram(10));
    ref.runToCompletion();
    EXPECT_TRUE(ref.finished());
    EXPECT_EQ(ref.exitCode(), 55u);
    // 2 setup + 10*(add,dec,jcc) + 2 + syscall = 35
    EXPECT_EQ(ref.instCount(), 35u);
    // BBs: 10 loop iterations (jcc) + final syscall
    EXPECT_EQ(ref.bbCount(), 11u);
}

TEST(RefComponent, FactorialViaCallRet)
{
    // Iterative factorial in a function, called twice.
    Assembler a;
    auto fn = a.newLabel();
    auto after1 = a.newLabel();

    a.movri(RBX, 5);
    a.call(fn);
    a.movrr(RSI, RAX); // 120
    a.movri(RBX, 6);
    a.call(fn);
    a.movrr(RDI, RAX); // 720
    a.bind(after1);
    a.movri(RAX, sysExit);
    a.movrr(RCX, RDI);
    a.syscall();

    a.bind(fn); // fact(RBX) -> RAX
    a.movri(RAX, 1);
    auto loop = a.newLabel();
    auto out = a.newLabel();
    a.bind(loop);
    a.cmpri(RBX, 1);
    a.jcc(GCond::LE, out);
    a.imulrr(RAX, RBX);
    a.dec(RBX);
    a.jmp(loop);
    a.bind(out);
    a.ret();

    RefComponent ref;
    ref.load(a.finish("fact"));
    ref.runToCompletion();
    EXPECT_TRUE(ref.finished());
    EXPECT_EQ(ref.exitCode(), 720u);
}

TEST(RefComponent, WriteSyscallProducesOutput)
{
    RefComponent ref;
    ref.load(writeProgram());
    ref.runToCompletion();
    EXPECT_EQ(ref.os().output(), "hello darco\n");
    EXPECT_EQ(ref.exitCode(), 12u);
}

TEST(RefComponent, ReadSyscallConsumesInput)
{
    Assembler a;
    std::size_t buf = a.dataZero(16);
    a.movri(RAX, sysRead);
    a.movri(RCX, s32(Program::dataAddr(buf)));
    a.movri(RDX, 16);
    a.syscall();
    // Exit with first byte read.
    a.movri(RBX, s32(Program::dataAddr(buf)));
    a.movzx8(RCX, mem(RBX));
    a.movri(RAX, sysExit);
    a.syscall();

    RefComponent ref;
    ref.load(a.finish("read"));
    ref.os().setInput("Zebra");
    ref.runToCompletion();
    EXPECT_EQ(ref.exitCode(), u32('Z'));
}

TEST(RefComponent, BrkGrowsHeap)
{
    Assembler a;
    a.movri(RAX, sysBrk);
    a.movri(RCX, 0);
    a.syscall();          // query: RAX = heapBase
    a.movrr(RBX, RAX);
    a.addri(RBX, 0x2000);
    a.movri(RAX, sysBrk);
    a.movrr(RCX, RBX);
    a.syscall();          // grow by 2 pages
    a.movmr(mem(RAX, -4), RAX); // store to new heap top - 4
    a.movri(RAX, sysExit);
    a.movri(RCX, 0);
    a.syscall();

    RefComponent ref;
    ref.load(a.finish("brk"));
    ref.runToCompletion();
    EXPECT_EQ(ref.exitCode(), 0u);
    EXPECT_EQ(ref.os().brk(), layout::heapBase + 0x2000);
}

TEST(RefComponent, HltStopsWithoutExitCode)
{
    Assembler a;
    a.movri(RAX, 1);
    a.hlt();
    RefComponent ref;
    ref.load(a.finish("h"));
    ref.runToCompletion();
    EXPECT_TRUE(ref.finished());
    EXPECT_EQ(ref.instCount(), 1u) << "HLT itself does not count";
    EXPECT_EQ(ref.state().gpr[RAX], 1u);
}

TEST(RefComponent, RunUntilInstCountStopsExactly)
{
    RefComponent ref;
    ref.load(sumProgram(100));
    ref.runUntilInstCount(17);
    EXPECT_EQ(ref.instCount(), 17u);
    u64 bb17 = ref.bbCount();
    ref.runUntilInstCount(18);
    EXPECT_EQ(ref.instCount(), 18u);
    EXPECT_GE(ref.bbCount(), bb17);
    ref.runToCompletion();
    EXPECT_EQ(ref.exitCode(), u32(5050));
}

TEST(RefComponent, StringProgram)
{
    RefComponent ref;
    ref.load(stringProgram());
    ref.runToCompletion();
    EXPECT_EQ(ref.exitCode(), 0x61u);
    // Each REP string op counts as one instruction: 10 scalar
    // instructions + 2 REP ops = 12.
    EXPECT_EQ(ref.instCount(), 12u);
}

TEST(RefComponent, FpProgram)
{
    RefComponent ref;
    ref.load(fpProgram());
    ref.runToCompletion();
    // sqrt(2)*sin(1)+3 = 1.4142*0.8414+3 = 4.19 -> 4
    EXPECT_EQ(ref.exitCode(), 4u);
}

TEST(RefComponent, DeterministicRandAndTime)
{
    Assembler a;
    a.movri(RAX, sysRand);
    a.syscall();
    a.movrr(RBX, RAX);
    a.movri(RAX, sysTime);
    a.syscall();
    a.addrr(RBX, RAX);
    a.movri(RAX, sysExit);
    a.movrr(RCX, RBX);
    a.syscall();
    Program p = a.finish("rt");

    RefComponent r1(7), r2(7), r3(8);
    r1.load(p);
    r2.load(p);
    r3.load(p);
    r1.runToCompletion();
    r2.runToCompletion();
    r3.runToCompletion();
    EXPECT_EQ(r1.exitCode(), r2.exitCode());
    EXPECT_NE(r1.exitCode(), r3.exitCode()) << "seed must matter";
}

TEST(RefComponent, GuestFaultPropagates)
{
    RefComponent ref;
    ref.load(divZeroProgram());
    EXPECT_THROW(ref.runToCompletion(), GuestFault);
}

TEST(RefComponent, IndirectJumpTable)
{
    // Jump through a register: select one of three blocks.
    Assembler a;
    auto b0 = a.newLabel(), b1 = a.newLabel(), b2 = a.newLabel();
    auto end = a.newLabel();
    // Hand-build a jump: compute target address from table in data.
    std::size_t table = a.dataZero(12);
    a.movri(RBX, s32(Program::dataAddr(table)));
    a.movri(RCX, 1); // select case 1
    a.movrm(RDX, memIdx(RBX, RCX, 2, 0));
    a.jmpr(RDX);
    a.bind(b0);
    a.movri(RSI, 100);
    a.jmp(end);
    a.bind(b1);
    a.movri(RSI, 200);
    a.jmp(end);
    a.bind(b2);
    a.movri(RSI, 300);
    a.bind(end);
    a.movri(RAX, sysExit);
    a.movrr(RCX, RSI);
    a.syscall();
    Program p = a.finish("jtable");

    // Patch the table now that label offsets are resolved: we need the
    // code addresses of b0/b1/b2. Labels aren't exposed, so rebuild
    // with known offsets instead: find them by decoding.
    // Simpler: we know the structure; compute offsets by re-assembly.
    // The three movri(RSI,...) blocks are the targets; locate them by
    // scanning for their immediates.
    auto findOff = [&](s32 imm) -> u32 {
        std::size_t off = 0;
        while (off < p.code.size()) {
            GInst gi;
            EXPECT_TRUE(
                decode(p.code.data() + off, p.code.size() - off, gi));
            if (gi.op == GOp::MOV_RI && gi.rd == RSI && gi.imm == imm)
                return u32(Program::codeAddr(off));
            off += gi.length;
        }
        ADD_FAILURE() << "target not found";
        return 0;
    };
    u32 t0 = findOff(100), t1 = findOff(200), t2 = findOff(300);
    std::memcpy(p.data.data() + table + 0, &t0, 4);
    std::memcpy(p.data.data() + table + 4, &t1, 4);
    std::memcpy(p.data.data() + table + 8, &t2, 4);

    RefComponent ref;
    ref.load(p);
    ref.runToCompletion();
    EXPECT_EQ(ref.exitCode(), 200u);
}

// ---------------------------------------------------------------------
// Block retirement against instruction-at-a-time retirement
// ---------------------------------------------------------------------

namespace
{

using Stop = RefComponent::Stop;

/**
 * The reference component as it retired one instruction per step,
 * before it retired a block per call: its step(), retire(),
 * runUntilInstCount() and runAhead() loops, over execInst() and an
 * uncached fetchInst().
 */
struct StepRef
{
    explicit StepRef(const Program &prog) { st = prog.load(mem); }

    void
    retire(const GInst &inst)
    {
        ExecOut out = execInst(inst, st, mem);
        while (out.status == ExecStatus::Again)
            out = execInst(inst, st, mem);
        switch (out.status) {
          case ExecStatus::Ok:
            ++insts;
            return;
          case ExecStatus::CtiTaken:
          case ExecStatus::CtiNotTaken:
            ++insts;
            ++bbs;
            return;
          case ExecStatus::Halt:
            finished = true;
            return;
          case ExecStatus::Fault:
            throw GuestFault{st.pc, out.faultMsg};
          default:
            FAIL() << "unexpected exec status";
        }
    }

    void
    step()
    {
        if (finished)
            return;
        GInst inst = fetchInst(mem, st.pc);
        if (inst.op != GOp::SYSCALL) {
            retire(inst);
            return;
        }
        SyscallEffect eff = os.execute(st, mem, inst.length);
        ++insts;
        ++bbs;
        if (eff.exited) {
            finished = true;
            exitCode = eff.exitCode;
        }
    }

    void
    runUntil(u64 n)
    {
        while (insts < n && !finished)
            step();
    }

    Stop
    runAhead(u64 limit, const PagedMemory &holder)
    {
        mem.setWriteGuard(&holder);
        Stop stop;
        try {
            for (;;) {
                if (finished) {
                    stop = Stop::Blocked;
                    break;
                }
                if (insts >= limit) {
                    stop = Stop::Limit;
                    break;
                }
                GInst inst = fetchInst(mem, st.pc);
                if (inst.op == GOp::SYSCALL || inst.op == GOp::HLT) {
                    stop = Stop::Blocked;
                    break;
                }
                retire(inst);
            }
        } catch (const PageMiss &pm) {
            guardPage = pm.page;
            stop = Stop::Guard;
        } catch (...) {
            stop = Stop::Blocked;
        }
        mem.setWriteGuard(nullptr);
        return stop;
    }

    PagedMemory mem{MissPolicy::AllocateZero};
    CpuState st;
    GuestOS os{1};
    u64 insts = 0;
    u64 bbs = 0;
    bool finished = false;
    u32 exitCode = 0;
    GAddr guardPage = 0;
};

/** Everything of `ref` a caller can read equals `want`. */
void
expectSame(RefComponent &ref, StepRef &want, const std::string &where)
{
    EXPECT_TRUE(ref.state() == want.st)
        << where << ": " << ref.state().diff(want.st);
    EXPECT_EQ(ref.instCount(), want.insts) << where;
    EXPECT_EQ(ref.bbCount(), want.bbs) << where;
    EXPECT_EQ(ref.finished(), want.finished) << where;
    EXPECT_EQ(ref.exitCode(), want.exitCode) << where;
    EXPECT_EQ(ref.os().output(), want.os.output()) << where;
    const std::vector<GAddr> pages = ref.memory().residentPages();
    ASSERT_EQ(pages, want.mem.residentPages()) << where;
    for (GAddr p : pages) {
        ASSERT_EQ(std::memcmp(ref.memory().page(p), want.mem.page(p),
                              pageSizeBytes),
                  0)
            << where << ": page 0x" << std::hex << p;
    }
}

/** The text of the GuestFault `body` raises, "" if none. */
template <typename F>
std::string
faultOf(F body)
{
    try {
        body();
    } catch (const GuestFault &f) {
        return f.what();
    }
    return "";
}

/** After a short loop, jumps to two INCs that fall through into
 *  bytes that do not decode: the fault comes in mid-block. */
Program
undecodableProgram()
{
    Assembler body;
    body.inc(RAX);
    body.inc(RAX);
    std::vector<u8> bytes = body.finish("body").code;
    bytes.insert(bytes.end(), {0xff, 0xff, 0xff, 0xff});
    Assembler a;
    std::size_t bad = a.dataBytes(bytes.data(), bytes.size());
    auto loop = a.newLabel();
    a.movri(RCX, 5);
    a.bind(loop);
    a.dec(RCX);
    a.jcc(GCond::NE, loop);
    a.movri(RBX, s32(Program::dataAddr(bad)));
    a.jmpr(RBX);
    return a.finish("undecodable");
}

/** A REP STOSB longer than one executor chunk (2^20 iterations), a
 *  REP MOVSW across pages, then a system call and an HLT. */
Program
longRepProgram()
{
    constexpr s32 base = s32(layout::dataBase) + 0x10000;
    Assembler a;
    a.movri(RAX, 0x5a);
    a.movri(RDI, base + 3);
    a.movri(RCX, (1 << 20) + 4099);
    a.stosb(true);
    a.movri(RSI, base + 100);
    a.movri(RDI, base + 3 * s32(pageSizeBytes) + 2);
    a.movri(RCX, 3000);
    a.movsw(true);
    a.movri(RAX, sysTime);
    a.syscall();
    a.hlt();
    return a.finish("longrep");
}

/** The programs both retirement loops must agree on. */
std::vector<Program>
blockPrograms()
{
    std::vector<Program> progs = {
        writeProgram(),  stringProgram(),      fpProgram(),
        divZeroProgram(), undecodableProgram(), longRepProgram(),
        sumProgram(300),
    };
    for (u64 seed = 1; seed <= 10; ++seed) {
        fuzz::GenParams p;
        p.seed = seed;
        progs.push_back(fuzz::generate(p));
    }
    return progs;
}

/**
 * Counts at which the next instruction is a SYSCALL, an HLT, a REP
 * string op or one that faults, and the count at which the program
 * ends (or faults).
 */
std::vector<u64>
specialCounts(const Program &prog, u64 &end)
{
    StepRef r(prog);
    std::vector<u64> at;
    try {
        while (!r.finished && r.insts < 50'000'000) {
            GInst inst = fetchInst(r.mem, r.st.pc);
            if (inst.op == GOp::SYSCALL || inst.op == GOp::HLT ||
                inst.rep)
                at.push_back(r.insts);
            r.step();
        }
    } catch (const GuestFault &) {
        at.push_back(r.insts);
    }
    end = r.insts;
    return at;
}

} // namespace

TEST(RefBlocks, RunUntilInstCountMatchesStepping)
{
    Rng rng(17);
    std::size_t faults = 0;
    for (const Program &prog : blockPrograms()) {
        u64 end = 0;
        std::vector<u64> targets = specialCounts(prog, end);
        for (int k = 0; k < 40; ++k)
            targets.push_back(rng.range(0, end + 3));
        std::vector<u64> around;
        for (u64 t : targets) {
            around.push_back(t + 1);
            if (t > 0)
                around.push_back(t - 1);
        }
        targets.insert(targets.end(), around.begin(), around.end());
        std::sort(targets.begin(), targets.end());

        RefComponent ref;
        ref.load(prog);
        StepRef want(prog);
        for (u64 t : targets) {
            const std::string where =
                prog.name + " to " + std::to_string(t);
            std::string got =
                faultOf([&] { ref.runUntilInstCount(t); });
            std::string wanted = faultOf([&] { want.runUntil(t); });
            EXPECT_EQ(got, wanted) << where;
            faults += !wanted.empty();
            expectSame(ref, want, where);
            if (testing::Test::HasFailure())
                return;
        }
        // A whole run in one call ends where stepping ends.
        RefComponent whole;
        whole.load(prog);
        StepRef wantWhole(prog);
        EXPECT_EQ(faultOf([&] { whole.runToCompletion(); }),
                  faultOf([&] { wantWhole.runUntil(~0ull); }))
            << prog.name;
        expectSame(whole, wantWhole, prog.name + " whole");
    }
    EXPECT_GT(faults, 0u) << "no target reached a fault";
}

TEST(RefBlocks, RunAheadMatchesSteppingUnderTheSameGuard)
{
    Rng rng(29);
    std::size_t stops[3] = {0, 0, 0};
    for (const Program &prog : blockPrograms()) {
        // The holder lacks a random half of the pages the program
        // touches.
        PagedMemory holder(MissPolicy::Signal);
        {
            StepRef full(prog);
            try {
                full.runUntil(50'000'000);
            } catch (const GuestFault &) {
            }
            std::vector<u8> zero(pageSizeBytes, 0);
            for (GAddr p : full.mem.residentPages()) {
                if (rng.chance(0.5))
                    holder.installPage(p, zero.data());
            }
        }

        RefComponent ref;
        ref.load(prog);
        StepRef want(prog);
        for (int call = 0; call < 100'000 && !want.finished; ++call) {
            const u64 at = want.insts;
            const u64 lim = at + rng.range(0, rng.chance(0.2) ? 5000 : 60);
            std::atomic<u64> limit{lim};
            std::atomic<u64> progress{ref.instCount()};
            const std::string where = prog.name + " call " +
                                      std::to_string(call) + " at " +
                                      std::to_string(at);
            Stop got = ref.runAhead(limit, progress, holder);
            Stop wanted = want.runAhead(lim, holder);
            ASSERT_EQ(int(got), int(wanted)) << where;
            ++stops[int(got)];
            expectSame(ref, want, where);
            EXPECT_LE(ref.instCount(), lim) << where;
            EXPECT_LE(progress.load(), ref.instCount()) << where;
            if (got == Stop::Limit) {
                EXPECT_EQ(progress.load(), ref.instCount()) << where;
            }
            if (testing::Test::HasFailure())
                return;

            if (got == Stop::Guard) {
                ASSERT_EQ(ref.guardPage(), want.guardPage) << where;
                ASSERT_FALSE(holder.hasPage(want.guardPage)) << where;
                std::vector<u8> zero(pageSizeBytes, 0);
                holder.installPage(want.guardPage, zero.data());
            } else if (got == Stop::Blocked) {
                // The caller executes what blocked the thread.
                std::string f = faultOf(
                    [&] { ref.runUntilInstCount(ref.instCount() + 1); });
                EXPECT_EQ(f, faultOf(
                                 [&] { want.runUntil(want.insts + 1); }))
                    << where;
                expectSame(ref, want, where + " after the block");
                if (!f.empty())
                    break;
            }
        }
        EXPECT_TRUE(want.finished || ref.instCount() == want.insts)
            << prog.name;
    }
    EXPECT_GT(stops[int(Stop::Limit)], 0u);
    EXPECT_GT(stops[int(Stop::Guard)], 0u);
    EXPECT_GT(stops[int(Stop::Blocked)], 0u);
}

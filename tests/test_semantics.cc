/**
 * @file
 * GISA instruction-semantics tests: flag computation, ALU results,
 * addressing, string ops, FP determinism, restartability, fetch and
 * the decode cache.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "common/logging.hh"
#include "fuzz/generator.hh"
#include "guest/decode_cache.hh"
#include "guest/semantics.hh"

using namespace darco;
using namespace darco::guest;

namespace
{

struct Machine
{
    CpuState st;
    PagedMemory mem;

    Machine()
    {
        st.pc = 0x1000;
        st.gpr[RSP] = 0x10000;
    }

    /** Execute one ad-hoc instruction. */
    ExecOut
    exec(GInst i)
    {
        u8 buf[16];
        encode(i, buf); // fills in length
        return execInst(i, st, mem);
    }

    ExecOut
    execRR(GOp op, GReg rd, GReg rs)
    {
        GInst i;
        i.op = op;
        i.rd = u8(rd);
        i.rs = u8(rs);
        return exec(i);
    }

    ExecOut
    execRI(GOp op, GReg rd, s32 imm)
    {
        GInst i;
        i.op = op;
        i.rd = u8(rd);
        i.imm = imm;
        return exec(i);
    }
};

} // namespace

TEST(Flags, AddCases)
{
    EXPECT_EQ(flagsAdd(1, 2, 3), 0);
    EXPECT_EQ(flagsAdd(0, 0, 0), flagZ);
    EXPECT_EQ(flagsAdd(0xffffffff, 1, 0), flagZ | flagC);
    // Signed overflow: MAX_INT + 1
    EXPECT_EQ(flagsAdd(0x7fffffff, 1, 0x80000000), flagS | flagO);
    // Negative result without overflow
    EXPECT_EQ(flagsAdd(0xffffffff, 0xffffffff, 0xfffffffe),
              flagS | flagC);
}

TEST(Flags, SubCases)
{
    EXPECT_EQ(flagsSub(5, 3, 2), 0);
    EXPECT_EQ(flagsSub(3, 3, 0), flagZ);
    EXPECT_EQ(flagsSub(3, 5, u32(-2)), flagS | flagC);
    // Signed overflow: MIN_INT - 1
    EXPECT_EQ(flagsSub(0x80000000, 1, 0x7fffffff), flagO);
    // Unsigned borrow only
    EXPECT_EQ(flagsSub(0, 1, 0xffffffff), flagS | flagC);
}

TEST(Flags, LogicClearsCO)
{
    EXPECT_EQ(flagsLogic(0), flagZ);
    EXPECT_EQ(flagsLogic(0x80000000), flagS);
    EXPECT_EQ(flagsLogic(42), 0);
}

TEST(Flags, Fcmp)
{
    EXPECT_EQ(flagsFcmp(1.0, 1.0), flagZ);
    EXPECT_EQ(flagsFcmp(1.0, 2.0), flagC);
    EXPECT_EQ(flagsFcmp(2.0, 1.0), 0);
    EXPECT_EQ(flagsFcmp(std::nan(""), 1.0), flagC);
}

TEST(Semantics, MovAndAdd)
{
    Machine m;
    m.execRI(GOp::MOV_RI, RAX, 10);
    m.execRI(GOp::ADD_RI, RAX, 32);
    EXPECT_EQ(m.st.gpr[RAX], 42u);
    EXPECT_EQ(m.st.flags, 0);
    m.execRI(GOp::MOV_RI, RBX, -42);
    m.execRR(GOp::ADD_RR, RAX, RBX);
    EXPECT_EQ(m.st.gpr[RAX], 0u);
    EXPECT_TRUE(m.st.flags & flagZ);
}

TEST(Semantics, IncDecPreserveCarry)
{
    Machine m;
    // Set CF via a borrowing subtract.
    m.execRI(GOp::MOV_RI, RAX, 0);
    m.execRI(GOp::SUB_RI, RAX, 1);
    ASSERT_TRUE(m.st.flags & flagC);
    m.execRR(GOp::INC, RAX, RAX);
    EXPECT_TRUE(m.st.flags & flagC) << "INC must not clobber CF";
    EXPECT_TRUE(m.st.flags & flagZ);
    m.execRR(GOp::DEC, RAX, RAX);
    EXPECT_TRUE(m.st.flags & flagC);
    EXPECT_TRUE(m.st.flags & flagS);
}

TEST(Semantics, MulOverflowFlags)
{
    Machine m;
    m.execRI(GOp::MOV_RI, RAX, 0x10000);
    m.execRI(GOp::IMUL_RI, RAX, 0x10000);
    EXPECT_EQ(m.st.gpr[RAX], 0u);
    EXPECT_TRUE(m.st.flags & flagC);
    EXPECT_TRUE(m.st.flags & flagO);

    m.execRI(GOp::MOV_RI, RAX, 7);
    m.execRI(GOp::IMUL_RI, RAX, 6);
    EXPECT_EQ(m.st.gpr[RAX], 42u);
    EXPECT_FALSE(m.st.flags & flagC);
}

TEST(Semantics, DivRemAndFaults)
{
    Machine m;
    m.execRI(GOp::MOV_RI, RAX, -7);
    m.execRI(GOp::MOV_RI, RBX, 2);
    m.execRR(GOp::IDIV_RR, RAX, RBX);
    EXPECT_EQ(s32(m.st.gpr[RAX]), -3); // trunc toward zero

    m.execRI(GOp::MOV_RI, RAX, -7);
    m.execRR(GOp::IREM_RR, RAX, RBX);
    EXPECT_EQ(s32(m.st.gpr[RAX]), -1);

    m.execRI(GOp::MOV_RI, RCX, 0);
    m.execRI(GOp::MOV_RI, RAX, 1);
    auto out = m.execRR(GOp::IDIV_RR, RAX, RCX);
    EXPECT_EQ(out.status, ExecStatus::Fault);

    m.execRI(GOp::MOV_RI, RAX, s32(0x80000000));
    m.execRI(GOp::MOV_RI, RBX, -1);
    out = m.execRR(GOp::IDIV_RR, RAX, RBX);
    EXPECT_EQ(out.status, ExecStatus::Fault);
}

TEST(Semantics, ShiftFlagSemantics)
{
    Machine m;
    m.execRI(GOp::MOV_RI, RAX, s32(0x80000001));
    m.execRI(GOp::SHL_RI8, RAX, 1);
    EXPECT_EQ(m.st.gpr[RAX], 2u);
    EXPECT_TRUE(m.st.flags & flagC) << "top bit shifted out";

    m.execRI(GOp::MOV_RI, RAX, 3);
    m.execRI(GOp::SHR_RI8, RAX, 1);
    EXPECT_EQ(m.st.gpr[RAX], 1u);
    EXPECT_TRUE(m.st.flags & flagC) << "low bit shifted out";

    m.execRI(GOp::MOV_RI, RAX, -8);
    m.execRI(GOp::SAR_RI8, RAX, 2);
    EXPECT_EQ(s32(m.st.gpr[RAX]), -2);

    // Zero-count shift: flags still written (GISA-specific semantics).
    m.execRI(GOp::MOV_RI, RAX, 0);
    m.execRI(GOp::SHL_RI8, RAX, 0);
    EXPECT_TRUE(m.st.flags & flagZ);
    EXPECT_FALSE(m.st.flags & flagC);
}

TEST(Semantics, AddressingModes)
{
    Machine m;
    m.mem.write32(0x2000, 111);
    m.mem.write32(0x2010, 222);
    m.mem.write32(0x2024, 333);
    m.mem.write32(0x3000, 444);

    m.st.gpr[RBX] = 0x2000;
    m.st.gpr[RCX] = 4;

    GInst i;
    i.op = GOp::MOV_RM;
    i.rd = RAX;
    i.memMode = memBase;
    i.memBase = RBX;
    m.exec(i);
    EXPECT_EQ(m.st.gpr[RAX], 111u);

    i.memMode = memBaseD8;
    i.disp = 0x10;
    m.exec(i);
    EXPECT_EQ(m.st.gpr[RAX], 222u);

    i.memMode = memSib;
    i.memIndex = RCX;
    i.memScale = 2; // rcx * 4
    i.disp = 0x14;
    m.exec(i); // 0x2000 + 16 + 0x14 = 0x2024
    EXPECT_EQ(m.st.gpr[RAX], 333u);

    i.memMode = memAbs;
    i.disp = 0x3000;
    m.exec(i);
    EXPECT_EQ(m.st.gpr[RAX], 444u);
}

TEST(Semantics, LeaDoesNotTouchMemory)
{
    Machine m;
    m.st.gpr[RBX] = 0x5000;
    m.st.gpr[RSI] = 3;
    GInst i;
    i.op = GOp::LEA;
    i.rd = RAX;
    i.memMode = memSib;
    i.memBase = RBX;
    i.memIndex = RSI;
    i.memScale = 3;
    i.disp = 7;
    m.exec(i);
    EXPECT_EQ(m.st.gpr[RAX], 0x5000u + 24 + 7);
    EXPECT_EQ(m.mem.pageCount(), 0u);
}

TEST(Semantics, SignZeroExtendLoads)
{
    Machine m;
    m.mem.write8(0x2000, 0x80);
    m.mem.write16(0x2002, 0x8000);
    m.st.gpr[RBX] = 0x2000;

    GInst i;
    i.op = GOp::MOVZX8_RM;
    i.rd = RAX;
    i.memMode = memBase;
    i.memBase = RBX;
    m.exec(i);
    EXPECT_EQ(m.st.gpr[RAX], 0x80u);

    i.op = GOp::MOVSX8_RM;
    m.exec(i);
    EXPECT_EQ(m.st.gpr[RAX], 0xffffff80u);

    i.op = GOp::MOVZX16_RM;
    i.memMode = memBaseD8;
    i.disp = 2;
    m.exec(i);
    EXPECT_EQ(m.st.gpr[RAX], 0x8000u);

    i.op = GOp::MOVSX16_RM;
    m.exec(i);
    EXPECT_EQ(m.st.gpr[RAX], 0xffff8000u);
}

TEST(Semantics, RmwAddToMemory)
{
    Machine m;
    m.mem.write32(0x2000, 40);
    m.st.gpr[RBX] = 0x2000;
    m.st.gpr[RAX] = 2;
    GInst i;
    i.op = GOp::ADD_MR;
    i.rd = RAX;
    i.memMode = memBase;
    i.memBase = RBX;
    m.exec(i);
    EXPECT_EQ(m.mem.read32(0x2000), 42u);
    EXPECT_FALSE(m.st.flags & flagZ);
}

TEST(Semantics, PushPopCallRet)
{
    Machine m;
    u32 sp0 = m.st.gpr[RSP];
    m.st.gpr[RAX] = 0xaabbccdd;
    m.execRR(GOp::PUSH, RAX, RAX);
    EXPECT_EQ(m.st.gpr[RSP], sp0 - 4);
    EXPECT_EQ(m.mem.read32(sp0 - 4), 0xaabbccddu);
    m.execRR(GOp::POP, RBX, RBX);
    EXPECT_EQ(m.st.gpr[RBX], 0xaabbccddu);
    EXPECT_EQ(m.st.gpr[RSP], sp0);

    // CALLR pushes the return address and jumps.
    m.st.pc = 0x1000;
    m.st.gpr[RDX] = 0x4000;
    GInst c;
    c.op = GOp::CALLR;
    c.rd = RDX;
    u8 cbuf[16];
    encode(c, cbuf); // fix up c.length for the expectations below
    auto out = m.exec(c);
    EXPECT_EQ(out.status, ExecStatus::CtiTaken);
    EXPECT_EQ(m.st.pc, 0x4000u);
    EXPECT_EQ(m.mem.read32(m.st.gpr[RSP]), 0x1000u + c.length);

    GInst r;
    r.op = GOp::RET;
    out = m.exec(r);
    EXPECT_EQ(out.status, ExecStatus::CtiTaken);
    EXPECT_EQ(m.st.pc, 0x1000u + c.length);
    EXPECT_EQ(m.st.gpr[RSP], sp0);
}

TEST(Semantics, BranchTakenNotTaken)
{
    Machine m;
    m.execRI(GOp::MOV_RI, RAX, 1);
    m.execRI(GOp::CMP_RI, RAX, 1);
    m.st.pc = 0x1000;
    GInst j;
    j.op = GOp::JCC_REL32;
    j.cond = GCond::EQ;
    j.imm = 0x20;
    u8 buf[16];
    encode(j, buf);
    auto out = m.exec(j);
    EXPECT_EQ(out.status, ExecStatus::CtiTaken);
    EXPECT_EQ(m.st.pc, 0x1000u + j.length + 0x20);

    m.st.pc = 0x1000;
    j.cond = GCond::NE;
    out = m.exec(j);
    EXPECT_EQ(out.status, ExecStatus::CtiNotTaken);
    EXPECT_EQ(m.st.pc, 0x1000u + j.length);
}

TEST(Semantics, SetccCmovcc)
{
    Machine m;
    m.execRI(GOp::MOV_RI, RAX, 3);
    m.execRI(GOp::CMP_RI, RAX, 5); // 3 < 5
    GInst s;
    s.op = GOp::SETCC;
    s.cond = GCond::LT;
    s.rd = RBX;
    m.exec(s);
    EXPECT_EQ(m.st.gpr[RBX], 1u);
    s.cond = GCond::GT;
    m.exec(s);
    EXPECT_EQ(m.st.gpr[RBX], 0u);

    m.st.gpr[RCX] = 77;
    m.st.gpr[RDX] = 0;
    GInst c;
    c.op = GOp::CMOVCC;
    c.cond = GCond::LT;
    c.rd = RDX;
    c.rs = RCX;
    m.exec(c);
    EXPECT_EQ(m.st.gpr[RDX], 77u);
    c.cond = GCond::GT;
    c.rs = RAX;
    m.exec(c);
    EXPECT_EQ(m.st.gpr[RDX], 77u) << "not-taken cmov must not move";
}

TEST(Semantics, StringMovsStos)
{
    Machine m;
    for (int i = 0; i < 8; ++i)
        m.mem.write8(0x2000 + i, u8('a' + i));
    m.st.gpr[RSI] = 0x2000;
    m.st.gpr[RDI] = 0x3000;
    m.st.gpr[RCX] = 8;
    GInst mv;
    mv.op = GOp::MOVSB;
    mv.rep = true;
    auto out = m.exec(mv);
    EXPECT_EQ(out.status, ExecStatus::Ok);
    EXPECT_EQ(out.repIters, 8u);
    EXPECT_EQ(m.st.gpr[RCX], 0u);
    EXPECT_EQ(m.st.gpr[RSI], 0x2008u);
    EXPECT_EQ(m.st.gpr[RDI], 0x3008u);
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(m.mem.read8(0x3000 + i), u8('a' + i));

    // STOSW fills words with RAX.
    m.st.gpr[RAX] = 0xdeadbeef;
    m.st.gpr[RDI] = 0x4000;
    m.st.gpr[RCX] = 4;
    GInst stw;
    stw.op = GOp::STOSW;
    stw.rep = true;
    m.exec(stw);
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(m.mem.read32(0x4000 + 4 * i), 0xdeadbeefu);
}

TEST(Semantics, RepZeroCountIsNop)
{
    Machine m;
    m.st.gpr[RCX] = 0;
    m.st.gpr[RDI] = 0x3000;
    GInst st;
    st.op = GOp::STOSB;
    st.rep = true;
    auto out = m.exec(st);
    EXPECT_EQ(out.status, ExecStatus::Ok);
    EXPECT_EQ(out.repIters, 0u);
    EXPECT_EQ(m.st.gpr[RDI], 0x3000u);
}

TEST(Semantics, RepRestartableAcrossPageMiss)
{
    // REP STOSB into a Signal-policy memory: the fault arrives at the
    // page boundary with registers reflecting completed iterations.
    CpuState st;
    PagedMemory mem(MissPolicy::Signal);
    std::vector<u8> zeros(pageSizeBytes, 0);
    mem.installPage(0x1000, zeros.data());

    st.gpr[RAX] = 0x55;
    st.gpr[RDI] = 0x2000 - 16; // 16 bytes fit, then miss at 0x2000
    st.gpr[RCX] = 32;
    GInst s;
    s.op = GOp::STOSB;
    s.rep = true;
    u8 buf[16];
    encode(s, buf);

    bool missed = false;
    try {
        execInst(s, st, mem);
    } catch (const PageMiss &pm) {
        missed = true;
        EXPECT_EQ(pm.page, 0x2000u);
    }
    ASSERT_TRUE(missed);
    EXPECT_EQ(st.gpr[RCX], 16u) << "16 iterations completed";
    EXPECT_EQ(st.gpr[RDI], 0x2000u);

    // Install and retry: the instruction completes.
    mem.installPage(0x2000, zeros.data());
    auto out = execInst(s, st, mem);
    EXPECT_EQ(out.status, ExecStatus::Ok);
    EXPECT_EQ(st.gpr[RCX], 0u);
    for (int i = 0; i < 32; ++i)
        EXPECT_EQ(mem.read8(0x2000 - 16 + i), 0x55);
}

TEST(Semantics, FpArithmeticAndCompare)
{
    Machine m;
    m.st.fpr[0] = 3.0;
    m.st.fpr[1] = 4.0;
    m.execRR(GOp::FMUL, RAX, RCX); // f0 *= f1
    EXPECT_DOUBLE_EQ(m.st.fpr[0], 12.0);
    m.st.fpr[2] = 2.0;
    GInst sq;
    sq.op = GOp::FSQRT;
    sq.rd = 3;
    sq.rs = 2;
    m.exec(sq);
    EXPECT_DOUBLE_EQ(m.st.fpr[3], std::sqrt(2.0));

    GInst c;
    c.op = GOp::FCMP;
    c.rd = 0;
    c.rs = 1;
    m.exec(c); // 12.0 vs 4.0
    EXPECT_FALSE(m.st.flags & flagC);
    EXPECT_FALSE(m.st.flags & flagZ);
}

TEST(Semantics, TrigMatchesSharedDefinition)
{
    Machine m;
    for (double x : {0.0, 0.5, 1.0, 3.0, -2.5, 10.0, 100.0}) {
        m.st.fpr[1] = x;
        GInst s;
        s.op = GOp::FSIN;
        s.rd = 0;
        s.rs = 1;
        m.exec(s);
        EXPECT_EQ(m.st.fpr[0], gsin(x)) << "x=" << x;
        GInst cc;
        cc.op = GOp::FCOS;
        cc.rd = 2;
        cc.rs = 1;
        m.exec(cc);
        EXPECT_EQ(m.st.fpr[2], gcos(x)) << "x=" << x;
        // Sanity: approximation close to libm on moderate range.
        EXPECT_NEAR(m.st.fpr[0], std::sin(x), 1e-4);
        EXPECT_NEAR(m.st.fpr[2], std::cos(x), 1e-4);
    }
}

TEST(Semantics, ConvertIntFp)
{
    Machine m;
    m.st.gpr[RBX] = u32(-7);
    GInst c;
    c.op = GOp::CVTIF;
    c.rd = 0;
    c.rs = RBX;
    m.exec(c);
    EXPECT_DOUBLE_EQ(m.st.fpr[0], -7.0);

    m.st.fpr[1] = -2.9;
    GInst c2;
    c2.op = GOp::CVTFI;
    c2.rd = RAX;
    c2.rs = 1;
    m.exec(c2);
    EXPECT_EQ(s32(m.st.gpr[RAX]), -2) << "truncate toward zero";

    EXPECT_EQ(gcvtfi(3e10), s32(0x80000000));
    EXPECT_EQ(gcvtfi(std::nan("")), s32(0x80000000));
}

TEST(Semantics, FpLoadStoreRoundtrip)
{
    Machine m;
    m.st.fpr[5] = 1.25e-3;
    m.st.gpr[RBX] = 0x6000;
    GInst st;
    st.op = GOp::FST;
    st.rd = 5;
    st.memMode = memBase;
    st.memBase = RBX;
    m.exec(st);
    GInst ld;
    ld.op = GOp::FLD;
    ld.rd = 6;
    ld.memMode = memBase;
    ld.memBase = RBX;
    m.exec(ld);
    EXPECT_EQ(m.st.fpr[6], m.st.fpr[5]);
}

TEST(Semantics, FetchInstAcrossPageBoundary)
{
    // An instruction whose bytes straddle a page boundary must fetch
    // both pages but no more.
    PagedMemory mem;
    GInst i;
    i.op = GOp::MOV_RI;
    i.rd = RAX;
    i.imm = 0x01020304;
    u8 buf[16];
    std::size_t n = encode(i, buf);
    GAddr pc = 2 * pageSizeBytes - 2;
    mem.writeBlock(pc, buf, n);
    GInst out = fetchInst(mem, pc);
    EXPECT_EQ(out.op, GOp::MOV_RI);
    EXPECT_EQ(out.imm, 0x01020304);
}

TEST(Semantics, FetchInstUndecodableFaults)
{
    PagedMemory mem;
    mem.write8(0x1000, 0xf5); // invalid opcode
    EXPECT_THROW(fetchInst(mem, 0x1000), GuestFault);
}

TEST(DecodeCache, PageMissCachesNothingAndClearForgets)
{
    // An instruction straddling into a page the memory does not hold
    // yet: the fetch misses, then decodes once the page arrives.
    GInst i;
    i.op = GOp::MOV_RI;
    i.rd = RAX;
    i.imm = 0x01020304;
    u8 buf[16];
    std::size_t n = encode(i, buf);
    GAddr pc = 2 * pageSizeBytes - 2;
    PagedMemory image;
    image.writeBlock(pc, buf, n);
    PagedMemory mem(MissPolicy::Signal);
    mem.installPage(pageSizeBytes, image.page(pageSizeBytes));

    DecodeCache dc;
    try {
        dc.fetch(mem, pc);
        FAIL() << "expected a page miss";
    } catch (const PageMiss &pm) {
        EXPECT_EQ(pm.page, 2 * pageSizeBytes);
    }
    mem.installPage(2 * pageSizeBytes, image.page(2 * pageSizeBytes));
    const GInst &out = dc.fetch(mem, pc);
    EXPECT_EQ(out.op, GOp::MOV_RI);
    EXPECT_EQ(out.imm, 0x01020304);
    EXPECT_EQ(out.length, n);

    // Cached: later fetches return the same decode without reading
    // memory, until clear().
    i.imm = 7;
    encode(i, buf);
    mem.writeBlock(pc, buf, n);
    dc.fetch(mem, 2 * pageSizeBytes + 16); // switch pages and back
    EXPECT_EQ(&dc.fetch(mem, pc), &out);
    EXPECT_EQ(out.imm, 0x01020304);
    dc.clear();
    EXPECT_EQ(dc.fetch(mem, pc).imm, 7);
}

TEST(DecodeCache, MatchesFetchInstOnSeededPrograms)
{
    for (u64 seed = 1; seed <= 16; ++seed) {
        fuzz::GenParams gp;
        gp.seed = seed;
        const Program prog = fuzz::generate(gp);
        PagedMemory mem;
        prog.load(mem);
        const GAddr end = Program::codeAddr(prog.code.size());

        // Every byte offset, in two orders, so pages fill both ways
        // and a decode lands between earlier ones. Offsets that do not
        // start an instruction fault, and a fault caches nothing.
        DecodeCache dc;
        std::vector<std::pair<GAddr, const GInst *>> held;
        for (int order = 0; order < 2; ++order) {
            for (GAddr k = 0; k < end - layout::codeBase; ++k) {
                const GAddr pc = order == 0 ? layout::codeBase + k
                                            : end - 1 - k;
                bool faults = false;
                GInst want;
                try {
                    want = fetchInst(mem, pc);
                } catch (const GuestFault &) {
                    faults = true;
                }
                if (faults) {
                    EXPECT_THROW(dc.fetch(mem, pc), GuestFault)
                        << "seed " << seed << " pc " << pc;
                    continue;
                }
                const GInst &got = dc.fetch(mem, pc);
                ASSERT_TRUE(got.op == want.op && got.cond == want.cond &&
                            got.rd == want.rd && got.rs == want.rs &&
                            got.rep == want.rep &&
                            got.memMode == want.memMode &&
                            got.memBase == want.memBase &&
                            got.memIndex == want.memIndex &&
                            got.memScale == want.memScale &&
                            got.disp == want.disp && got.imm == want.imm &&
                            got.length == want.length)
                    << "seed " << seed << " pc " << pc;
                if (order == 0)
                    held.emplace_back(pc, &got);
            }
        }
        // A reference stays put while later fetches fill its page.
        for (auto [pc, ref] : held)
            ASSERT_EQ(&dc.fetch(mem, pc), ref) << "seed " << seed;
    }
}

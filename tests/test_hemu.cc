/**
 * @file
 * Host functional-emulator tests: ALU/memory semantics, speculative
 * regions (CKPT/COMMIT, store gating, rollback), asserts, the alias
 * table, IBTC, EXITB, page-miss handling, guest-state mapping, and
 * retirement attribution and whole simulations with and without a
 * trace sink.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <map>
#include <utility>
#include <vector>

#include "campaign/campaign.hh"
#include "common/logging.hh"
#include "fuzz/diffrun.hh"
#include "fuzz/generator.hh"
#include "guest/semantics.hh"
#include "host/code_cache.hh"
#include "host/hemu.hh"
#include "sim/controller.hh"
#include "tol/tol.hh"

using namespace darco;
using namespace darco::host;
using namespace darco::host::regmap;

namespace
{

/** Harness: assemble a snippet, run it, inspect state. */
struct HostRig
{
    explicit HostRig(
        guest::MissPolicy policy = guest::MissPolicy::AllocateZero)
        : mem(policy)
    {
    }

    CodeCache cache{1 << 16};
    guest::PagedMemory mem;
    HostEmu emu{cache, mem};

    /** Append code and return its entry pc. */
    u32
    install(const HAsm &a)
    {
        return cache.install(a.words());
    }

    ExitInfo
    run(u32 pc, u64 budget = 100000)
    {
        return emu.run(pc, budget);
    }
};

} // namespace

TEST(HostEmu, AluBasics)
{
    HostRig r;
    HAsm a;
    a.loadImm(15, 40);
    a.loadImm(16, 2);
    a.emit(HOp::ADD, 17, 15, 16);
    a.emit(HOp::SUB, 18, 15, 16);
    a.emit(HOp::MUL, 19, 15, 16);
    a.emit(HOp::DIV, 20, 15, 16);
    a.emit(HOp::REM, 21, 15, 16);
    a.emit(HOp::EXITB, 0, 0, 0, 7);
    auto e = r.run(r.install(a));
    ASSERT_EQ(e.kind, ExitKind::Exit);
    EXPECT_EQ(e.exitId, 7u);
    EXPECT_EQ(r.emu.ctx().gpr[17], 42u);
    EXPECT_EQ(r.emu.ctx().gpr[18], 38u);
    EXPECT_EQ(r.emu.ctx().gpr[19], 80u);
    EXPECT_EQ(r.emu.ctx().gpr[20], 20u);
    EXPECT_EQ(r.emu.ctx().gpr[21], 0u);
}

TEST(HostEmu, ZeroRegisterIsHardwired)
{
    HostRig r;
    HAsm a;
    a.emit(HOp::ADDI, 0, 0, 0, 55); // write r0
    a.emit(HOp::ADDI, 15, 0, 0, 1); // r15 = r0 + 1
    a.emit(HOp::EXITB, 0, 0, 0, 0);
    r.run(r.install(a));
    EXPECT_EQ(r.emu.ctx().gpr[0], 0u);
    EXPECT_EQ(r.emu.ctx().gpr[15], 1u);
}

TEST(HostEmu, SignedUnsignedCompares)
{
    HostRig r;
    HAsm a;
    a.loadImm(15, u32(-1));
    a.loadImm(16, 1);
    a.emit(HOp::SLT, 17, 15, 16);  // -1 < 1 signed: 1
    a.emit(HOp::SLTU, 18, 15, 16); // 0xffffffff < 1 unsigned: 0
    a.emit(HOp::SGE, 19, 15, 16);  // 0
    a.emit(HOp::SGEU, 20, 15, 16); // 1
    a.emit(HOp::EXITB, 0, 0, 0, 0);
    r.run(r.install(a));
    EXPECT_EQ(r.emu.ctx().gpr[17], 1u);
    EXPECT_EQ(r.emu.ctx().gpr[18], 0u);
    EXPECT_EQ(r.emu.ctx().gpr[19], 0u);
    EXPECT_EQ(r.emu.ctx().gpr[20], 1u);
}

TEST(HostEmu, LoadStoreWidths)
{
    HostRig r;
    r.mem.write32(0x2000, 0xdeadbeef);
    HAsm a;
    a.loadImm(15, 0x2000);
    a.emit(HOp::LW, 16, 15, 0, 0);
    a.emit(HOp::LBU, 17, 15, 0, 3);
    a.emit(HOp::LB, 18, 15, 0, 3);   // 0xde sign-extended
    a.emit(HOp::LHU, 19, 15, 0, 2);
    a.emit(HOp::LH, 20, 15, 0, 2);
    a.emit(HOp::SB, 0, 15, 16, 4);   // store low byte of r16
    a.emit(HOp::SH, 0, 15, 16, 6);
    a.emit(HOp::SW, 0, 15, 16, 8);
    a.emit(HOp::EXITB, 0, 0, 0, 0);
    r.run(r.install(a));
    EXPECT_EQ(r.emu.ctx().gpr[16], 0xdeadbeefu);
    EXPECT_EQ(r.emu.ctx().gpr[17], 0xdeu);
    EXPECT_EQ(r.emu.ctx().gpr[18], 0xffffffdeu);
    EXPECT_EQ(r.emu.ctx().gpr[19], 0xdeadu);
    EXPECT_EQ(r.emu.ctx().gpr[20], 0xffffdeadu);
    EXPECT_EQ(r.mem.read8(0x2004), 0xefu);
    EXPECT_EQ(r.mem.read16(0x2006), 0xbeefu);
    EXPECT_EQ(r.mem.read32(0x2008), 0xdeadbeefu);
}

TEST(HostEmu, BranchesAndJump)
{
    HostRig r;
    HAsm a;
    a.loadImm(15, 5);            // 0
    a.loadImm(16, 5);            // 1
    a.emit(HOp::BEQ, 0, 15, 16, 1); // 2: taken, skip next
    a.emit(HOp::ADDI, 17, 0, 0, 99); // 3: skipped
    a.emit(HOp::ADDI, 18, 0, 0, 1);  // 4
    a.emit(HOp::BNE, 0, 15, 16, 1);  // 5: not taken
    a.emit(HOp::ADDI, 19, 0, 0, 2);  // 6: executed
    a.emit(HOp::J, 0, 0, 0, 9);      // 7: jump over 8
    a.emit(HOp::ADDI, 17, 0, 0, 1);  // 8: skipped
    a.emit(HOp::EXITB, 0, 0, 0, 0);  // 9
    r.run(r.install(a));
    EXPECT_EQ(r.emu.ctx().gpr[17], 0u);
    EXPECT_EQ(r.emu.ctx().gpr[18], 1u);
    EXPECT_EQ(r.emu.ctx().gpr[19], 2u);
}

TEST(HostEmu, BackwardBranchLoop)
{
    HostRig r;
    HAsm a;
    a.loadImm(15, 10);              // 0: counter
    a.emit(HOp::ADDI, 16, 0, 0, 0); // 1: acc
    // loop: acc += counter; counter -= 1; bne counter, r0, loop
    a.emit(HOp::ADD, 16, 16, 15);   // 2
    a.emit(HOp::ADDI, 15, 15, 0, -1); // 3
    a.emit(HOp::BNE, 0, 15, 0, -3); // 4 -> 2
    a.emit(HOp::EXITB, 0, 0, 0, 0);
    auto e = r.run(r.install(a));
    ASSERT_EQ(e.kind, ExitKind::Exit);
    EXPECT_EQ(r.emu.ctx().gpr[16], 55u);
    EXPECT_EQ(e.instsExecuted, 2u + 3 * 10 + 1);
}

TEST(HostEmu, CommitMakesStoresVisible)
{
    HostRig r;
    r.mem.write32(0x3000, 1); // page present
    HAsm a;
    a.emit(HOp::CKPT);
    a.loadImm(15, 0x3000);
    a.loadImm(16, 42);
    a.emit(HOp::SW, 0, 15, 16, 0);
    a.emit(HOp::LW, 17, 15, 0, 0); // must see the buffered store
    a.emit(HOp::COMMIT);
    a.emit(HOp::EXITB, 0, 0, 0, 0);
    r.run(r.install(a));
    EXPECT_EQ(r.emu.ctx().gpr[17], 42u) << "store-to-load forwarding";
    EXPECT_EQ(r.mem.read32(0x3000), 42u) << "committed";
}

TEST(HostEmu, AssertFailureRollsBack)
{
    HostRig r;
    r.mem.write32(0x3000, 7);
    HAsm a;
    a.emit(HOp::CKPT);                 // 0
    a.loadImm(15, 0x3000);             // 1
    a.loadImm(16, 99);                 // 2
    a.emit(HOp::SW, 0, 15, 16, 0);     // 3: speculative store
    a.emit(HOp::ADDI, 17, 0, 0, 5);    // 4
    a.emit(HOp::ASSERTNZ, 0, 0, 0, 3); // 5: r0 == 0 -> fails, id 3
    a.emit(HOp::COMMIT);
    a.emit(HOp::EXITB, 0, 0, 0, 0);
    auto e = r.run(r.install(a));
    ASSERT_EQ(e.kind, ExitKind::AssertFail);
    EXPECT_EQ(e.assertId, 3u);
    // Rollback: registers restored, store never reached memory.
    EXPECT_EQ(r.emu.ctx().gpr[15], 0u);
    EXPECT_EQ(r.emu.ctx().gpr[17], 0u);
    EXPECT_EQ(r.mem.read32(0x3000), 7u);
    EXPECT_EQ(r.emu.rollbacks(), 1u);
}

TEST(HostEmu, AssertPassContinues)
{
    HostRig r;
    HAsm a;
    a.emit(HOp::CKPT);
    a.emit(HOp::ADDI, 15, 0, 0, 1);
    a.emit(HOp::ASSERTNZ, 0, 15, 0, 0); // r15 != 0: passes
    a.emit(HOp::ASSERTZ, 0, 0, 0, 1);   // r0 == 0: passes
    a.emit(HOp::COMMIT);
    a.emit(HOp::EXITB, 0, 0, 0, 5);
    auto e = r.run(r.install(a));
    EXPECT_EQ(e.kind, ExitKind::Exit);
    EXPECT_EQ(e.exitId, 5u);
}

TEST(HostEmu, AliasDetectionFailsSpeculativeLoad)
{
    // LWS records the load; a later overlapping store must fail.
    HostRig r;
    r.mem.write32(0x4000, 123);
    HAsm a;
    a.emit(HOp::CKPT);
    a.loadImm(15, 0x4000);
    a.emit(HOp::LWS, 16, 15, 0, 0); // speculative (hoisted) load
    a.loadImm(17, 1);
    a.emit(HOp::SWC, 0, 15, 17, 0); // aliases the LWS -> fail
    a.emit(HOp::COMMIT);
    a.emit(HOp::EXITB, 0, 0, 0, 0);
    auto e = r.run(r.install(a));
    ASSERT_EQ(e.kind, ExitKind::AliasFail);
    EXPECT_EQ(r.mem.read32(0x4000), 123u) << "rolled back";
}

TEST(HostEmu, NonAliasingSpeculativeLoadCommits)
{
    HostRig r;
    r.mem.write32(0x4000, 123);
    r.mem.write32(0x4100, 0);
    HAsm a;
    a.emit(HOp::CKPT);
    a.loadImm(15, 0x4000);
    a.emit(HOp::LWS, 16, 15, 0, 0);
    a.loadImm(17, 1);
    a.emit(HOp::SWC, 0, 15, 17, 0x100); // disjoint address
    a.emit(HOp::COMMIT);
    a.emit(HOp::EXITB, 0, 0, 0, 0);
    auto e = r.run(r.install(a));
    ASSERT_EQ(e.kind, ExitKind::Exit);
    EXPECT_EQ(r.emu.ctx().gpr[16], 123u);
    EXPECT_EQ(r.mem.read32(0x4100), 1u);
}

TEST(HostEmu, PageMissRollsBackAndReports)
{
    CodeCache cache(1 << 16);
    guest::PagedMemory mem(guest::MissPolicy::Signal);
    HostEmu emu(cache, mem);
    HAsm a;
    a.emit(HOp::CKPT);
    a.emit(HOp::ADDI, 15, 0, 0, 4096);
    a.emit(HOp::LW, 16, 15, 0, 0); // page 0x1000 absent
    a.emit(HOp::COMMIT);
    a.emit(HOp::EXITB, 0, 0, 0, 0);
    u32 pc = cache.install(a.words());
    auto e = emu.run(pc);
    ASSERT_EQ(e.kind, ExitKind::PageMiss);
    EXPECT_EQ(e.missPage, 0x1000u);
    EXPECT_EQ(emu.ctx().gpr[15], 0u) << "rolled back";

    // Install the page; the retry succeeds.
    std::vector<u8> page(pageSizeBytes, 0);
    page[0] = 9;
    mem.installPage(0x1000, page.data());
    e = emu.run(pc);
    ASSERT_EQ(e.kind, ExitKind::Exit);
    EXPECT_EQ(emu.ctx().gpr[16], 9u);
}

TEST(HostEmu, SpeculativeStoreToAbsentPageMisses)
{
    CodeCache cache(1 << 16);
    guest::PagedMemory mem(guest::MissPolicy::Signal);
    HostEmu emu(cache, mem);
    HAsm a;
    a.emit(HOp::CKPT);
    a.emit(HOp::ADDI, 15, 0, 0, 4096);
    a.emit(HOp::ADDI, 16, 0, 0, 5);
    a.emit(HOp::SW, 0, 15, 16, 0);
    a.emit(HOp::COMMIT);
    a.emit(HOp::EXITB, 0, 0, 0, 0);
    u32 pc = cache.install(a.words());
    auto e = emu.run(pc);
    ASSERT_EQ(e.kind, ExitKind::PageMiss);
    EXPECT_EQ(e.missPage, 0x1000u);
}

TEST(HostEmu, DivFaultRollsBack)
{
    HostRig r;
    HAsm a;
    a.emit(HOp::CKPT);
    a.emit(HOp::ADDI, 15, 0, 0, 3);
    a.emit(HOp::DIV, 16, 15, 0); // /0
    a.emit(HOp::COMMIT);
    a.emit(HOp::EXITB, 0, 0, 0, 0);
    auto e = r.run(r.install(a));
    ASSERT_EQ(e.kind, ExitKind::DivFault);
    EXPECT_EQ(r.emu.ctx().gpr[15], 0u);
}

TEST(HostEmu, IbtcHitAndMiss)
{
    HostRig r;
    HAsm a;
    a.loadImm(15, 0x5678);         // guest target pc
    a.emit(HOp::IBTC, 0, 15, 0);   // probe
    // fallthrough if miss doesn't happen here; target block:
    HAsm b;
    b.emit(HOp::ADDI, 16, 0, 0, 7);
    b.emit(HOp::EXITB, 0, 0, 0, 2);
    u32 apc = r.install(a);
    u32 bpc = r.install(b);

    // Miss first.
    auto e = r.run(apc);
    ASSERT_EQ(e.kind, ExitKind::IbtcMiss);
    EXPECT_EQ(e.guestTarget, 0x5678u);

    // Fill and retry: hit jumps to b.
    r.emu.ibtc().insert(0x5678, bpc);
    e = r.run(apc);
    ASSERT_EQ(e.kind, ExitKind::Exit);
    EXPECT_EQ(e.exitId, 2u);
    EXPECT_EQ(r.emu.ctx().gpr[16], 7u);
    EXPECT_EQ(r.emu.ibtc().hits(), 1u);
    EXPECT_EQ(r.emu.ibtc().misses(), 1u);
}

TEST(HostEmu, IbtcHitCostCharged)
{
    HostRig r;
    HAsm a;
    a.loadImm(15, 0x1234);
    a.emit(HOp::IBTC, 0, 15, 0);
    HAsm b;
    b.emit(HOp::EXITB, 0, 0, 0, 0);
    u32 apc = r.install(a);
    u32 bpc = r.install(b);
    r.emu.ibtc().insert(0x1234, bpc);
    auto e = r.run(apc);
    // loadImm(1) + IBTC(6 default) + EXITB(1) = 8
    EXPECT_EQ(e.instsExecuted, 8u);
}

TEST(HostEmu, LocalMemoryCounters)
{
    HostRig r;
    HAsm a;
    a.loadImm(15, 0x100);
    a.emit(HOp::LWL, 16, 15, 0, 0);
    a.emit(HOp::ADDI, 16, 16, 0, 1);
    a.emit(HOp::SWL, 0, 15, 16, 0);
    a.emit(HOp::EXITB, 0, 0, 0, 0);
    u32 pc = r.install(a);
    r.emu.writeLocal32(0x100, 41);
    r.run(pc);
    EXPECT_EQ(r.emu.readLocal32(0x100), 42u);
}

TEST(HostEmu, FpPoolAndArithmetic)
{
    HostRig r;
    r.emu.fpPool().push_back(1.5);
    r.emu.fpPool().push_back(2.5);
    HAsm a;
    a.emit(HOp::FLDC, 8, 0, 0, 0);
    a.emit(HOp::FLDC, 9, 0, 0, 1);
    a.emit(HOp::FADD, 10, 8, 9);
    a.emit(HOp::FMUL, 11, 8, 9);
    a.emit(HOp::FDIV, 12, 9, 8);
    a.emit(HOp::FSQRT, 13, 9, 0);
    a.emit(HOp::FRND, 14, 12, 0);
    a.emit(HOp::FLT, 15, 8, 9);
    a.emit(HOp::EXITB, 0, 0, 0, 0);
    r.run(r.install(a));
    auto &f = r.emu.ctx().fpr;
    EXPECT_DOUBLE_EQ(f[10], 4.0);
    EXPECT_DOUBLE_EQ(f[11], 3.75);
    EXPECT_DOUBLE_EQ(f[12], 2.5 / 1.5);
    EXPECT_DOUBLE_EQ(f[13], std::sqrt(2.5));
    EXPECT_DOUBLE_EQ(f[14], 2.0); // nearest-even of 1.666
    EXPECT_EQ(r.emu.ctx().gpr[15], 1u);
}

TEST(HostEmu, FpMemoryRoundtrip)
{
    HostRig r;
    r.mem.write64(0x6000, 0); // allocate page
    r.emu.fpPool().push_back(3.25);
    HAsm a;
    a.loadImm(15, 0x6000);
    a.emit(HOp::FLDC, 8, 0, 0, 0);
    a.emit(HOp::FST, 0, 15, 8, 0);
    a.emit(HOp::FLD, 9, 15, 0, 0);
    a.emit(HOp::EXITB, 0, 0, 0, 0);
    r.run(r.install(a));
    EXPECT_DOUBLE_EQ(r.emu.ctx().fpr[9], 3.25);
}

TEST(HostEmu, GuestStateMappingRoundtrip)
{
    HostRig r;
    guest::CpuState st;
    for (unsigned i = 0; i < guest::numGRegs; ++i)
        st.gpr[i] = 0x100 + i;
    for (unsigned i = 0; i < guest::numFRegs; ++i)
        st.fpr[i] = 1.5 * i;
    st.flags = guest::flagZ | guest::flagC;
    r.emu.loadGuestState(st);
    EXPECT_EQ(r.emu.ctx().gpr[guestGprBase + 3], 0x103u);
    EXPECT_EQ(r.emu.ctx().gpr[flagZ], 1u);
    EXPECT_EQ(r.emu.ctx().gpr[flagS], 0u);
    EXPECT_EQ(r.emu.ctx().gpr[flagC], 1u);

    guest::CpuState back;
    r.emu.storeGuestState(back);
    back.pc = st.pc;
    EXPECT_TRUE(back == st) << back.diff(st);
}

TEST(HostEmu, BudgetExhaustionIsResumable)
{
    HostRig r;
    HAsm a;
    a.loadImm(15, 1000);
    a.emit(HOp::ADDI, 15, 15, 0, -1);
    a.emit(HOp::BNE, 0, 15, 0, -2);
    a.emit(HOp::EXITB, 0, 0, 0, 4);
    u32 pc = r.install(a);
    auto e = r.run(pc, 100);
    ASSERT_EQ(e.kind, ExitKind::Budget);
    // Resume from where it stopped.
    e = r.run(r.emu.ctx().pc, ~0ull);
    ASSERT_EQ(e.kind, ExitKind::Exit);
    EXPECT_EQ(e.exitId, 4u);
    EXPECT_EQ(r.emu.ctx().gpr[15], 0u);
}

TEST(HostEmu, TrigExpansionConstantsMatchGsin)
{
    // The codegen contract: FRND + Horner with the shared constants
    // reproduces gsin() bit-exactly. Emulate the expansion by hand.
    HostRig r;
    using namespace guest::trig;
    auto &pool = r.emu.fpPool();
    pool.push_back(invTwoPi); // 0
    pool.push_back(twoPi);    // 1
    for (unsigned k = 0; k < sinTerms; ++k)
        pool.push_back(sinC[k]); // 2..8

    double x = 2.9;
    r.emu.ctx().fpr[0] = x;
    HAsm a;
    // k = nearbyint(x * inv2pi); r = x - k * 2pi
    a.emit(HOp::FLDC, 8, 0, 0, 0);
    a.emit(HOp::FMUL, 9, 0, 8);
    a.emit(HOp::FRND, 9, 9, 0);
    a.emit(HOp::FLDC, 10, 0, 0, 1);
    a.emit(HOp::FMUL, 9, 9, 10);
    a.emit(HOp::FSUB, 9, 0, 9); // r
    a.emit(HOp::FMUL, 10, 9, 9); // r2
    // Horner: p = C[last]; p = p*r2 + C[k]...
    a.emit(HOp::FLDC, 11, 0, 0, s32(2 + sinTerms - 1));
    for (int k = int(sinTerms) - 2; k >= 0; --k) {
        a.emit(HOp::FMUL, 11, 11, 10);
        a.emit(HOp::FLDC, 12, 0, 0, s32(2 + k));
        a.emit(HOp::FADD, 11, 11, 12);
    }
    a.emit(HOp::FMUL, 11, 11, 9);
    a.emit(HOp::EXITB, 0, 0, 0, 0);
    r.run(r.install(a));
    EXPECT_EQ(r.emu.ctx().fpr[11], guest::gsin(x))
        << "expansion must be bit-exact";
}

TEST(HostEmu, LocalFpAccessNearTopOfAddressSpaceIsRejected)
{
    // a + 8 wraps to 4 in u32 arithmetic; the bounds check must not.
    for (HOp op : {HOp::FLDL, HOp::FSTL}) {
        HostRig r;
        HAsm a;
        a.loadImm(15, 0xfffffffcu);
        if (op == HOp::FLDL)
            a.emit(HOp::FLDL, 8, 15, 0, 0);
        else
            a.emit(HOp::FSTL, 0, 15, 8, 0);
        a.emit(HOp::EXITB, 0, 0, 0, 0);
        u32 pc = r.install(a);
        EXPECT_THROW(r.run(pc), PanicError) << hopInfo(op).name;
    }
}

namespace
{

constexpr GAddr mixBase = 0x3000;

/** A recognisable byte pattern over the pages the store mix touches. */
void
fillPattern(guest::PagedMemory &mem)
{
    for (GAddr p = mixBase; p < mixBase + 2 * pageSizeBytes; ++p)
        mem.write8(p, u8(p * 7 + 3));
}

/**
 * Mixed-width, overlapping stores, each read back before the next
 * overlapping one: SB into a pending SW, SW partly over FST, a SW
 * across a page boundary, two stores to one byte, and loads only
 * partly covered by earlier stores. With `region` the mix runs inside
 * CKPT/COMMIT; with `fail` an assert fails before the COMMIT.
 */
HAsm
storeMix(bool region, bool fail)
{
    HAsm a;
    if (region)
        a.emit(HOp::CKPT);
    a.loadImm(15, mixBase);
    a.loadImm(16, 0x11223344u);
    a.loadImm(17, 0xaabbccddu);
    a.emit(HOp::FLDC, 8, 0, 0, 0);
    // SB into a pending SW.
    a.emit(HOp::SW, 0, 15, 16, 0);
    a.emit(HOp::SB, 0, 15, 17, 1);
    a.emit(HOp::LW, 18, 15, 0, 0);
    a.emit(HOp::LHU, 19, 15, 0, 1);
    a.emit(HOp::LW, 20, 15, 0, 2); // half buffered, half memory
    // SW partly over FST.
    a.emit(HOp::FST, 0, 15, 8, 8);
    a.emit(HOp::SW, 0, 15, 16, 14);
    a.emit(HOp::FLD, 9, 15, 0, 8);
    a.emit(HOp::LW, 21, 15, 0, 12);
    a.emit(HOp::LW, 22, 15, 0, 16);
    // A SW across the page boundary.
    a.loadImm(23, mixBase + pageSizeBytes - 2);
    a.emit(HOp::SW, 0, 23, 17, 0);
    a.emit(HOp::LW, 24, 23, 0, 0);
    a.emit(HOp::LHU, 25, 23, 0, 2);
    a.emit(HOp::LW, 26, 23, 0, -1);
    // Two stores to one byte; the later one wins.
    a.emit(HOp::SB, 0, 15, 16, 0x40);
    a.emit(HOp::SB, 0, 15, 17, 0x40);
    a.emit(HOp::LBU, 27, 15, 0, 0x40);
    a.emit(HOp::LW, 28, 15, 0, 0x3e);
    if (fail)
        a.emit(HOp::ASSERTNZ, 0, 0, 0, 9);
    if (region)
        a.emit(HOp::COMMIT);
    a.emit(HOp::EXITB, 0, 0, 0, 0);
    return a;
}

/** Run the store mix on a fresh rig. */
void
runStoreMix(HostRig &r, bool region, bool fail, ExitKind want)
{
    fillPattern(r.mem);
    u64 bits = 0x0102030405060708ull;
    double d;
    std::memcpy(&d, &bits, 8);
    r.emu.fpPool().push_back(d);
    auto e = r.run(r.install(storeMix(region, fail)));
    ASSERT_EQ(e.kind, want);
}

void
expectSameMemory(guest::PagedMemory &a, guest::PagedMemory &b)
{
    for (GAddr p = mixBase; p < mixBase + 2 * pageSizeBytes; ++p)
        ASSERT_EQ(a.read8(p), b.read8(p)) << std::hex << p;
}

} // namespace

TEST(HostEmu, StoreBufferMatchesUngatedExecution)
{
    HostRig plain, gated;
    runStoreMix(plain, false, false, ExitKind::Exit);
    runStoreMix(gated, true, false, ExitKind::Exit);
    for (unsigned i = 0; i < numHRegs; ++i)
        EXPECT_EQ(gated.emu.ctx().gpr[i], plain.emu.ctx().gpr[i]) << i;
    for (unsigned i = 0; i < numHFRegs; ++i) {
        u64 g, p;
        std::memcpy(&g, &gated.emu.ctx().fpr[i], 8);
        std::memcpy(&p, &plain.emu.ctx().fpr[i], 8);
        EXPECT_EQ(g, p) << i;
    }
    expectSameMemory(gated.mem, plain.mem);

    // Spot-check the forwarding itself, not just the agreement.
    const auto &g = gated.emu.ctx().gpr;
    EXPECT_EQ(g[18], 0x1122dd44u);
    EXPECT_EQ(g[19], 0x22ddu);
    EXPECT_EQ(g[27], 0xddu);
    EXPECT_EQ(gated.mem.read32(mixBase + pageSizeBytes - 2), 0xaabbccddu);
}

TEST(HostEmu, StoreBufferRollbackLeavesMemoryUntouched)
{
    HostRig untouched, failed;
    fillPattern(untouched.mem);
    runStoreMix(failed, true, true, ExitKind::AssertFail);
    expectSameMemory(failed.mem, untouched.mem);
    for (unsigned i = 0; i < numHRegs; ++i)
        EXPECT_EQ(failed.emu.ctx().gpr[i], 0u) << i;
    EXPECT_EQ(failed.emu.rollbacks(), 1u);
}

// ---------------------------------------------------------------------
// Retirement attribution, traced and untraced
// ---------------------------------------------------------------------

namespace
{

/** Records every RETIRE the emulator reports. */
struct RetireLog : RetireSink
{
    void
    onRetire(u32 exit_id, u64 host_insts) override
    {
        calls.emplace_back(exit_id, host_insts);
    }

    std::vector<std::pair<u32, u64>> calls;
};

/** Drops every record. */
struct NullTraceSink : TraceSink
{
    void record(const InstRecord &) override {}
};

/** What one pass over the retire program reports at each exit. */
struct MarkTrace
{
    std::vector<std::pair<u32, u64>> retires;
    std::vector<ExitKind> exits;   //!< every exit but Budget
    std::vector<u64> sinceAtExit;  //!< instsSinceMark() after each
    u64 executed = 0;
};

/**
 * Two RETIREs (the second after an IBTC hit, which costs 6), then a
 * region that misses page 0x1000; once the page is there, a region
 * that commits and retires, then one whose assert fails. Runs in
 * slices of `budget` host instructions, resuming each Budget exit
 * where it stopped, and never resets the mark, so every count runs
 * from the last RETIRE across exits and runs.
 */
MarkTrace
runRetireProgram(bool traced, u64 budget)
{
    HostRig r(guest::MissPolicy::Signal);
    RetireLog log;
    NullTraceSink sink;
    r.emu.setRetireSink(&log);
    if (traced)
        r.emu.setTraceSink(&sink);

    HAsm b;
    b.emit(HOp::RETIRE, 0, 0, 0, 2);   // b0
    b.emit(HOp::CKPT);                 // b1
    b.emit(HOp::ADDI, 15, 0, 0, 4096); // b2
    b.emit(HOp::LW, 16, 15, 0, 0);     // b3: misses page 0x1000
    b.emit(HOp::COMMIT);               // b4
    b.emit(HOp::RETIRE, 0, 0, 0, 3);   // b5
    b.emit(HOp::CKPT);                 // b6
    b.emit(HOp::ADDI, 17, 0, 0, 5);    // b7
    b.emit(HOp::ASSERTNZ, 0, 0, 0, 4); // b8: fails
    b.emit(HOp::EXITB, 0, 0, 0, 0);
    HAsm a;
    a.emit(HOp::ADDI, 15, 0, 0, 1);  // a0
    a.emit(HOp::RETIRE, 0, 0, 0, 1); // a1
    a.emit(HOp::ADDI, 16, 0, 0, 2);  // a2
    a.loadImm(17, 0x1234);           // a3
    a.emit(HOp::IBTC, 0, 17, 0);     // a4: hits b0
    const u32 apc = r.install(a);
    const u32 bpc = r.install(b);
    r.emu.ibtc().insert(0x1234, bpc);

    MarkTrace t;
    u32 pc = apc;
    while (t.exits.size() < 2) {
        ExitInfo e = r.emu.run(pc, budget);
        t.executed += e.instsExecuted;
        pc = r.emu.ctx().pc;
        if (e.kind == ExitKind::Budget)
            continue;
        t.exits.push_back(e.kind);
        t.sinceAtExit.push_back(r.emu.instsSinceMark());
        if (e.kind == ExitKind::PageMiss) {
            std::vector<u8> page(pageSizeBytes, 0);
            r.mem.installPage(e.missPage, page.data());
        }
    }
    t.retires = log.calls;
    EXPECT_EQ(r.emu.instsExecuted(), t.executed);
    return t;
}

/** Everything a caller can read after a whole simulation. */
struct SimOutcome
{
    std::map<std::string, u64> stats;
    guest::CpuState state;
    std::vector<std::pair<GAddr, std::vector<u8>>> memory;
    u64 hostInsts = 0;
    u64 rollbacks = 0;
    u32 exitCode = 0;
};

SimOutcome
simulate(const Config &cfg, const guest::Program &prog, bool traced)
{
    NullTraceSink sink;
    sim::Controller ctl(cfg);
    ctl.load(prog);
    if (traced)
        ctl.tol().setTraceSink(&sink);
    ctl.run();
    SimOutcome o;
    for (const auto &[name, c] : ctl.stats().counters())
        o.stats[name] = c.value();
    o.state = ctl.tol().state();
    guest::PagedMemory &mem = ctl.emulatedMemory();
    for (GAddr p : mem.residentPages()) {
        const u8 *bytes = mem.page(p);
        o.memory.emplace_back(
            p, std::vector<u8>(bytes, bytes + pageSizeBytes));
    }
    o.hostInsts = ctl.tol().hostEmu().instsExecuted();
    o.rollbacks = ctl.tol().hostEmu().rollbacks();
    o.exitCode = ctl.exitCode();
    return o;
}

} // namespace

TEST(HostEmu, RetireMarksSurviveEveryExit)
{
    // A RETIRE reports the host instructions since the previous one,
    // itself included (an IBTC hit counts its cost), and after a
    // rollback instsSinceMark() counts those since the last RETIRE,
    // the faulting instruction included.
    const std::vector<std::pair<u32, u64>> retires = {
        {1, 2}, {2, 1 + 1 + 6 + 1}, {3, 3 + 5}};
    const std::vector<ExitKind> exits = {ExitKind::PageMiss,
                                         ExitKind::AssertFail};
    const std::vector<u64> since = {3, 3};
    for (bool traced : {false, true}) {
        for (u64 budget : {u64(100000), u64(1), u64(2), u64(3)}) {
            MarkTrace t = runRetireProgram(traced, budget);
            EXPECT_EQ(t.retires, retires)
                << "traced " << traced << " budget " << budget;
            EXPECT_EQ(t.exits, exits) << traced << " " << budget;
            EXPECT_EQ(t.sinceAtExit, since) << traced << " " << budget;
            EXPECT_EQ(t.executed, 2u + 1 + 1 + 6 + 4 + 5 + 3)
                << traced << " " << budget;
        }
    }
}

TEST(HostEmu, TracedAndUntracedSimulationsAgree)
{
    u64 rollbacks = 0;
    for (const char *preset : {"interp", "fullopt", "tinycc", "async"}) {
        fuzz::DiffConfig cell{preset, campaign::presetOverrides(preset)};
        for (u64 seed = 1; seed <= 6; ++seed) {
            fuzz::GenParams p;
            p.seed = seed;
            const guest::Program prog = fuzz::generate(p);
            const Config cfg = fuzz::makeConfig(cell, seed, {});
            SimOutcome plain = simulate(cfg, prog, false);
            SimOutcome traced = simulate(cfg, prog, true);
            const std::string what =
                std::string(preset) + " seed " + std::to_string(seed);
            EXPECT_EQ(traced.stats, plain.stats) << what;
            EXPECT_TRUE(traced.state == plain.state) << what;
            EXPECT_TRUE(traced.memory == plain.memory) << what;
            EXPECT_EQ(traced.hostInsts, plain.hostInsts) << what;
            EXPECT_EQ(traced.exitCode, plain.exitCode) << what;
            EXPECT_EQ(traced.rollbacks, plain.rollbacks) << what;
            rollbacks += plain.rollbacks;
            if (std::string(preset) != "interp") {
                EXPECT_GT(plain.stats.at("tol.host_app_bbm") +
                              plain.stats.at("tol.host_app_sbm"),
                          0u)
                    << what;
            }
        }
    }
    EXPECT_GT(rollbacks, 0u) << "no region rolled back";
}

/**
 * @file
 * Unit tests for the region-allocating code cache (first-fit free
 * list, coalescing release, flush), the coherence of its predecoded
 * instructions with its words across chain/unchain patches and reuse,
 * and the IBTC host-range invalidation that region eviction relies on.
 */

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "common/stats.hh"
#include "guest/memory.hh"
#include "host/code_cache.hh"
#include "host/hemu.hh"
#include "tol/registry.hh"

using namespace darco;
using darco::host::CodeCache;
using darco::host::HAsm;
using darco::host::HOp;
using darco::host::IbtcTable;

TEST(CodeCache, AllocFirstFit)
{
    CodeCache cc(100);
    EXPECT_EQ(cc.capacity(), 100u);
    EXPECT_TRUE(cc.hasSpace(100));
    EXPECT_EQ(cc.alloc(40), 0u);
    EXPECT_EQ(cc.alloc(40), 40u);
    EXPECT_EQ(cc.used(), 80u);
    EXPECT_FALSE(cc.hasSpace(40));
    EXPECT_EQ(cc.alloc(40), CodeCache::npos);
    EXPECT_EQ(cc.alloc(20), 80u);
    EXPECT_EQ(cc.used(), 100u);
    EXPECT_FALSE(cc.hasSpace(1));
}

TEST(CodeCache, ReleaseCoalescesNeighbours)
{
    CodeCache cc(100);
    u32 a = cc.alloc(20), b = cc.alloc(20), c = cc.alloc(20);
    u32 d = cc.alloc(40);
    ASSERT_EQ(d, 60u);
    EXPECT_EQ(cc.largestFree(), 0u);

    // Free b: one 20-word hole in the middle.
    cc.release(b, 20);
    EXPECT_EQ(cc.largestFree(), 20u);
    EXPECT_EQ(cc.holeCount(), 1u);

    // Free a: must coalesce with b's hole (predecessor side).
    cc.release(a, 20);
    EXPECT_EQ(cc.largestFree(), 40u);
    EXPECT_EQ(cc.holeCount(), 1u);

    // Free c: must coalesce into one 60-word hole (successor side).
    cc.release(c, 20);
    EXPECT_EQ(cc.largestFree(), 60u);
    EXPECT_EQ(cc.holeCount(), 1u);
    EXPECT_EQ(cc.used(), 40u);

    // A 60-word region now fits exactly where a..c lived.
    EXPECT_EQ(cc.alloc(60), 0u);
}

TEST(CodeCache, FragmentationBlocksLargeAlloc)
{
    CodeCache cc(90);
    u32 a = cc.alloc(30);
    u32 b = cc.alloc(30);
    u32 c = cc.alloc(30);
    (void)a;
    (void)c;
    cc.release(b, 30);
    // 30 free in the middle, but nothing contiguous for 31+.
    EXPECT_TRUE(cc.hasSpace(30));
    EXPECT_FALSE(cc.hasSpace(31));
    EXPECT_EQ(cc.freeWords(), 30u);
}

TEST(CodeCache, InstallCopiesWords)
{
    CodeCache cc(64);
    std::vector<u32> r1{1, 2, 3, 4};
    std::vector<u32> r2{9, 8, 7};
    u32 b1 = cc.install(r1);
    u32 b2 = cc.install(r2);
    ASSERT_NE(b1, CodeCache::npos);
    ASSERT_NE(b2, CodeCache::npos);
    EXPECT_EQ(cc.word(b1 + 2), 3u);
    EXPECT_EQ(cc.word(b2 + 0), 9u);
    cc.setWord(b1 + 2, 42u);
    EXPECT_EQ(cc.word(b1 + 2), 42u);

    // Release r1 and install a region reusing its words.
    cc.release(b1, u32(r1.size()));
    std::vector<u32> r3{5, 5};
    u32 b3 = cc.install(r3);
    EXPECT_EQ(b3, b1); // first fit lands in the freed hole
    EXPECT_EQ(cc.word(b3), 5u);
    EXPECT_EQ(cc.releaseCount(), 1u);
}

TEST(CodeCache, FlushResetsEverything)
{
    CodeCache cc(50);
    cc.alloc(20);
    cc.alloc(20);
    cc.flush();
    EXPECT_EQ(cc.used(), 0u);
    EXPECT_EQ(cc.largestFree(), 50u);
    EXPECT_EQ(cc.flushCount(), 1u);
    EXPECT_EQ(cc.alloc(50), 0u);
}

TEST(IbtcTable, InvalidateHostRange)
{
    IbtcTable t(64);
    t.insert(0x1000, 200);
    t.insert(0x2000, 350);
    t.insert(0x2004, 500);

    // Evicting host words [300, 400) must drop only the 0x2000 entry.
    t.invalidateHostRange(300, 100);
    u32 hp = 0;
    EXPECT_TRUE(t.lookup(0x1000, hp));
    EXPECT_FALSE(t.lookup(0x2000, hp));
    EXPECT_TRUE(t.lookup(0x2004, hp));
}

namespace
{

/** Every word in [base, base+n) matches its predecoded instruction. */
void
expectCoherent(const CodeCache &cc, u32 base, u32 n)
{
    for (u32 i = base; i < base + n; ++i)
        EXPECT_TRUE(cc.insts()[i] == host::hdecode(cc.word(i)))
            << "word " << i;
}

/** `r<rd> = imm; exitb exit_id` as an installed translation. */
u32
addRegion(CodeCache &cc, tol::TranslationRegistry &reg, GAddr entry,
          u8 rd, s32 imm, u32 exit_id)
{
    HAsm a;
    a.emit(HOp::ADDI, rd, 0, 0, imm);
    a.emit(HOp::EXITB, 0, 0, 0, s32(exit_id));
    u32 base = cc.install(a.words());
    EXPECT_NE(base, CodeCache::npos);
    tol::Translation t;
    t.entry = entry;
    t.hostPc = base;
    t.words = a.size();
    t.exitIdBase = exit_id;
    tol::ExitDesc d;
    d.siteWord = base + 1;
    t.exits.push_back(d);
    u32 tid = reg.nextTid();
    EXPECT_EQ(reg.addExit(tol::GlobalExit{tid, 0, false, 0}), exit_id);
    EXPECT_EQ(reg.add(std::move(t)), tid);
    return tid;
}

} // namespace

TEST(CodeCache, InstallRejectsBadOpcode)
{
    CodeCache cc(64);
    EXPECT_THROW(cc.install({0xff00'0000u}), PanicError);
}

TEST(CodeCache, PredecodeFollowsChainUnchainReuseAndFlush)
{
    CodeCache cc(256);
    IbtcTable ibtc(64);
    StatGroup stats("cc");
    tol::TranslationRegistry reg(cc, ibtc, stats);
    guest::PagedMemory mem;
    host::HostEmu emu(cc, mem);

    u32 a = addRegion(cc, reg, 0x1000, 15, 1, 0);
    u32 b = addRegion(cc, reg, 0x2000, 16, 2, 1);
    u32 a_pc = reg.get(a).hostPc, b_pc = reg.get(b).hostPc;
    ASSERT_EQ(b_pc, a_pc + 2);
    expectCoherent(cc, a_pc, 4);

    // Chain a's exit into b: the EXITB site becomes a J.
    reg.chain(a, 0, b);
    EXPECT_EQ(cc.insts()[a_pc + 1].op, HOp::J);
    expectCoherent(cc, a_pc, 4);
    auto e = emu.run(a_pc);
    ASSERT_EQ(e.kind, host::ExitKind::Exit);
    EXPECT_EQ(e.exitId, 1u) << "followed the chain into b";
    EXPECT_EQ(emu.ctx().gpr[16], 2u);

    // Invalidating b unchains a: the same site is an EXITB again.
    reg.invalidate(b);
    EXPECT_EQ(cc.insts()[a_pc + 1].op, HOp::EXITB);
    expectCoherent(cc, a_pc, 2);
    emu.ctx().gpr[16] = 0;
    e = emu.run(a_pc);
    ASSERT_EQ(e.kind, host::ExitKind::Exit);
    EXPECT_EQ(e.exitId, 0u) << "left through the restored EXITB";
    EXPECT_EQ(emu.ctx().gpr[16], 0u);
    EXPECT_TRUE(reg.checkInvariants().empty());

    // b's released words are reused by the next install.
    u32 c = addRegion(cc, reg, 0x3000, 17, 3, 2);
    EXPECT_EQ(reg.get(c).hostPc, b_pc);
    expectCoherent(cc, b_pc, 2);
    e = emu.run(b_pc);
    EXPECT_EQ(e.exitId, 2u);
    EXPECT_EQ(emu.ctx().gpr[17], 3u);

    // After a flush the next install lands on word 0 again.
    cc.flush();
    reg.clear();
    u32 d = addRegion(cc, reg, 0x4000, 18, 4, 0);
    EXPECT_EQ(reg.get(d).hostPc, 0u);
    expectCoherent(cc, 0, 4);
    e = emu.run(0);
    EXPECT_EQ(e.exitId, 0u);
    EXPECT_EQ(emu.ctx().gpr[18], 4u);
}

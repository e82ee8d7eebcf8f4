/**
 * @file
 * IR + optimization-pass unit tests: verifier, constant folding,
 * copy propagation, CSE, DCE, memory optimization, DDG/scheduler,
 * register allocation invariants.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "fuzz/generator.hh"
#include "guest/semantics.hh"
#include "host/hisa.hh"
#include "tol/ddg.hh"
#include "tol/frontend.hh"
#include "tol/ir.hh"
#include "tol/passes.hh"
#include "tol/regalloc.hh"

using namespace darco;
using namespace darco::tol;

namespace
{

/** Tiny builder for hand-made regions. */
struct RB
{
    Region r;

    RB()
    {
        r.entryPc = 0x1000;
        r.mode = RegionMode::SB;
    }

    s32
    inst(IROp op, s32 s1 = -1, s32 s2 = -1)
    {
        IRInst i;
        i.op = op;
        i.src1 = s1;
        i.src2 = s2;
        if (irInfo(op).hasDst)
            i.dst = r.numValues++;
        r.append(i);
        return i.dst;
    }

    s32
    movi(s32 v)
    {
        IRInst i;
        i.op = IROp::Movi;
        i.imm = v;
        i.dst = r.numValues++;
        r.append(i);
        return i.dst;
    }

    s32
    livein(u16 loc)
    {
        IRInst i;
        i.op = IROp::LiveIn;
        i.loc = loc;
        i.dst = r.numValues++;
        r.append(i);
        return i.dst;
    }

    s32
    load(s32 base, s32 disp)
    {
        IRInst i;
        i.op = IROp::Ld32;
        i.src1 = base;
        i.imm = disp;
        i.dst = r.numValues++;
        r.append(i);
        return i.dst;
    }

    void
    store(s32 base, s32 disp, s32 val)
    {
        IRInst i;
        i.op = IROp::St32;
        i.src1 = base;
        i.src2 = val;
        i.imm = disp;
        r.append(i);
    }

    /** Finish with one direct exit carrying the given live-outs. */
    Region &
    finish(std::vector<std::pair<u16, s32>> outs = {})
    {
        IRExit x;
        x.kind = ExitKind::Direct;
        x.target = 0x2000;
        x.liveOuts = std::move(outs);
        r.exits.push_back(x);
        r.finalExit = 0;
        return r;
    }

    std::size_t
    count(IROp op) const
    {
        std::size_t n = 0;
        for (const auto &it : r.items) {
            if (it.kind == IRItem::Kind::Inst && it.inst.op == op)
                ++n;
        }
        return n;
    }
};

} // namespace

TEST(IRVerify, AcceptsValidRegion)
{
    RB b;
    s32 a = b.livein(0);
    s32 c = b.inst(IROp::Add, a, b.movi(5));
    b.finish({{0, c}});
    EXPECT_EQ(verifyRegion(b.r), "");
}

TEST(IRVerify, CatchesDoubleDef)
{
    RB b;
    s32 a = b.movi(1);
    b.finish({{0, a}});
    // Forge a second def of the same value.
    IRInst dup;
    dup.op = IROp::Movi;
    dup.dst = a;
    b.r.items.insert(b.r.items.begin() + 1, IRItem{
        IRItem::Kind::Inst, dup, -1, false, 0});
    EXPECT_NE(verifyRegion(b.r).find("SSA"), std::string::npos);
}

TEST(IRVerify, CatchesUseBeforeDef)
{
    RB b;
    s32 v = b.r.numValues++; // declared, never defined before use
    b.inst(IROp::Add, v, b.movi(1));
    b.finish();
    EXPECT_NE(verifyRegion(b.r).find("undefined"), std::string::npos);
}

TEST(IRVerify, CatchesTypeMismatch)
{
    RB b;
    s32 f = b.inst(IROp::FConst);
    s32 i = b.movi(1);
    b.inst(IROp::Add, f, i); // fp value into int op
    b.finish();
    EXPECT_NE(verifyRegion(b.r).find("type"), std::string::npos);
}

TEST(Passes, ConstantFoldingChains)
{
    RB b;
    s32 a = b.movi(6);
    s32 c = b.movi(7);
    s32 m = b.inst(IROp::Mul, a, c);
    s32 d = b.inst(IROp::Add, m, b.movi(0)); // identity
    b.finish({{0, d}});
    u32 changes = foldConstants(b.r);
    EXPECT_GT(changes, 0u);
    eliminateDeadCode(b.r);
    // Everything should reduce to a single Movi 42 live-out.
    ASSERT_EQ(b.r.items.size(), 1u);
    EXPECT_EQ(b.r.items[0].inst.op, IROp::Movi);
    EXPECT_EQ(b.r.items[0].inst.imm, 42);
}

TEST(Passes, FoldRespectsDivFaults)
{
    RB b;
    s32 a = b.movi(5);
    s32 z = b.movi(0);
    s32 q = b.inst(IROp::Div, a, z); // must NOT fold 5/0
    b.finish({{0, q}});
    foldConstants(b.r);
    EXPECT_EQ(b.count(IROp::Div), 1u);
    // DCE must keep the faulting div even if its result dies.
    b.r.exits[0].liveOuts.clear();
    eliminateDeadCode(b.r);
    EXPECT_EQ(b.count(IROp::Div), 1u);
}

TEST(Passes, ShiftMaskFolding)
{
    RB b;
    s32 a = b.movi(1);
    s32 s = b.movi(33); // masked to 1
    s32 r = b.inst(IROp::Sll, a, s);
    b.finish({{0, r}});
    foldConstants(b.r);
    eliminateDeadCode(b.r);
    ASSERT_EQ(b.r.items.size(), 1u);
    EXPECT_EQ(b.r.items[0].inst.imm, 2);
}

TEST(Passes, CopyPropagation)
{
    RB b;
    s32 a = b.livein(0);
    IRInst mv;
    mv.op = IROp::Mov;
    mv.src1 = a;
    mv.dst = b.r.numValues++;
    b.r.append(mv);
    s32 c = b.inst(IROp::Add, mv.dst, mv.dst);
    b.finish({{1, c}});
    copyPropagate(b.r);
    eliminateDeadCode(b.r);
    EXPECT_EQ(b.count(IROp::Mov), 0u);
    // The add now reads the livein directly.
    for (const auto &it : b.r.items) {
        if (it.inst.op == IROp::Add) {
            EXPECT_EQ(it.inst.src1, a);
            EXPECT_EQ(it.inst.src2, a);
        }
    }
}

TEST(Passes, CseDeduplicates)
{
    RB b;
    s32 a = b.livein(0);
    s32 x1 = b.inst(IROp::Add, a, a);
    s32 x2 = b.inst(IROp::Add, a, a); // same expression
    s32 y = b.inst(IROp::Xor, x1, x2);
    b.finish({{0, y}});
    u32 n = eliminateCommonSubexprs(b.r);
    EXPECT_EQ(n, 1u);
    eliminateDeadCode(b.r);
    EXPECT_EQ(b.count(IROp::Add), 1u);
    // x ^ x after CSE: both operands are the same value id.
    for (const auto &it : b.r.items) {
        if (it.inst.op == IROp::Xor)
            EXPECT_EQ(it.inst.src1, it.inst.src2);
    }
}

TEST(Passes, CseKeepsImpureOps)
{
    RB b;
    s32 base = b.livein(0);
    s32 l1 = b.load(base, 0);
    s32 l2 = b.load(base, 0); // loads are NOT CSE'd (memory pass owns them)
    s32 y = b.inst(IROp::Add, l1, l2);
    b.finish({{0, y}});
    eliminateCommonSubexprs(b.r);
    EXPECT_EQ(b.count(IROp::Ld32), 2u);
}

TEST(Passes, DeadFlagComputationRemoved)
{
    // Models the paper's dead-flag elimination: OF computation chain
    // is dead when nothing consumes it.
    RB b;
    s32 a = b.livein(0);
    s32 c = b.livein(1);
    s32 r = b.inst(IROp::Add, a, c);
    s32 t1 = b.inst(IROp::Xor, a, c);
    s32 t2 = b.inst(IROp::Xor, a, r);
    s32 t3 = b.inst(IROp::And, t1, t2);
    s32 of = b.inst(IROp::Srl, t3, b.movi(31));
    (void)of; // never used
    b.finish({{0, r}});
    eliminateDeadCode(b.r);
    EXPECT_EQ(b.count(IROp::Xor), 0u);
    EXPECT_EQ(b.count(IROp::And), 0u);
    EXPECT_EQ(b.count(IROp::Srl), 0u);
    EXPECT_EQ(b.count(IROp::Add), 1u);
}

TEST(MemOpt, StoreToLoadForwarding)
{
    RB b;
    s32 base = b.livein(0);
    s32 v = b.movi(42);
    b.store(base, 8, v);
    s32 l = b.load(base, 8);
    s32 y = b.inst(IROp::Add, l, l);
    b.finish({{1, y}});
    u32 n = optimizeMemory(b.r);
    EXPECT_EQ(n, 1u);
    EXPECT_EQ(b.count(IROp::Ld32), 0u) << "load forwarded away";
    EXPECT_EQ(b.count(IROp::St32), 1u) << "store remains";
}

TEST(MemOpt, RedundantLoadElimination)
{
    RB b;
    s32 base = b.livein(0);
    s32 l1 = b.load(base, 4);
    s32 l2 = b.load(base, 4);
    s32 y = b.inst(IROp::Add, l1, l2);
    b.finish({{1, y}});
    EXPECT_EQ(optimizeMemory(b.r), 1u);
    EXPECT_EQ(b.count(IROp::Ld32), 1u);
}

TEST(MemOpt, MayAliasBlocksForwarding)
{
    RB b;
    s32 base = b.livein(0);
    s32 other = b.livein(1);
    s32 v = b.movi(1);
    b.store(base, 0, v);
    b.store(other, 0, v); // may alias [base]
    s32 l = b.load(base, 0);
    b.finish({{2, l}});
    EXPECT_EQ(optimizeMemory(b.r), 0u);
    EXPECT_EQ(b.count(IROp::Ld32), 1u);
}

TEST(MemOpt, DeadStoreElimination)
{
    RB b;
    s32 base = b.livein(0);
    b.store(base, 0, b.movi(1)); // dead: overwritten below
    b.store(base, 0, b.movi(2));
    b.finish();
    EXPECT_EQ(optimizeMemory(b.r), 1u);
    EXPECT_EQ(b.count(IROp::St32), 1u);
}

TEST(MemOpt, InterveningLoadProtectsStore)
{
    RB b;
    s32 base = b.livein(0);
    b.store(base, 0, b.movi(1));
    s32 l = b.load(base, 0); // reads the first store
    b.store(base, 0, b.movi(2));
    b.finish({{1, l}});
    optimizeMemory(b.r);
    // First store forwarded to the load is fine, but it must not be
    // eliminated as dead before the load reads it... after forwarding
    // the load dies, making DSE of store1 legal. Either way the final
    // value at [base] must come from store2 and the live-out must be 1.
    bool liveout_is_one = false;
    for (const auto &it : b.r.items) {
        if (it.inst.op == IROp::Movi && it.inst.imm == 1 &&
            it.inst.dst == b.r.exits[0].liveOuts[0].second) {
            liveout_is_one = true;
        }
    }
    EXPECT_TRUE(liveout_is_one);
}

TEST(Ddg, ValueDependenciesRespected)
{
    RB b;
    s32 a = b.movi(1);
    s32 c = b.inst(IROp::Add, a, a);
    s32 d = b.inst(IROp::Add, c, c);
    b.finish({{0, d}});
    DDG g = buildDDG(b.r);
    // movi -> add -> add chain: priorities strictly decreasing.
    EXPECT_GT(g.priority[0], g.priority[1]);
    EXPECT_GT(g.priority[1], g.priority[2]);
}

TEST(Ddg, StoreLoadMayAliasIsBreakable)
{
    RB b;
    s32 base = b.livein(0);
    s32 other = b.livein(1);
    b.store(base, 0, b.movi(7));
    s32 l = b.load(other, 0); // may alias
    b.finish({{2, l}});
    DDG g = buildDDG(b.r);
    bool found_breakable = false;
    for (const auto &e : g.succs)
        found_breakable |= e.breakable;
    EXPECT_TRUE(found_breakable);
}

TEST(Sched, HoistsMayAliasLoadSpeculatively)
{
    RB b;
    s32 base = b.livein(0);
    s32 other = b.livein(1);
    b.store(base, 0, b.movi(7));
    s32 l = b.load(other, 0);
    // Long dependent chain on the load makes it critical.
    s32 x = l;
    for (int k = 0; k < 6; ++k)
        x = b.inst(IROp::Add, x, x);
    b.finish({{2, x}});

    SchedOptions so;
    so.speculateMem = true;
    u32 spec = scheduleRegion(b.r, so);
    EXPECT_EQ(spec, 1u);
    // The load now precedes the store and is marked speculative.
    std::size_t load_at = 0, store_at = 0;
    for (std::size_t k = 0; k < b.r.items.size(); ++k) {
        const IRInst &i = b.r.items[k].inst;
        if (i.op == IROp::Ld32) {
            load_at = k;
            EXPECT_TRUE(i.speculative);
        }
        if (i.op == IROp::St32)
            store_at = k;
    }
    EXPECT_LT(load_at, store_at);
}

TEST(Sched, NoSpeculationWhenDisabled)
{
    RB b;
    s32 base = b.livein(0);
    s32 other = b.livein(1);
    b.store(base, 0, b.movi(7));
    s32 l = b.load(other, 0);
    b.finish({{2, l}});
    SchedOptions so;
    so.speculateMem = false;
    EXPECT_EQ(scheduleRegion(b.r, so), 0u);
    // Order preserved: store before load.
    std::size_t load_at = 0, store_at = 0;
    for (std::size_t k = 0; k < b.r.items.size(); ++k) {
        const IRInst &i = b.r.items[k].inst;
        if (i.op == IROp::Ld32)
            load_at = k;
        if (i.op == IROp::St32)
            store_at = k;
    }
    EXPECT_LT(store_at, load_at);
}

TEST(Sched, PreservesSsaAndExits)
{
    RB b;
    s32 a = b.livein(0);
    s32 base = b.livein(1);
    s32 v1 = b.inst(IROp::Add, a, b.movi(1));
    b.store(base, 0, v1);
    s32 v2 = b.inst(IROp::Mul, v1, v1);
    s32 l = b.load(base, 0);
    s32 v3 = b.inst(IROp::Xor, v2, l);
    b.finish({{0, v3}});
    scheduleRegion(b.r, SchedOptions{});
    EXPECT_EQ(verifyRegion(b.r), "") << dumpRegion(b.r);
}

TEST(Regalloc, DisjointLiveRangesShareRegisters)
{
    RB b;
    s32 prev = b.movi(0);
    // 40 sequential short-lived values: far more than 17 temps, but
    // linear scan must fit them without spilling.
    for (int k = 0; k < 40; ++k)
        prev = b.inst(IROp::Add, prev, b.movi(k));
    b.finish({{0, prev}});
    Allocation a = allocateRegisters(b.r);
    EXPECT_EQ(a.spillCount, 0u);
}

TEST(Regalloc, SpillsWhenPressureExceedsPool)
{
    RB b;
    std::vector<s32> vals;
    for (int k = 0; k < 25; ++k)
        vals.push_back(b.movi(k)); // all live to the end
    s32 acc = vals[0];
    for (int k = 1; k < 25; ++k)
        acc = b.inst(IROp::Add, acc, vals[k]);
    b.finish({{0, acc}});
    Allocation a = allocateRegisters(b.r);
    EXPECT_GT(a.spillCount, 0u);
    // No two simultaneously-live values share a register.
    // (Spot check: every Reg-allocated value has a distinct reg among
    // the long-lived initial movis that remained in registers.)
    std::vector<bool> seen(32, false);
    int reg_allocated = 0;
    for (s32 v : vals) {
        const ValueLoc &l = a.val[v];
        if (l.kind == ValueLoc::Kind::Reg) {
            EXPECT_FALSE(seen[l.reg])
                << "register " << int(l.reg) << " double-booked";
            seen[l.reg] = true;
            ++reg_allocated;
        }
    }
    EXPECT_GT(reg_allocated, 10);
}

TEST(Regalloc, LiveInsPinnedToMappedRegs)
{
    RB b;
    s32 g0 = b.livein(0);  // guest r0 -> host r1
    s32 g7 = b.livein(7);  // guest r7 -> host r8
    s32 f0 = b.livein(12); // guest f0 -> host f0
    s32 s = b.inst(IROp::Add, g0, g7);
    s32 f = b.inst(IROp::FAdd, f0, f0);
    b.finish({{0, s}, {12, f}});
    Allocation a = allocateRegisters(b.r);
    EXPECT_EQ(a.val[g0].kind, ValueLoc::Kind::Reg);
    EXPECT_EQ(a.val[g0].reg, 1);
    EXPECT_EQ(a.val[g7].reg, 8);
    EXPECT_EQ(a.val[f0].reg, 0);
    EXPECT_TRUE(a.val[f0].fp);
}

// ---------------------------------------------------------------------
// The translator's kernels against their quadratic originals
// ---------------------------------------------------------------------
//
// buildDDG, scheduleRegion and allocateRegisters were rewritten for
// speed (flat edge arrays, a ready heap, an expiry bound) under the
// rule that nothing they compute may change. The originals live on
// here as oracles, and both run over regions the frontend builds from
// seeded fuzz programs.

namespace
{
namespace oracle
{

struct Edge
{
    u32 to;
    u8 latency;
    bool breakable;
};

struct Graph
{
    std::vector<std::vector<Edge>> succs;
    std::vector<u32> predCount;
    std::vector<u32> breakablePreds;
    std::vector<u32> priority;
    u64 edgeCount = 0;
};

Graph
buildGraph(const Region &r)
{
    const std::size_t n = r.items.size();
    Graph g;
    g.succs.resize(n);
    g.predCount.assign(n, 0);
    g.breakablePreds.assign(n, 0);
    g.priority.assign(n, 0);

    auto addEdge = [&](std::size_t from, std::size_t to, u8 lat,
                       bool breakable) {
        g.succs[from].push_back(Edge{u32(to), lat, breakable});
        if (breakable)
            ++g.breakablePreds[to];
        else
            ++g.predCount[to];
        ++g.edgeCount;
    };

    std::vector<s32> defSite(r.numValues, -1);
    for (std::size_t k = 0; k < n; ++k) {
        if (r.items[k].kind == IRItem::Kind::Inst &&
            r.items[k].inst.dst >= 0) {
            defSite[r.items[k].inst.dst] = s32(k);
        }
    }
    auto valueDep = [&](std::size_t user, s32 v) {
        if (v < 0)
            return;
        s32 d = defSite[v];
        if (d >= 0)
            addEdge(std::size_t(d), user, irLatency(r.items[d].inst.op),
                    false);
    };

    std::vector<std::size_t> memOps, condExits, asserts;
    for (std::size_t k = 0; k < n; ++k) {
        const IRItem &it = r.items[k];
        if (it.kind == IRItem::Kind::CondExit) {
            valueDep(k, it.cond);
            for (auto [loc, v] : r.exits[it.exitIdx].liveOuts)
                valueDep(k, v);
            valueDep(k, r.exits[it.exitIdx].targetVal);
            for (std::size_t m : memOps) {
                if (irInfo(r.items[m].inst.op).isStore)
                    addEdge(m, k, 1, false);
            }
            for (std::size_t c : condExits)
                addEdge(c, k, 1, false);
            for (std::size_t a : asserts)
                addEdge(a, k, 1, false);
            condExits.push_back(k);
            continue;
        }
        const IRInst &i = it.inst;
        valueDep(k, i.src1);
        if (!i.src2Imm)
            valueDep(k, i.src2);
        if (i.op == IROp::Assert) {
            asserts.push_back(k);
            continue;
        }
        const IROpInfo &oi = irInfo(i.op);
        if (oi.isLoad || oi.isStore) {
            for (std::size_t m : memOps) {
                const IRInst &prev = r.items[m].inst;
                const IROpInfo &pi = irInfo(prev.op);
                if (!pi.isStore && !oi.isStore)
                    continue;
                Alias al = aliasCheck(i, prev);
                if (al == Alias::Never)
                    continue;
                if (pi.isStore && oi.isLoad)
                    addEdge(m, k, 1, al == Alias::May);
                else
                    addEdge(m, k, 1, false);
            }
            if (oi.isStore) {
                for (std::size_t c : condExits)
                    addEdge(c, k, 1, false);
            }
            memOps.push_back(k);
        }
    }

    for (std::size_t k = n; k-- > 0;) {
        u32 best = 0;
        for (const Edge &e : g.succs[k]) {
            if (!e.breakable)
                best = std::max(best, g.priority[e.to] + e.latency);
        }
        g.priority[k] = best;
    }
    return g;
}

u32
schedule(Region &r, const SchedOptions &opts)
{
    if (!opts.enable || r.items.size() < 2)
        return 0;
    Graph g = buildGraph(r);
    const std::size_t n = r.items.size();
    std::vector<u32> pred = g.predCount;
    std::vector<u32> bpred = g.breakablePreds;
    std::vector<bool> scheduled(n, false);
    std::vector<IRItem> out;
    u32 speculated = 0;

    auto canSpeculate = [&](std::size_t k) {
        if (!opts.speculateMem)
            return false;
        const IRItem &it = r.items[k];
        if (it.kind != IRItem::Kind::Inst)
            return false;
        return it.inst.op == IROp::Ld32 || it.inst.op == IROp::FLd;
    };

    for (std::size_t step = 0; step < n; ++step) {
        s32 best = -1;
        bool bestSpec = false;
        for (std::size_t k = 0; k < n; ++k) {
            if (scheduled[k] || pred[k] != 0)
                continue;
            bool needsBreak = bpred[k] != 0;
            if (needsBreak && !canSpeculate(k))
                continue;
            if (best < 0 || g.priority[k] > g.priority[best] ||
                (g.priority[k] == g.priority[best] &&
                 k < std::size_t(best))) {
                best = s32(k);
                bestSpec = needsBreak;
            }
        }
        if (best < 0)
            throw std::runtime_error("oracle scheduler deadlock");
        std::size_t k = std::size_t(best);
        scheduled[k] = true;
        IRItem item = r.items[k];
        if (bestSpec) {
            item.inst.speculative = true;
            ++speculated;
            for (std::size_t s2 = 0; s2 < n; ++s2) {
                if (scheduled[s2])
                    continue;
                for (const Edge &e : g.succs[s2]) {
                    if (e.to == k && e.breakable)
                        r.items[s2].inst.speculative = true;
                }
            }
        }
        out.push_back(item);
        for (const Edge &e : g.succs[k]) {
            if (scheduled[e.to])
                continue;
            if (e.breakable)
                --bpred[e.to];
            else
                --pred[e.to];
        }
    }
    r.items = std::move(out);
    return speculated;
}

Allocation
allocate(const Region &r)
{
    const std::size_t n = r.items.size();
    Allocation a;
    a.val.resize(r.numValues);
    std::vector<s32> lastUse(r.numValues, -1);
    std::vector<bool> isFp(r.numValues, false);
    auto use = [&](s32 v, s32 at) {
        if (v >= 0)
            lastUse[v] = std::max(lastUse[v], at);
    };
    std::vector<bool> exitSeen(r.exits.size(), false);
    for (std::size_t k = 0; k < n; ++k) {
        const IRItem &it = r.items[k];
        if (it.kind == IRItem::Kind::CondExit) {
            use(it.cond, s32(k));
            const IRExit &x = r.exits[it.exitIdx];
            for (auto [loc, v] : x.liveOuts)
                use(v, s32(k));
            use(x.targetVal, s32(k));
            exitSeen[it.exitIdx] = true;
            continue;
        }
        const IRInst &i = it.inst;
        use(i.src1, s32(k));
        if (!i.src2Imm)
            use(i.src2, s32(k));
        if (i.dst >= 0) {
            isFp[i.dst] = irInfo(i.op).fpDst ||
                          (i.op == IROp::LiveIn && locIsFp(i.loc));
            if (i.op == IROp::Mov && i.src1 >= 0)
                isFp[i.dst] = isFp[i.src1];
        }
    }
    for (std::size_t e = 0; e < r.exits.size(); ++e) {
        if (exitSeen[e])
            continue;
        const IRExit &x = r.exits[e];
        for (auto [loc, v] : x.liveOuts)
            use(v, s32(n));
        use(x.targetVal, s32(n));
    }
    auto mappedReg = [](u16 loc) {
        if (loc < 8)
            return u8(host::regmap::guestGprBase + loc);
        if (loc < 12)
            return u8(host::regmap::flagZ + (loc - 8));
        return u8(host::regmap::guestFprBase + (loc - 12));
    };
    for (std::size_t k = 0; k < n; ++k) {
        const IRItem &it = r.items[k];
        if (it.kind == IRItem::Kind::Inst &&
            it.inst.op == IROp::LiveIn) {
            ValueLoc &vl = a.val[it.inst.dst];
            vl.kind = ValueLoc::Kind::Reg;
            vl.reg = mappedReg(it.inst.loc);
            vl.fp = locIsFp(it.inst.loc);
        }
    }

    struct Active
    {
        s32 value;
        s32 lastUse;
        u8 reg;
    };
    std::vector<u8> freeInt, freeFp;
    for (u8 g = 31; g >= host::regmap::tempBase; --g)
        freeInt.push_back(g);
    for (u8 f = 29; f >= host::regmap::ftempBase; --f)
        freeFp.push_back(f);
    std::vector<Active> activeInt, activeFp;
    auto expire = [&](std::vector<Active> &act, std::vector<u8> &pool,
                      s32 now) {
        for (std::size_t j = 0; j < act.size();) {
            if (act[j].lastUse < now) {
                pool.push_back(act[j].reg);
                act[j] = act.back();
                act.pop_back();
            } else {
                ++j;
            }
        }
    };
    for (std::size_t k = 0; k < n; ++k) {
        const IRItem &it = r.items[k];
        if (it.kind != IRItem::Kind::Inst)
            continue;
        const IRInst &i = it.inst;
        if (i.dst < 0 || i.op == IROp::LiveIn || lastUse[i.dst] < 0)
            continue;
        const bool fp = isFp[i.dst];
        auto &pool = fp ? freeFp : freeInt;
        auto &act = fp ? activeFp : activeInt;
        expire(act, pool, s32(k));
        ValueLoc &vl = a.val[i.dst];
        vl.fp = fp;
        if (!pool.empty()) {
            vl.kind = ValueLoc::Kind::Reg;
            vl.reg = pool.back();
            pool.pop_back();
            act.push_back(Active{i.dst, lastUse[i.dst], vl.reg});
            continue;
        }
        std::size_t victim = act.size();
        s32 far = lastUse[i.dst];
        for (std::size_t j = 0; j < act.size(); ++j) {
            if (act[j].lastUse > far) {
                far = act[j].lastUse;
                victim = j;
            }
        }
        if (victim == act.size()) {
            vl.kind = ValueLoc::Kind::Spill;
            vl.slot = a.spillSlots++;
            ++a.spillCount;
        } else {
            ValueLoc &ev = a.val[act[victim].value];
            u8 reg = act[victim].reg;
            ev.kind = ValueLoc::Kind::Spill;
            ev.slot = a.spillSlots++;
            ++a.spillCount;
            vl.kind = ValueLoc::Kind::Reg;
            vl.reg = reg;
            act[victim] = Active{i.dst, lastUse[i.dst], reg};
        }
    }
    return a;
}

} // namespace oracle

/** A translation path with its construction inputs. */
struct CorpusPath
{
    GAddr entry;
    RegionMode mode;
    std::vector<PathElem> path;
    std::optional<Frontend::EndSpec> end;
};

/**
 * Straight-line paths through a seeded fuzz program, read in code
 * order: every basic block (BB mode), and runs of up to four blocks
 * joined at conditional branches, which become side exits or asserts
 * (SB mode).
 */
std::vector<CorpusPath>
fuzzPaths(u64 seed)
{
    fuzz::GenParams gp;
    gp.seed = seed;
    const guest::Program prog = fuzz::generate(gp);
    guest::PagedMemory mem;
    prog.load(mem);

    struct Block
    {
        std::vector<PathElem> elems;
        std::optional<Frontend::EndSpec> end; //!< no CTI at the end
    };
    std::vector<Block> blocks;
    const GAddr codeEnd = guest::Program::codeAddr(prog.code.size());
    GAddr pc = guest::layout::codeBase;
    while (pc < codeEnd) {
        Block b;
        GAddr at = pc;
        try {
            while (at < codeEnd && b.elems.size() < 64) {
                guest::GInst gi = guest::fetchInst(mem, at);
                if (gi.rep) {
                    b.end = Frontend::EndSpec{ExitKind::Interp, at};
                    at += gi.length; // the REP op itself stays in IM
                    break;
                }
                b.elems.push_back(PathElem{gi, at, BranchDisp::Final});
                at += gi.length;
                if (gi.isCti())
                    break;
            }
        } catch (const guest::GuestFault &) {
            break; // data bytes: the rest is not code
        }
        if (!b.elems.empty() && !b.end && !b.elems.back().inst.isCti())
            b.end = Frontend::EndSpec{ExitKind::Interp, at};
        if (!b.elems.empty())
            blocks.push_back(std::move(b));
        pc = at;
    }

    std::vector<CorpusPath> out;
    for (const Block &b : blocks)
        out.push_back({b.elems.front().pc, RegionMode::BB, b.elems, b.end});
    for (std::size_t s = 0; s < blocks.size(); ++s) {
        CorpusPath p{blocks[s].elems.front().pc, RegionMode::SB, {}, {}};
        for (std::size_t k = s; k < blocks.size() && k < s + 4; ++k) {
            const Block &b = blocks[k];
            p.path.insert(p.path.end(), b.elems.begin(), b.elems.end());
            p.end = b.end;
            const guest::GOp last = b.elems.back().inst.op;
            const bool jcc = last == guest::GOp::JCC_REL8 ||
                             last == guest::GOp::JCC_REL32;
            if (b.end || !jcc || k + 1 == std::min(blocks.size(), s + 4))
                break;
            // Continue on the fall-through, alternating how the branch
            // leaves: a side exit, or an assert the scheduler may hoist.
            p.path.back().disp = (k + seed) % 2 ? BranchDisp::ExitTaken
                                                : BranchDisp::AssertNotTaken;
        }
        out.push_back(std::move(p));
    }
    return out;
}

/** The passes Tol::prepare runs before scheduling. */
void
optimize(Region &r)
{
    foldConstants(r);
    if (r.mode == RegionMode::SB) {
        copyPropagate(r);
        eliminateCommonSubexprs(r);
        eliminateDeadCode(r);
        optimizeMemory(r);
    }
    eliminateDeadCode(r);
}

/** Every field of two items, as a readable mismatch or "". */
std::string
itemDiff(const IRItem &a, const IRItem &b)
{
    const IRInst &x = a.inst, &y = b.inst;
    std::ostringstream os;
    if (a.kind != b.kind || a.cond != b.cond ||
        a.condInvert != b.condInvert || a.exitIdx != b.exitIdx)
        os << "exit fields differ; ";
    if (x.op != y.op || x.dst != y.dst || x.src1 != y.src1 ||
        x.src2 != y.src2 || x.src2Imm != y.src2Imm || x.imm != y.imm ||
        x.loc != y.loc || std::memcmp(&x.fimm, &y.fimm, 8) != 0 ||
        x.guestPc != y.guestPc || x.assertId != y.assertId ||
        x.expectNonZero != y.expectNonZero)
        os << "instruction fields differ; ";
    if (x.speculative != y.speculative)
        os << "speculative " << x.speculative << " vs " << y.speculative;
    return os.str();
}

} // namespace

TEST(TranslatorKernels, MatchTheirOriginalsOnFuzzRegions)
{
    u64 regions = 0, speculated = 0, spilled = 0;
    for (u64 seed = 1; seed <= 64; ++seed) {
        for (const CorpusPath &cp : fuzzPaths(seed)) {
            for (int variant = 0; variant < 4; ++variant) {
                const bool opt = variant & 1;
                SchedOptions so;
                so.speculateMem = variant & 2;
                Frontend fe;
                Region r = fe.build(cp.entry, cp.mode, cp.path,
                                    std::nullopt, cp.end);
                if (opt)
                    optimize(r);
                const std::string where =
                    "seed " + std::to_string(seed) + " entry " +
                    std::to_string(cp.entry) + " variant " +
                    std::to_string(variant);
                ++regions;

                DDG g = buildDDG(r);
                oracle::Graph og = oracle::buildGraph(r);
                ASSERT_EQ(g.predCount, og.predCount) << where;
                ASSERT_EQ(g.breakablePreds, og.breakablePreds) << where;
                ASSERT_EQ(g.priority, og.priority) << where;
                ASSERT_EQ(g.edgeCount, og.edgeCount) << where;
                for (std::size_t k = 0; k < og.succs.size(); ++k) {
                    ASSERT_EQ(g.succBegin[k + 1] - g.succBegin[k],
                              og.succs[k].size())
                        << where << " item " << k;
                    for (std::size_t j = 0; j < og.succs[k].size(); ++j) {
                        const DDGEdge &e = g.succs[g.succBegin[k] + j];
                        const oracle::Edge &o = og.succs[k][j];
                        ASSERT_TRUE(e.node == o.to &&
                                    e.latency == o.latency &&
                                    e.breakable == o.breakable)
                            << where << " item " << k << " edge " << j;
                    }
                }

                // Unscheduled, then scheduled: allocation over both
                // item orders.
                for (int pass = 0; pass < 2; ++pass) {
                    if (pass == 1) {
                        Region mine = r;
                        const u32 spec = scheduleRegion(mine, so);
                        const u32 ospec = oracle::schedule(r, so);
                        ASSERT_EQ(spec, ospec) << where;
                        ASSERT_EQ(mine.items.size(), r.items.size());
                        for (std::size_t k = 0; k < r.items.size(); ++k)
                            ASSERT_EQ(itemDiff(mine.items[k], r.items[k]),
                                      "")
                                << where << " item " << k;
                        speculated += spec;
                    }
                    Allocation a = allocateRegisters(r);
                    Allocation oa = oracle::allocate(r);
                    ASSERT_EQ(a.spillSlots, oa.spillSlots) << where;
                    ASSERT_EQ(a.spillCount, oa.spillCount) << where;
                    ASSERT_EQ(a.val.size(), oa.val.size()) << where;
                    for (std::size_t v = 0; v < a.val.size(); ++v) {
                        const ValueLoc &x = a.val[v], &y = oa.val[v];
                        ASSERT_TRUE(x.kind == y.kind && x.reg == y.reg &&
                                    x.slot == y.slot && x.fp == y.fp)
                            << where << " pass " << pass << " v" << v;
                    }
                    spilled += a.spillCount;
                }
            }
        }
    }
    // The corpus must reach the paths the rewrites changed.
    EXPECT_GT(regions, 5000u);
    EXPECT_GT(speculated, 500u);
    EXPECT_GT(spilled, 200u);
}

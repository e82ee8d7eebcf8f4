#include "tol/ddg.hh"

#include <algorithm>

#include "common/logging.hh"
#include "tol/passes.hh"

namespace darco::tol
{

u8
irLatency(IROp op)
{
    switch (op) {
      case IROp::Mul:
      case IROp::MulH:
        return 3;
      case IROp::Div:
      case IROp::Rem:
        return 12;
      case IROp::Ld8u:
      case IROp::Ld8s:
      case IROp::Ld16u:
      case IROp::Ld16s:
      case IROp::Ld32:
      case IROp::FLd:
        return 3;
      case IROp::FAdd:
      case IROp::FSub:
      case IROp::FCvtWD:
      case IROp::FCvtZW:
      case IROp::FRnd:
        return 3;
      case IROp::FMul:
        return 4;
      case IROp::FDiv:
      case IROp::FSqrt:
        return 12;
      default:
        return 1;
    }
}

DDG
buildDDG(const Region &r)
{
    const std::size_t n = r.items.size();
    DDG g;
    g.predBegin.reserve(n + 1);
    g.predCount.assign(n, 0);
    g.breakablePreds.assign(n, 0);
    g.priority.assign(n, 0);

    // Every edge ends at the item being scanned, so the scan lays out
    // each item's predecessor edges together, in item order.
    std::size_t k = 0;
    auto addEdge = [&](std::size_t from, u8 lat, bool breakable) {
        g.preds.push_back(DDGEdge{u32(from), lat, breakable});
        if (breakable)
            ++g.breakablePreds[k];
        else
            ++g.predCount[k];
    };

    // Value definition sites.
    std::vector<s32> defSite(r.numValues, -1);
    for (std::size_t d = 0; d < n; ++d) {
        if (r.items[d].kind == IRItem::Kind::Inst &&
            r.items[d].inst.dst >= 0) {
            defSite[r.items[d].inst.dst] = s32(d);
        }
    }

    auto valueDep = [&](s32 v) {
        if (v < 0)
            return;
        s32 d = defSite[v];
        if (d >= 0)
            addEdge(std::size_t(d), irLatency(r.items[d].inst.op), false);
    };

    std::vector<std::size_t> memOps;
    std::vector<std::size_t> condExits;
    std::vector<std::size_t> asserts;

    for (; k < n; ++k) {
        g.predBegin.push_back(u32(g.preds.size()));
        const IRItem &it = r.items[k];
        if (it.kind == IRItem::Kind::CondExit) {
            valueDep(it.cond);
            // Live-out values must be computed before the exit.
            for (auto [loc, v] : r.exits[it.exitIdx].liveOuts)
                valueDep(v);
            valueDep(r.exits[it.exitIdx].targetVal);
            // Order with earlier memory ops: stores cannot sink below,
            // and the exit cannot hoist above a store that precedes it
            // (the committed state must include it).
            for (std::size_t m : memOps) {
                if (irInfo(r.items[m].inst.op).isStore)
                    addEdge(m, 1, false);
            }
            // Preserve order among side exits.
            for (std::size_t c : condExits)
                addEdge(c, 1, false);
            // Asserts must not sink below a later side exit; record
            // and wire when the exit appears.
            for (std::size_t a : asserts)
                addEdge(a, 1, false);
            condExits.push_back(k);
            continue;
        }

        const IRInst &i = it.inst;
        valueDep(i.src1);
        if (!i.src2Imm)
            valueDep(i.src2);

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
                    continue; // load-load: no ordering
                Alias al = aliasCheck(i, prev);
                if (al == Alias::Never)
                    continue;
                if (pi.isStore && oi.isLoad) {
                    // store -> load: breakable when only may-alias.
                    addEdge(m, 1, al == Alias::May);
                } else {
                    // store->store or load->store: fixed order.
                    addEdge(m, 1, false);
                }
            }
            // Stores may not hoist above an earlier side exit.
            if (oi.isStore) {
                for (std::size_t c : condExits)
                    addEdge(c, 1, false);
            }
            memOps.push_back(k);
        }
    }
    g.predBegin.push_back(u32(g.preds.size()));
    g.edgeCount = g.preds.size();

    // The successor side: count each item's out-edges, then place
    // them (a counting sort by source).
    g.succBegin.assign(n + 1, 0);
    for (const DDGEdge &e : g.preds)
        ++g.succBegin[e.node + 1];
    for (std::size_t j = 0; j < n; ++j)
        g.succBegin[j + 1] += g.succBegin[j];
    g.succs.resize(g.preds.size());
    std::vector<u32> fill(g.succBegin.begin(), g.succBegin.end() - 1);
    for (std::size_t to = 0; to < n; ++to) {
        for (u32 j = g.predBegin[to]; j < g.predBegin[to + 1]; ++j) {
            const DDGEdge &e = g.preds[j];
            g.succs[fill[e.node]++] =
                DDGEdge{u32(to), e.latency, e.breakable};
        }
    }

    // Critical-path priorities (reverse item order; edges point
    // forward, so an item's height is final before its predecessors
    // take it). Breakable edges are excluded: they are exactly the
    // edges speculation can cut, and including them would make every
    // store outrank the loads it blocks.
    for (std::size_t to = n; to-- > 0;) {
        for (u32 j = g.predBegin[to]; j < g.predBegin[to + 1]; ++j) {
            const DDGEdge &e = g.preds[j];
            if (!e.breakable)
                g.priority[e.node] = std::max(
                    g.priority[e.node], g.priority[to] + e.latency);
        }
    }
    return g;
}

u32
scheduleRegion(Region &r, const SchedOptions &opts)
{
    if (!opts.enable || r.items.size() < 2)
        return 0;

    DDG g = buildDDG(r);
    const std::size_t n = r.items.size();

    std::vector<u32> &pred = g.predCount;
    std::vector<u32> &bpred = g.breakablePreds;
    std::vector<bool> scheduled(n, false);
    std::vector<IRItem> out;
    out.reserve(n);
    u32 speculated = 0;

    auto canSpeculate = [&](std::size_t k) {
        if (!opts.speculateMem)
            return false;
        const IRItem &it = r.items[k];
        if (it.kind != IRItem::Kind::Inst)
            return false;
        // Only word/double loads have speculative host encodings.
        return it.inst.op == IROp::Ld32 || it.inst.op == IROp::FLd;
    };

    // The ready items, best on top: highest priority, then lowest
    // index. An item is ready once it has no unbreakable predecessor
    // left and either no breakable one or it is a load that may be
    // hoisted across them (spec-ready). Counts only fall, so an item
    // enters once and stays ready until it is picked.
    auto worse = [&](u32 a, u32 b) {
        return g.priority[a] < g.priority[b] ||
               (g.priority[a] == g.priority[b] && a > b);
    };
    std::vector<u32> ready;
    auto push = [&](u32 k) {
        ready.push_back(k);
        std::push_heap(ready.begin(), ready.end(), worse);
    };
    for (std::size_t k = 0; k < n; ++k) {
        if (pred[k] == 0 && (bpred[k] == 0 || canSpeculate(k)))
            push(u32(k));
    }

    for (std::size_t step = 0; step < n; ++step) {
        darco_assert(!ready.empty(), "scheduler deadlock");
        std::pop_heap(ready.begin(), ready.end(), worse);
        const u32 k = ready.back();
        ready.pop_back();
        scheduled[k] = true;
        IRItem item = r.items[k];
        if (bpred[k] != 0) {
            item.inst.speculative = true;
            ++speculated;
            // Every store this load was hoisted across must run the
            // alias check (the paper's sequence-number discipline,
            // resolved statically here).
            for (u32 j = g.predBegin[k]; j < g.predBegin[k + 1]; ++j) {
                const DDGEdge &e = g.preds[j];
                if (e.breakable && !scheduled[e.node])
                    r.items[e.node].inst.speculative = true;
            }
        }
        out.push_back(item);
        for (u32 j = g.succBegin[k]; j < g.succBegin[k + 1]; ++j) {
            const DDGEdge &e = g.succs[j];
            const u32 to = e.node;
            if (scheduled[to])
                continue; // already hoisted past this edge
            if (e.breakable) {
                // Ready now unless it was already spec-ready.
                if (--bpred[to] == 0 && pred[to] == 0 &&
                    !canSpeculate(to))
                    push(to);
            } else if (--pred[to] == 0 &&
                       (bpred[to] == 0 || canSpeculate(to))) {
                push(to);
            }
        }
    }

    r.items = std::move(out);
    return speculated;
}

} // namespace darco::tol

#include "tol/passes.hh"

#include <cstring>
#include <optional>
#include <vector>

#include "common/logging.hh"

namespace darco::tol
{

namespace
{

/** Apply a value-replacement map to every use in the region. */
void
applyReplacements(Region &r, const std::vector<s32> &rep)
{
    auto fix = [&](s32 &v) {
        while (v >= 0 && rep[v] >= 0 && rep[v] != v)
            v = rep[v];
    };
    for (IRItem &it : r.items) {
        if (it.kind == IRItem::Kind::CondExit) {
            fix(it.cond);
            continue;
        }
        fix(it.inst.src1);
        if (!it.inst.src2Imm)
            fix(it.inst.src2);
    }
    for (IRExit &x : r.exits) {
        fix(x.targetVal);
        for (auto &[loc, v] : x.liveOuts)
            fix(v);
    }
}

} // namespace

u32
foldConstants(Region &r)
{
    u32 changes = 0;
    std::vector<std::optional<u32>> k(r.numValues);
    std::vector<s32> rep(r.numValues, -1);

    auto cval = [&](s32 v) -> std::optional<u32> {
        return v >= 0 ? k[v] : std::nullopt;
    };

    for (IRItem &it : r.items) {
        if (it.kind != IRItem::Kind::Inst)
            continue;
        IRInst &i = it.inst;
        // Rewrite uses through earlier replacements first.
        auto fix = [&](s32 &v) {
            while (v >= 0 && rep[v] >= 0 && rep[v] != v)
                v = rep[v];
        };
        fix(i.src1);
        if (!i.src2Imm)
            fix(i.src2);

        if (i.op == IROp::Movi) {
            k[i.dst] = u32(i.imm);
            continue;
        }
        if (i.op == IROp::Mov) {
            if (auto c = cval(i.src1)) {
                i.op = IROp::Movi;
                i.imm = s32(*c);
                i.src1 = -1;
                k[i.dst] = *c;
                ++changes;
            }
            continue;
        }

        auto a = cval(i.src1);
        std::optional<u32> b;
        if (i.src2Imm)
            b = u32(i.imm);
        else
            b = cval(i.src2);

        // Fold fully-constant pure integer ALU ops.
        std::optional<u32> result;
        if (a && b) {
            u32 x = *a, y = *b;
            switch (i.op) {
              case IROp::Add: result = x + y; break;
              case IROp::Sub: result = x - y; break;
              case IROp::Mul:
                result = u32(s64(s32(x)) * s64(s32(y)));
                break;
              case IROp::MulH:
                result = u32(u64(s64(s32(x)) * s64(s32(y))) >> 32);
                break;
              case IROp::Div:
                if (y != 0 && !(x == 0x80000000u && s32(y) == -1))
                    result = u32(s32(x) / s32(y));
                break;
              case IROp::Rem:
                if (y != 0 && !(x == 0x80000000u && s32(y) == -1))
                    result = u32(s32(x) % s32(y));
                break;
              case IROp::And: result = x & y; break;
              case IROp::Or: result = x | y; break;
              case IROp::Xor: result = x ^ y; break;
              case IROp::Sll: result = x << (y & 31); break;
              case IROp::Srl: result = x >> (y & 31); break;
              case IROp::Sra:
                result = u32(s32(x) >> (y & 31));
                break;
              case IROp::Slt: result = s32(x) < s32(y) ? 1 : 0; break;
              case IROp::Sltu: result = x < y ? 1 : 0; break;
              case IROp::Seq: result = x == y ? 1 : 0; break;
              case IROp::Sne: result = x != y ? 1 : 0; break;
              case IROp::Sge: result = s32(x) >= s32(y) ? 1 : 0; break;
              case IROp::Sgeu: result = x >= y ? 1 : 0; break;
              default:
                break;
            }
        }
        if (result) {
            i.op = IROp::Movi;
            i.imm = s32(*result);
            i.src1 = i.src2 = -1;
            i.src2Imm = false;
            k[i.dst] = *result;
            ++changes;
            continue;
        }

        // Algebraic identities with one constant operand.
        if (b && i.dst >= 0) {
            u32 y = *b;
            bool identity =
                ((i.op == IROp::Add || i.op == IROp::Sub ||
                  i.op == IROp::Or || i.op == IROp::Xor ||
                  i.op == IROp::Sll || i.op == IROp::Srl ||
                  i.op == IROp::Sra) &&
                 y == 0);
            if (identity) {
                rep[i.dst] = i.src1;
                i.op = IROp::Mov;
                i.src2 = -1;
                i.src2Imm = false;
                i.imm = 0;
                ++changes;
                continue;
            }
            if (i.op == IROp::And && y == 0) {
                i.op = IROp::Movi;
                i.imm = 0;
                i.src1 = i.src2 = -1;
                i.src2Imm = false;
                k[i.dst] = 0;
                ++changes;
                continue;
            }
        }

        // Constant operand propagation into the imm slot (canonical
        // form feeds later CSE and better host immediates).
        if (!i.src2Imm && i.src2 >= 0) {
            if (auto c2 = cval(i.src2)) {
                switch (i.op) {
                  case IROp::Add:
                  case IROp::Sub:
                  case IROp::Mul:
                  case IROp::MulH:
                  case IROp::And:
                  case IROp::Or:
                  case IROp::Xor:
                  case IROp::Sll:
                  case IROp::Srl:
                  case IROp::Sra:
                  case IROp::Slt:
                  case IROp::Sltu:
                  case IROp::Seq:
                  case IROp::Sne:
                  case IROp::Sge:
                  case IROp::Sgeu:
                    i.src2 = -1;
                    i.src2Imm = true;
                    i.imm = s32(*c2);
                    ++changes;
                    break;
                  default:
                    break;
                }
            }
        }
    }

    applyReplacements(r, rep);
    return changes;
}

u32
copyPropagate(Region &r)
{
    u32 changes = 0;
    std::vector<s32> rep(r.numValues, -1);
    for (IRItem &it : r.items) {
        if (it.kind != IRItem::Kind::Inst)
            continue;
        IRInst &i = it.inst;
        auto fix = [&](s32 &v) {
            while (v >= 0 && rep[v] >= 0 && rep[v] != v)
                v = rep[v];
        };
        fix(i.src1);
        if (!i.src2Imm)
            fix(i.src2);
        if ((i.op == IROp::Mov || i.op == IROp::FMov) && i.src1 >= 0) {
            rep[i.dst] = i.src1;
            ++changes;
        }
    }
    applyReplacements(r, rep);
    return changes;
}

u32
eliminateCommonSubexprs(Region &r)
{
    u32 changes = 0;
    std::vector<s32> rep(r.numValues, -1);

    struct Key
    {
        IROp op;
        s32 src1, src2, imm;
        bool src2Imm;
        u64 fbits;

        bool
        operator==(const Key &o) const
        {
            return op == o.op && src1 == o.src1 && src2 == o.src2 &&
                   imm == o.imm && src2Imm == o.src2Imm &&
                   fbits == o.fbits;
        }
    };
    struct KeyHash
    {
        std::size_t
        operator()(const Key &x) const
        {
            u64 h = u64(x.op) * 0x9e3779b97f4a7c15ull;
            h ^= u64(u32(x.src1)) + (h << 6);
            h ^= u64(u32(x.src2)) + (h >> 3);
            h ^= u64(u32(x.imm)) * 0x2545f4914f6cdd1dull;
            h ^= x.fbits;
            h ^= x.src2Imm ? 0x55555 : 0;
            return std::size_t(h);
        }
    };
    // Open addressing with linear probing, at most half full: a slot
    // whose value is -1 is empty (a CSE'd value always has a dst).
    struct Slot
    {
        Key key;
        s32 val = -1;
    };
    std::size_t cap = 16;
    while (cap < 2 * r.items.size())
        cap <<= 1;
    std::vector<Slot> table(cap);

    for (IRItem &it : r.items) {
        if (it.kind != IRItem::Kind::Inst)
            continue;
        IRInst &i = it.inst;
        auto fix = [&](s32 &v) {
            while (v >= 0 && rep[v] >= 0 && rep[v] != v)
                v = rep[v];
        };
        fix(i.src1);
        if (!i.src2Imm)
            fix(i.src2);
        if (!irInfo(i.op).pure || i.dst < 0)
            continue;
        // LiveIn is pure but keyed on loc; fold it via imm slot.
        Key key;
        key.op = i.op;
        key.src1 = i.src1;
        key.src2 = i.src2;
        key.imm = i.op == IROp::LiveIn ? s32(i.loc) : i.imm;
        key.src2Imm = i.src2Imm;
        u64 fb = 0;
        if (i.op == IROp::FConst)
            std::memcpy(&fb, &i.fimm, 8);
        key.fbits = fb;

        std::size_t h = KeyHash{}(key) & (cap - 1);
        while (table[h].val >= 0 && !(table[h].key == key))
            h = (h + 1) & (cap - 1);
        if (table[h].val < 0) {
            table[h].key = key;
            table[h].val = i.dst;
        } else {
            rep[i.dst] = table[h].val;
            ++changes;
        }
    }
    applyReplacements(r, rep);
    return changes;
}

u32
eliminateDeadCode(Region &r)
{
    std::vector<bool> live(r.numValues, false);
    auto markVal = [&](s32 v) {
        if (v >= 0)
            live[v] = true;
    };

    // Roots: exits and side-effecting items.
    for (const IRExit &x : r.exits) {
        markVal(x.targetVal);
        for (auto [loc, v] : x.liveOuts)
            markVal(v);
    }

    // Backward propagation.
    for (auto it = r.items.rbegin(); it != r.items.rend(); ++it) {
        if (it->kind == IRItem::Kind::CondExit) {
            markVal(it->cond);
            continue;
        }
        IRInst &i = it->inst;
        bool keep = false;
        switch (i.op) {
          case IROp::St8:
          case IROp::St16:
          case IROp::St32:
          case IROp::FSt:
          case IROp::Assert:
          case IROp::Div: // guest-visible fault
          case IROp::Rem:
            keep = true;
            break;
          default:
            keep = i.dst >= 0 && live[i.dst];
            break;
        }
        if (keep) {
            markVal(i.src1);
            if (!i.src2Imm)
                markVal(i.src2);
        }
    }

    // Sweep, compacting in place.
    u32 removed = 0;
    std::size_t kept = 0;
    for (IRItem &it : r.items) {
        bool drop = false;
        if (it.kind == IRItem::Kind::Inst) {
            const IRInst &i = it.inst;
            switch (i.op) {
              case IROp::St8:
              case IROp::St16:
              case IROp::St32:
              case IROp::FSt:
              case IROp::Assert:
              case IROp::Div:
              case IROp::Rem:
                break;
              default:
                drop = i.dst < 0 || !live[i.dst];
                break;
            }
        }
        if (drop)
            ++removed;
        else
            r.items[kept++] = it;
    }
    r.items.resize(kept);
    return removed;
}

Alias
aliasCheck(const IRInst &a, const IRInst &b)
{
    const IROpInfo &ia = irInfo(a.op);
    const IROpInfo &ib = irInfo(b.op);
    darco_assert((ia.isLoad || ia.isStore) && (ib.isLoad || ib.isStore));
    if (a.src1 != b.src1)
        return Alias::May; // different symbolic bases
    s64 alo = a.imm, ahi = a.imm + ia.memSize;
    s64 blo = b.imm, bhi = b.imm + ib.memSize;
    if (ahi <= blo || bhi <= alo)
        return Alias::Never;
    if (alo == blo && ia.memSize == ib.memSize)
        return Alias::Always;
    return Alias::May;
}

u32
optimizeMemory(Region &r)
{
    u32 changes = 0;
    std::vector<s32> rep(r.numValues, -1);

    // Indices (into r.items) of still-visible memory ops, in order.
    std::vector<std::size_t> window;
    // Stores that a side exit has made mandatory.
    std::vector<bool> protect(r.items.size(), false);
    std::vector<bool> removed(r.items.size(), false);

    auto isStore = [&](std::size_t k) {
        return r.items[k].kind == IRItem::Kind::Inst &&
               irInfo(r.items[k].inst.op).isStore;
    };

    for (std::size_t k = 0; k < r.items.size(); ++k) {
        IRItem &it = r.items[k];
        if (it.kind == IRItem::Kind::CondExit) {
            // Stores before a side exit must stay (the exit commits).
            for (std::size_t w : window) {
                if (isStore(w))
                    protect[w] = true;
            }
            continue;
        }
        IRInst &i = it.inst;
        auto fix = [&](s32 &v) {
            while (v >= 0 && rep[v] >= 0 && rep[v] != v)
                v = rep[v];
        };
        fix(i.src1);
        if (!i.src2Imm)
            fix(i.src2);

        const IROpInfo &oi = irInfo(i.op);
        if (!oi.isLoad && !oi.isStore)
            continue;
        if (i.op == IROp::LiveIn) // LiveIn isLoad? (it is not) safety
            continue;

        if (oi.isLoad) {
            // Search backward for a forwarding or redundancy source.
            for (auto wit = window.rbegin(); wit != window.rend();
                 ++wit) {
                IRInst &m = r.items[*wit].inst;
                Alias al = aliasCheck(i, m);
                if (al == Alias::Never)
                    continue;
                if (al == Alias::May)
                    break;
                const IROpInfo &mi = irInfo(m.op);
                if (mi.isStore) {
                    // Store -> load forwarding: exact type match only.
                    bool ok = (i.op == IROp::Ld32 &&
                               m.op == IROp::St32) ||
                              (i.op == IROp::FLd && m.op == IROp::FSt);
                    if (ok) {
                        rep[i.dst] = m.src2;
                        removed[k] = true;
                        ++changes;
                    }
                } else if (m.op == i.op) {
                    // Redundant load elimination.
                    rep[i.dst] = m.dst;
                    removed[k] = true;
                    ++changes;
                }
                break;
            }
            if (!removed[k])
                window.push_back(k);
        } else {
            // Dead-store elimination: the nearest Always-aliasing
            // store with nothing reading it in between is dead.
            for (auto wit = window.rbegin(); wit != window.rend();
                 ++wit) {
                IRInst &m = r.items[*wit].inst;
                Alias al = aliasCheck(i, m);
                if (al == Alias::Never)
                    continue;
                if (al == Alias::Always && isStore(*wit) &&
                    !protect[*wit] && m.op == i.op) {
                    removed[*wit] = true;
                    ++changes;
                    // Drop it from the visibility window so later ops
                    // can't forward from a store that no longer exists.
                    window.erase(std::next(wit).base());
                }
                break; // any overlap stops the scan
            }
            window.push_back(k);
        }
    }

    if (changes) {
        std::vector<IRItem> kept;
        kept.reserve(r.items.size());
        for (std::size_t k = 0; k < r.items.size(); ++k) {
            if (!removed[k])
                kept.push_back(r.items[k]);
        }
        r.items = std::move(kept);
        applyReplacements(r, rep);
    }
    return changes;
}

} // namespace darco::tol

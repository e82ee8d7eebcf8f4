#include "tol/regalloc.hh"

#include <algorithm>
#include <cstdint>

#include "common/logging.hh"
#include "host/hisa.hh"

namespace darco::tol
{

namespace
{

using host::regmap::ftempBase;
using host::regmap::guestFprBase;
using host::regmap::guestGprBase;
using host::regmap::tempBase;

constexpr u8 intTempLo = tempBase;      // r15
constexpr u8 intTempHi = 31;            // r31
constexpr u8 fpTempLo = ftempBase;      // f8
constexpr u8 fpTempHi = 29;             // f29 (f30/f31 scratch)

/** Fixed host register for a guest location's LiveIn. */
u8
mappedReg(u16 loc)
{
    if (loc < 8)
        return u8(guestGprBase + loc);
    if (loc < 12)
        return u8(host::regmap::flagZ + (loc - 8));
    return u8(guestFprBase + (loc - 12));
}

} // namespace

Allocation
allocateRegisters(const Region &r)
{
    const std::size_t n = r.items.size();
    Allocation a;
    a.val.resize(r.numValues);

    // Live ranges run from the def to the last use. Uses by exits attach
    // to the referencing item (CondExit) or the end of the region
    // (final exit and any exit not referenced by a CondExit).
    std::vector<s32> lastUse(r.numValues, -1);
    std::vector<u8> isFp(r.numValues, 0);

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
        // LiveIn values are pinned to the guest-mapped registers.
        if (i.op == IROp::LiveIn) {
            ValueLoc &vl = a.val[i.dst];
            vl.kind = ValueLoc::Kind::Reg;
            vl.reg = mappedReg(i.loc);
            vl.fp = locIsFp(i.loc);
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

    // Linear scan over the two temp pools.
    struct Active
    {
        s32 value;
        s32 lastUse;
        u8 reg;
    };
    constexpr std::size_t nInt = intTempHi - intTempLo + 1;
    constexpr std::size_t nFp = fpTempHi - fpTempLo + 1;
    std::vector<u8> freeInt, freeFp;
    freeInt.reserve(nInt);
    freeFp.reserve(nFp);
    for (u8 g = intTempHi; g >= intTempLo; --g)
        freeInt.push_back(g);
    for (u8 f = fpTempHi; f >= fpTempLo; --f)
        freeFp.push_back(f);
    std::vector<Active> activeInt, activeFp;
    activeInt.reserve(nInt);
    activeFp.reserve(nFp);
    // Per pool, a lower bound on the active intervals' last uses:
    // while it is not below the current item, nothing can expire.
    s32 minLastInt = INT32_MAX, minLastFp = INT32_MAX;

    auto expire = [&](std::vector<Active> &act, std::vector<u8> &pool,
                      s32 &minLast, s32 now) {
        if (minLast >= now)
            return;
        minLast = INT32_MAX;
        for (std::size_t j = 0; j < act.size();) {
            if (act[j].lastUse < now) {
                pool.push_back(act[j].reg);
                act[j] = act.back();
                act.pop_back();
            } else {
                minLast = std::min(minLast, act[j].lastUse);
                ++j;
            }
        }
    };

    for (std::size_t k = 0; k < n; ++k) {
        const IRItem &it = r.items[k];
        if (it.kind != IRItem::Kind::Inst)
            continue;
        const IRInst &i = it.inst;
        if (i.dst < 0 || i.op == IROp::LiveIn)
            continue;
        if (lastUse[i.dst] < 0)
            continue; // dead value (possible pre-DCE); no register

        const bool fp = isFp[i.dst];
        auto &pool = fp ? freeFp : freeInt;
        auto &act = fp ? activeFp : activeInt;
        s32 &minLast = fp ? minLastFp : minLastInt;
        expire(act, pool, minLast, s32(k));
        minLast = std::min(minLast, lastUse[i.dst]);

        ValueLoc &vl = a.val[i.dst];
        vl.fp = fp;
        if (!pool.empty()) {
            vl.kind = ValueLoc::Kind::Reg;
            vl.reg = pool.back();
            pool.pop_back();
            act.push_back(Active{i.dst, lastUse[i.dst], vl.reg});
            continue;
        }
        // Spill the value with the furthest last use (it or a live one).
        std::size_t victim = act.size();
        s32 far = lastUse[i.dst];
        for (std::size_t j = 0; j < act.size(); ++j) {
            if (act[j].lastUse > far) {
                far = act[j].lastUse;
                victim = j;
            }
        }
        if (victim == act.size()) {
            // New value is the furthest: spill it directly.
            vl.kind = ValueLoc::Kind::Spill;
            vl.slot = a.spillSlots++;
            ++a.spillCount;
        } else {
            // Evict the victim to a slot; reuse its register.
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

} // namespace darco::tol

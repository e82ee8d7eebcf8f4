#include "verify/verifier.hh"

#include <sstream>

#include "verify/locs.hh"
#include "verify/symguest.hh"
#include "verify/symhost.hh"

namespace darco::verify
{

namespace
{

using tol::RegionMode;

/** Symbolic host paths enumerated per region before giving up. */
constexpr u32 hostPathLimit = 256;

/** One obligation outcome folded into the unit verdict. */
struct Oblig
{
    Tri tri = Tri::Proved;
    std::string what;
    Witness witness;
};

class UnitVerifier
{
  public:
    explicit UnitVerifier(const VerifyUnit &unit) : unit_(unit) {}

    VerifyResult
    run()
    {
        VerifyResult res;
        res.entry = unit_.entry;
        res.mode = unit_.mode;
        res.tid = unit_.tid;

        // Host first: alias-guard pass facts recorded while walking
        // the paths must be visible to the guest chain walk.
        SymHostResult host = symExecHost(ctx_, unit_.words,
                                         unit_.fpPool, hostPathLimit);
        if (!host.error.empty()) {
            res.verdict = Verdict::Unknown;
            res.detail = "host enumeration: " + host.error;
            return res;
        }

        tol::Frontend fe(tol::FrontendOptions{unit_.fuseFlags});
        tol::Region region = fe.build(unit_.entry, unit_.mode,
                                      unit_.path, unit_.trip,
                                      unit_.end);
        GuestSummary guest = symEvalGuest(ctx_, region);
        if (!guest.error.empty()) {
            res.verdict = Verdict::Unknown;
            res.detail = "guest evaluation: " + guest.error;
            return res;
        }

        // Captured exit metadata must match the rebuilt region's —
        // the registry descriptors steer post-exit dispatch and
        // retirement accounting.
        if (unit_.exits.size() != region.exits.size()) {
            res.verdict = Verdict::Refuted;
            res.detail = "exit table size drift";
            return res;
        }
        for (std::size_t i = 0; i < unit_.exits.size(); ++i) {
            const tol::ExitDesc &d = unit_.exits[i];
            const tol::IRExit &x = region.exits[i];
            if (d.kind != x.kind || d.target != x.target ||
                d.instsRetired != x.instsRetired ||
                d.bbsRetired != x.bbsRetired) {
                res.verdict = Verdict::Refuted;
                res.detail =
                    "exit descriptor drift at exit " + std::to_string(i);
                return res;
            }
        }

        Oblig worst;
        for (const HostPath &p : host.paths) {
            Oblig o = checkPath(p, guest, region);
            if (o.tri == Tri::Refuted) {
                worst = std::move(o);
                break;
            }
            if (o.tri == Tri::Unknown && worst.tri == Tri::Proved)
                worst = std::move(o);
        }
        switch (worst.tri) {
          case Tri::Proved:
            res.verdict = Verdict::Proved;
            break;
          case Tri::Refuted:
            res.verdict = Verdict::Refuted;
            res.detail = worst.what;
            res.witness = worst.witness.render();
            break;
          case Tri::Unknown:
            res.verdict = Verdict::Unknown;
            res.detail = worst.what;
            break;
        }
        return res;
    }

  private:
    Oblig
    refuted(std::string what, Witness w = Witness())
    {
        return {Tri::Refuted, std::move(what), std::move(w)};
    }

    Oblig
    unknown(std::string what)
    {
        return {Tri::Unknown, std::move(what), {}};
    }

    /** Lift a proveEq outcome into an obligation result. */
    bool
    need(Oblig &o, Tri t, const std::string &what, Witness &&w)
    {
        if (t == Tri::Proved)
            return true;
        o.tri = t;
        o.what = what;
        o.witness = std::move(w);
        return false;
    }

    Oblig
    checkPath(const HostPath &p, const GuestSummary &guest,
              const tol::Region &region)
    {
        Oblig o;
        if (!p.structuralError.empty())
            return refuted("structural: " + p.structuralError);

        // The promote path: the profiling preamble hit its threshold,
        // committed nothing, and exited before any guest work. It
        // must preserve the entire pre-region state.
        if (unit_.profile && !p.indirect &&
            p.exitId == unit_.promoteExitId)
            return checkPromotePath(p);

        u32 ordinal = p.exitId - unit_.exitIdBase;
        if (ordinal >= region.exits.size())
            return refuted("exit id " + std::to_string(p.exitId) +
                           " out of range");
        const GuestExit &ge = guest.exits[ordinal];
        const tol::IRExit &gx = region.exits[ordinal];

        // --- branch ladder ---------------------------------------
        u32 pre = unit_.profile ? 1u : 0u;
        u32 ladder = ge.traversalPos >= 0 ? u32(ge.traversalPos) + 1
                                          : u32(guest.traversal.size());
        if (ge.traversalPos < 0 && u32(region.finalExit) != ordinal)
            return refuted("host reached exit " +
                           std::to_string(ordinal) +
                           " with no matching cond exit");
        if (p.branches.size() != pre + ladder)
            return refuted(
                "branch ladder length " +
                std::to_string(p.branches.size()) + " != expected " +
                std::to_string(pre + ladder) + " at exit " +
                std::to_string(ordinal));
        if (pre && !p.branches[0].taken)
            return refuted("promotion preamble fell through without "
                           "taking the promote exit");
        for (u32 j = 0; j < ladder; ++j) {
            const BranchExec &ev = p.branches[pre + j];
            const GuestExit &gj = guest.exits[guest.traversal[j]];
            bool expect_taken =
                ge.traversalPos >= 0 && j == u32(ge.traversalPos);
            if (ev.taken != expect_taken)
                return refuted("branch outcome mismatch at cond exit " +
                               std::to_string(j));
            ExprId want = gj.condInvert
                              ? ctx_.eq(gj.cond, ctx_.zero())
                              : ctx_.ne(gj.cond, ctx_.zero());
            Witness w;
            Tri t = ctx_.proveEqI(ev.cond, want, p.facts, &w);
            if (!need(o, t,
                      "cond-exit condition mismatch at cond exit " +
                          std::to_string(j) + " (exit " +
                          std::to_string(guest.traversal[j]) +
                          "): host " + ctx_.render(ev.cond) +
                          " vs guest " + ctx_.render(want),
                      std::move(w)))
                return o;
        }

        // --- assert pairing --------------------------------------
        for (u32 gi = 0; gi < ge.assertPrefix; ++gi) {
            const AssertExec &ga = guest.asserts[gi];
            const AssertExec *match = nullptr;
            for (const AssertExec &ha : p.asserts) {
                if (ha.assertId == ga.assertId) {
                    match = &ha;
                    break;
                }
            }
            if (!match) {
                // Witness: a concrete state that fires the missing
                // guard (refute "the guard condition always passes").
                ExprId pass = ga.expectNonZero
                                  ? ctx_.ne(ga.cond, ctx_.zero())
                                  : ctx_.eq(ga.cond, ctx_.zero());
                Witness w;
                Tri t = ctx_.proveEqI(pass, ctx_.constI(1), p.facts,
                                      &w);
                if (t == Tri::Proved)
                    continue; // provably never fires; drop is harmless
                return refuted("guard dropped: assert id " +
                                   std::to_string(ga.assertId) +
                                   " not enforced on host path to "
                                   "exit " +
                                   std::to_string(ordinal),
                               std::move(w));
            }
            if (match->expectNonZero != ga.expectNonZero)
                return refuted("assert polarity flipped: id " +
                               std::to_string(ga.assertId));
            Witness w;
            Tri t = ctx_.proveEqI(match->cond, ga.cond, p.facts, &w);
            if (!need(o, t,
                      "assert condition mismatch: id " +
                          std::to_string(ga.assertId),
                      std::move(w)))
                return o;
        }

        // --- div fault equivalence -------------------------------
        for (u32 gi = 0; gi < ge.divPrefix; ++gi) {
            const DivExec &gd = guest.divs[gi];
            bool found = false;
            for (const DivExec &hd : p.divs) {
                if (hd.a == gd.a && hd.b == gd.b) {
                    found = true;
                    break;
                }
                if (ctx_.proveEqI(hd.a, gd.a, p.facts, nullptr) ==
                        Tri::Proved &&
                    ctx_.proveEqI(hd.b, gd.b, p.facts, nullptr) ==
                        Tri::Proved) {
                    found = true;
                    break;
                }
            }
            if (found)
                continue;
            // A missing host div is fine iff the guest div provably
            // cannot fault — the condition foldConstants (constant
            // operands) and a scheduler sink past an exit both reduce
            // to.
            ExprId bad = ctx_.or_(
                ctx_.eq(gd.b, ctx_.zero()),
                ctx_.and_(ctx_.eq(gd.a, ctx_.constI(0x80000000u)),
                          ctx_.eq(gd.b, ctx_.constI(0xffffffffu))));
            if (ctx_.proveEqI(bad, ctx_.zero(), p.facts, nullptr) ==
                Tri::Proved)
                continue;
            return refuted("guest div without a host fault check at "
                           "exit " +
                           std::to_string(ordinal) + ": " +
                           ctx_.render(gd.a) + " / " +
                           ctx_.render(gd.b));
        }

        // --- architectural state ---------------------------------
        for (u16 loc = 0; loc < tol::numLocs; ++loc) {
            ExprId hv = hostLocValue(p, loc);
            ExprId gv = ge.outs[loc];
            Witness w;
            Tri t = tol::locIsFp(loc)
                        ? ctx_.proveEqF(hv, gv, p.facts, &w)
                        : ctx_.proveEqI(hv, gv, p.facts, &w);
            if (!need(o, t,
                      "location " + locName(loc) + " diverges at exit " +
                          std::to_string(ordinal) + ": host " +
                          ctx_.render(hv) + " vs guest " +
                          ctx_.render(gv),
                      std::move(w)))
                return o;
        }

        // --- memory ----------------------------------------------
        Oblig mo = checkMemory(p, ge, ordinal);
        if (mo.tri != Tri::Proved)
            return mo;

        // --- control transfer ------------------------------------
        if (p.indirect) {
            if (gx.kind != tol::ExitKind::Indirect)
                return refuted("IBTC at a non-indirect exit " +
                               std::to_string(ordinal));
            if (ge.targetVal == nilExpr)
                return refuted("indirect exit without a target value");
            Witness w;
            Tri t = ctx_.proveEqI(p.ibtcTarget, ge.targetVal, p.facts,
                                  &w);
            if (!need(o, t,
                      "indirect target diverges at exit " +
                          std::to_string(ordinal),
                      std::move(w)))
                return o;
        } else if (gx.kind == tol::ExitKind::Indirect) {
            return refuted("indirect exit " + std::to_string(ordinal) +
                           " left through EXITB");
        }
        return o;
    }

    Oblig
    checkPromotePath(const HostPath &p)
    {
        Oblig o;
        for (u16 loc = 0; loc < tol::numLocs; ++loc) {
            ExprId hv = hostLocValue(p, loc);
            ExprId iv = locVar(ctx_, loc);
            Witness w;
            Tri t = tol::locIsFp(loc)
                        ? ctx_.proveEqF(hv, iv, p.facts, &w)
                        : ctx_.proveEqI(hv, iv, p.facts, &w);
            if (!need(o, t,
                      "promote path clobbers " + locName(loc),
                      std::move(w)))
                return o;
        }
        if (!ctx_.writeList(p.mem).empty())
            return refuted("promote path stores to guest memory");
        return o;
    }

    ExprId
    hostLocValue(const HostPath &p, u16 loc)
    {
        using namespace tol;
        namespace regmap = host::regmap;
        if (loc >= locGpr0 && loc < locGpr0 + 8)
            return p.gpr[regmap::guestGprBase + (loc - locGpr0)];
        switch (loc) {
          case locFlagZ: return p.gpr[regmap::flagZ];
          case locFlagS: return p.gpr[regmap::flagS];
          case locFlagC: return p.gpr[regmap::flagC];
          case locFlagO: return p.gpr[regmap::flagO];
          default: break;
        }
        return p.fpr[regmap::guestFprBase + (loc - locFpr0)];
    }

    /**
     * Memory equality: identical state nodes, else identical
     * *normalized ordered write sequences*. A write is dead — and may
     * be dropped by either side — when a single later write to the
     * same root fully covers its byte range (DSE). Store order is
     * otherwise significant: the scheduler never reorders stores, so
     * demanding order-equality is complete, and it is what keeps the
     * comparison sound for stores whose roots may alias.
     */
    Oblig
    checkMemory(const HostPath &p, const GuestExit &ge, u32 ordinal)
    {
        Oblig o;
        if (p.mem == ge.mem)
            return o;
        auto normalize = [&](ExprId mem) {
            std::vector<Ctx::WriteRec> ws = ctx_.writeList(mem);
            std::vector<Ctx::WriteRec> out;
            for (std::size_t i = 0; i < ws.size(); ++i) {
                bool covered = false;
                for (std::size_t j = i + 1; j < ws.size() && !covered;
                     ++j) {
                    covered = ws[j].base == ws[i].base &&
                              u32(ws[i].off - ws[j].off) + ws[i].size <=
                                  u32(ws[j].size);
                }
                if (!covered)
                    out.push_back(ws[i]);
            }
            return out;
        };
        std::vector<Ctx::WriteRec> hw = normalize(p.mem);
        std::vector<Ctx::WriteRec> gw = normalize(ge.mem);
        if (hw.size() != gw.size())
            return refuted("store count mismatch at exit " +
                           std::to_string(ordinal) + ": host " +
                           std::to_string(hw.size()) + " vs guest " +
                           std::to_string(gw.size()));
        for (std::size_t i = 0; i < hw.size(); ++i) {
            const Ctx::WriteRec &h = hw[i];
            const Ctx::WriteRec &g = gw[i];
            std::string where = "store " + std::to_string(i) +
                                " at exit " + std::to_string(ordinal);
            if (h.off != g.off || h.size != g.size || h.isF != g.isF)
                return refuted(where + ": access shape mismatch");
            if (h.base != g.base) {
                Witness w;
                Tri t = ctx_.proveEqI(h.base, g.base, p.facts, &w);
                if (!need(o, t, where + ": address mismatch",
                          std::move(w)))
                    return o;
            }
            Witness w;
            Tri t;
            if (h.isF) {
                t = ctx_.proveEqF(h.val, g.val, p.facts, &w);
            } else {
                // Sub-word stores only commit their low bytes.
                u32 mask = h.size == 1   ? 0xffu
                           : h.size == 2 ? 0xffffu
                                         : 0xffffffffu;
                t = ctx_.proveEqI(ctx_.and_(h.val, ctx_.constI(mask)),
                                  ctx_.and_(g.val, ctx_.constI(mask)),
                                  p.facts, &w);
            }
            if (!need(o, t, where + ": value mismatch", std::move(w)))
                return o;
        }
        return o;
    }

    const VerifyUnit &unit_;
    Ctx ctx_;
};

} // namespace

std::string
VerifyReport::summary() const
{
    std::ostringstream os;
    os << results.size() << " translations: " << proved << " proved, "
       << refuted << " refuted, " << unknown << " unknown";
    return os.str();
}

VerifyResult
verifyUnit(const VerifyUnit &unit)
{
    return UnitVerifier(unit).run();
}

} // namespace darco::verify

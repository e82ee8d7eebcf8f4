#include "tol/codegen.hh"

#include <algorithm>

#include "common/logging.hh"

namespace darco::tol
{

using namespace host;
using host::regmap::scratch0; // r13
using host::regmap::scratch1; // r14

namespace
{

constexpr u8 fpScratch0 = 30;
constexpr u8 fpScratch1 = 31;

/** Host register for a guest location. */
u8
mappedReg(u16 loc)
{
    if (loc < 8)
        return u8(regmap::guestGprBase + loc);
    if (loc < 12)
        return u8(regmap::flagZ + (loc - 8));
    return u8(regmap::guestFprBase + (loc - 12));
}

struct Gen
{
    const Region &r;
    const Allocation &alloc;
    const CodegenOptions &opts;
    const std::function<u32(double)> &poolIndex;
    HAsm a;
    CodegenResult res;

    /** One pending live-out copy (emitParallelCopies). */
    struct Copy
    {
        u8 dst;
        bool fp;
        ValueLoc src;
    };
    /** emitParallelCopies' worklist, kept across exit stubs. */
    std::vector<Copy> copies;

    Gen(const Region &reg, const Allocation &al,
        const CodegenOptions &op, const std::function<u32(double)> &pi)
        : r(reg), alloc(al), opts(op), poolIndex(pi)
    {
    }

    const ValueLoc &
    loc(s32 v) const
    {
        darco_assert(v >= 0 && v < s32(alloc.val.size()),
                     "codegen: bad value id");
        return alloc.val[v];
    }

    /** Integer source: returns the register holding value v. */
    u8
    srcInt(s32 v, u8 scratch)
    {
        const ValueLoc &l = loc(v);
        if (l.kind == ValueLoc::Kind::Reg)
            return l.reg;
        darco_assert(l.kind == ValueLoc::Kind::Spill,
                     "use of unallocated value v", v);
        a.emit(HOp::LWL, scratch, 0, 0, s32(l.slot * 8));
        return scratch;
    }

    u8
    srcFp(s32 v, u8 scratch)
    {
        const ValueLoc &l = loc(v);
        if (l.kind == ValueLoc::Kind::Reg)
            return l.reg;
        darco_assert(l.kind == ValueLoc::Kind::Spill);
        a.emit(HOp::FLDL, scratch, 0, 0, s32(l.slot * 8));
        return scratch;
    }

    /** Destination register (scratch when spilled or dead). */
    u8
    dstInt(s32 v) const
    {
        if (v < 0)
            return scratch0;
        const ValueLoc &l = alloc.val[v];
        return l.kind == ValueLoc::Kind::Reg ? l.reg : scratch0;
    }

    u8
    dstFp(s32 v) const
    {
        if (v < 0)
            return fpScratch0;
        const ValueLoc &l = alloc.val[v];
        return l.kind == ValueLoc::Kind::Reg ? l.reg : fpScratch0;
    }

    /** Store a spilled destination back to its slot. */
    void
    finishDst(s32 v, bool fp)
    {
        if (v < 0)
            return;
        const ValueLoc &l = alloc.val[v];
        if (l.kind != ValueLoc::Kind::Spill)
            return;
        if (fp)
            a.emit(HOp::FSTL, 0, 0, fpScratch0, s32(l.slot * 8));
        else
            a.emit(HOp::SWL, 0, 0, scratch0, s32(l.slot * 8));
    }

    /** Is value v's location entirely dead (no register, no slot)? */
    bool
    deadDst(s32 v) const
    {
        return v >= 0 && alloc.val[v].kind == ValueLoc::Kind::None;
    }

    // --- instruction emission ------------------------------------------

    void
    emitIntAlu(const IRInst &i)
    {
        struct Mapping
        {
            HOp rr;
            HOp ri;       //!< NOP = no immediate form
            bool immSigned;
        };
        auto m = [&]() -> Mapping {
            switch (i.op) {
              case IROp::Add: return {HOp::ADD, HOp::ADDI, true};
              case IROp::Sub: return {HOp::SUB, HOp::NOP, true};
              case IROp::Mul: return {HOp::MUL, HOp::NOP, true};
              case IROp::MulH: return {HOp::MULH, HOp::NOP, true};
              case IROp::Div: return {HOp::DIV, HOp::NOP, true};
              case IROp::Rem: return {HOp::REM, HOp::NOP, true};
              case IROp::And: return {HOp::AND, HOp::ANDI, false};
              case IROp::Or: return {HOp::OR, HOp::ORI, false};
              case IROp::Xor: return {HOp::XOR, HOp::XORI, false};
              case IROp::Sll: return {HOp::SLL, HOp::SLLI, false};
              case IROp::Srl: return {HOp::SRL, HOp::SRLI, false};
              case IROp::Sra: return {HOp::SRA, HOp::SRAI, false};
              case IROp::Slt: return {HOp::SLT, HOp::SLTI, true};
              case IROp::Sltu: return {HOp::SLTU, HOp::NOP, true};
              case IROp::Seq: return {HOp::SEQ, HOp::SEQI, false};
              case IROp::Sne: return {HOp::SNE, HOp::SNEI, false};
              case IROp::Sge: return {HOp::SGE, HOp::NOP, true};
              case IROp::Sgeu: return {HOp::SGEU, HOp::NOP, true};
              default: panic("not an int ALU op");
            }
        }();

        // Dead pure results are skipped, but Div/Rem must execute for
        // their guest-visible fault even when the quotient is unused.
        const bool faulting = i.op == IROp::Div || i.op == IROp::Rem;
        if (deadDst(i.dst) && !faulting)
            return;
        u8 rd = dstInt(i.dst);
        u8 rs1 = srcInt(i.src1, scratch0);

        if (i.src2Imm) {
            const bool shift = i.op == IROp::Sll || i.op == IROp::Srl ||
                               i.op == IROp::Sra;
            s32 imm = shift ? (i.imm & 31) : i.imm;
            bool immOk =
                m.ri != HOp::NOP &&
                (m.immSigned ? (imm >= -8192 && imm <= 8191)
                             : (imm >= 0 && imm < 16384));
            // SUB with an immediate becomes ADDI of the negation.
            if (i.op == IROp::Sub && -i.imm >= -8192 && -i.imm <= 8191) {
                a.emit(HOp::ADDI, rd, rs1, 0, -i.imm);
                finishDst(i.dst, false);
                return;
            }
            if (immOk) {
                a.emit(m.ri, rd, rs1, 0, imm);
                finishDst(i.dst, false);
                return;
            }
            a.loadImm(scratch1, u32(i.imm));
            a.emit(m.rr, rd, rs1, scratch1);
            finishDst(i.dst, false);
            return;
        }
        u8 rs2 = srcInt(i.src2, scratch1);
        a.emit(m.rr, rd, rs1, rs2);
        finishDst(i.dst, false);
    }

    void
    emitInst(const IRInst &i)
    {
        switch (i.op) {
          case IROp::LiveIn:
            // Homed in the mapped register: no code.
            return;

          case IROp::Movi:
            if (deadDst(i.dst))
                return;
            a.loadImm(dstInt(i.dst), u32(i.imm));
            finishDst(i.dst, false);
            return;

          case IROp::Mov:
            if (deadDst(i.dst))
                return;
            a.emit(HOp::ADDI, dstInt(i.dst), srcInt(i.src1, scratch0),
                   0, 0);
            finishDst(i.dst, false);
            return;

          case IROp::FConst:
            if (deadDst(i.dst))
                return;
            a.emit(HOp::FLDC, dstFp(i.dst), 0, 0,
                   s32(poolIndex(i.fimm)));
            finishDst(i.dst, true);
            return;

          case IROp::Assert:
            if (opts.dropGuard)
                return; // injected bug: guard silently dropped
            a.emit(i.expectNonZero ? HOp::ASSERTNZ : HOp::ASSERTZ, 0,
                   srcInt(i.src1, scratch0), 0, s32(i.assertId));
            return;

          // Loads.
          case IROp::Ld8u:
          case IROp::Ld8s:
          case IROp::Ld16u:
          case IROp::Ld16s:
          case IROp::Ld32: {
            // Dead loads were removed by DCE; an unallocated dst here
            // means "execute for the page-touch only", use scratch.
            HOp op = i.op == IROp::Ld8u    ? HOp::LBU
                     : i.op == IROp::Ld8s  ? HOp::LB
                     : i.op == IROp::Ld16u ? HOp::LHU
                     : i.op == IROp::Ld16s ? HOp::LH
                                           : HOp::LW;
            if (i.speculative) {
                darco_assert(i.op == IROp::Ld32,
                             "only word loads speculate");
                op = HOp::LWS;
                ++res.specLoads;
            }
            u8 rs1 = srcInt(i.src1, scratch0);
            a.emit(op, dstInt(i.dst), rs1, 0, i.imm);
            finishDst(i.dst, false);
            return;
          }
          case IROp::FLd: {
            u8 rs1 = srcInt(i.src1, scratch0);
            a.emit(i.speculative ? HOp::FLDS : HOp::FLD, dstFp(i.dst),
                   rs1, 0, i.imm);
            if (i.speculative)
                ++res.specLoads;
            finishDst(i.dst, true);
            return;
          }

          // Stores.
          case IROp::St8:
          case IROp::St16:
          case IROp::St32: {
            // speculative == a load was hoisted across this store:
            // emit the alias-checking variant.
            HOp op;
            if (i.speculative) {
                op = i.op == IROp::St8    ? HOp::SBC
                     : i.op == IROp::St16 ? HOp::SHC
                                          : HOp::SWC;
            } else {
                op = i.op == IROp::St8    ? HOp::SB
                     : i.op == IROp::St16 ? HOp::SH
                                          : HOp::SW;
            }
            u8 rs1 = srcInt(i.src1, scratch0);
            u8 rs2 = srcInt(i.src2, scratch1);
            a.emit(op, 0, rs1, rs2, i.imm);
            return;
          }
          case IROp::FSt: {
            u8 rs1 = srcInt(i.src1, scratch0);
            u8 rs2 = srcFp(i.src2, fpScratch0);
            a.emit(i.speculative ? HOp::FSTC : HOp::FST, 0, rs1, rs2,
                   i.imm);
            return;
          }

          // FP.
          case IROp::FAdd:
          case IROp::FSub:
          case IROp::FMul:
          case IROp::FDiv: {
            if (deadDst(i.dst))
                return;
            HOp op = i.op == IROp::FAdd   ? HOp::FADD
                     : i.op == IROp::FSub ? HOp::FSUB
                     : i.op == IROp::FMul ? HOp::FMUL
                                          : HOp::FDIV;
            u8 rs1 = srcFp(i.src1, fpScratch0);
            u8 rs2 = srcFp(i.src2, fpScratch1);
            a.emit(op, dstFp(i.dst), rs1, rs2);
            finishDst(i.dst, true);
            return;
          }
          case IROp::FSqrt:
          case IROp::FAbs:
          case IROp::FNeg:
          case IROp::FMov:
          case IROp::FRnd: {
            if (deadDst(i.dst))
                return;
            HOp op = i.op == IROp::FSqrt  ? HOp::FSQRT
                     : i.op == IROp::FAbs ? HOp::FABS
                     : i.op == IROp::FNeg ? HOp::FNEG
                     : i.op == IROp::FMov ? HOp::FMOV
                                          : HOp::FRND;
            a.emit(op, dstFp(i.dst), srcFp(i.src1, fpScratch0), 0);
            finishDst(i.dst, true);
            return;
          }
          case IROp::FCvtWD:
            if (deadDst(i.dst))
                return;
            a.emit(HOp::FCVTWD, dstFp(i.dst), srcInt(i.src1, scratch0),
                   0);
            finishDst(i.dst, true);
            return;
          case IROp::FCvtZW:
            if (deadDst(i.dst))
                return;
            a.emit(HOp::FCVTZW, dstInt(i.dst), srcFp(i.src1, fpScratch0),
                   0);
            finishDst(i.dst, false);
            return;
          case IROp::FEq:
          case IROp::FLt:
          case IROp::FLe: {
            if (deadDst(i.dst))
                return;
            HOp op = i.op == IROp::FEq   ? HOp::FEQ
                     : i.op == IROp::FLt ? HOp::FLT
                                         : HOp::FLE;
            u8 rs1 = srcFp(i.src1, fpScratch0);
            u8 rs2 = srcFp(i.src2, fpScratch1);
            a.emit(op, dstInt(i.dst), rs1, rs2);
            finishDst(i.dst, false);
            return;
          }

          default:
            emitIntAlu(i);
            return;
        }
    }

    // --- profiling helpers ------------------------------------------------

    void
    emitCounterBump(u32 addr)
    {
        a.loadImm(scratch0, addr);
        a.emit(HOp::LWL, scratch1, scratch0, 0, 0);
        a.emit(HOp::ADDI, scratch1, scratch1, 0, 1);
        a.emit(HOp::SWL, 0, scratch0, scratch1, 0);
    }

    // --- exit stubs -------------------------------------------------------

    /** Emit one exit stub; returns the word offset of its EXITB. */
    u32
    emitStub(u32 exit_idx)
    {
        const IRExit &x = r.exits[exit_idx];

        if (opts.profile && exit_idx < opts.exitCounterAddr.size() &&
            opts.exitCounterAddr[exit_idx] >= 0) {
            emitCounterBump(u32(opts.exitCounterAddr[exit_idx]));
        }

        // Stage the indirect target first: r13 is never a copy
        // destination or source below.
        if (x.kind == ExitKind::Indirect) {
            const ValueLoc &l = loc(x.targetVal);
            if (l.kind == ValueLoc::Kind::Reg)
                a.emit(HOp::ADDI, scratch0, l.reg, 0, 0);
            else
                a.emit(HOp::LWL, scratch0, 0, 0, s32(l.slot * 8));
        }

        emitParallelCopies(x.liveOuts);
        a.emit(HOp::COMMIT);
        a.emit(HOp::RETIRE, 0, 0, 0, s32(opts.exitIdBase + exit_idx));

        if (x.kind == ExitKind::Indirect) {
            a.emit(HOp::IBTC, 0, scratch0, 0);
            return ~0u;
        }
        u32 site = a.size();
        a.emit(HOp::EXITB, 0, 0, 0, s32(opts.exitIdBase + exit_idx));
        return site;
    }

    /**
     * Materialize live-outs into the guest-mapped registers. The
     * destinations are mapped registers that other pending copies may
     * still read (LiveIn sources), so this is a parallel copy:
     * cycles are broken through r14/f31.
     */
    void
    emitParallelCopies(const std::vector<std::pair<u16, s32>> &outs)
    {
        std::vector<Copy> &pend = copies;
        pend.clear();
        for (auto [l, v] : outs) {
            Copy c;
            c.dst = mappedReg(l);
            c.fp = locIsFp(l);
            c.src = loc(v);
            if (c.src.kind == ValueLoc::Kind::Reg && c.src.reg == c.dst)
                continue; // already in place
            pend.push_back(c);
        }

        auto emitCopy = [&](const Copy &c) {
            if (c.src.kind == ValueLoc::Kind::Spill) {
                if (c.fp)
                    a.emit(HOp::FLDL, c.dst, 0, 0, s32(c.src.slot * 8));
                else
                    a.emit(HOp::LWL, c.dst, 0, 0, s32(c.src.slot * 8));
            } else if (c.fp) {
                a.emit(HOp::FMOV, c.dst, c.src.reg, 0);
            } else {
                a.emit(HOp::ADDI, c.dst, c.src.reg, 0, 0);
            }
        };

        while (!pend.empty()) {
            bool progress = false;
            for (std::size_t j = 0; j < pend.size();) {
                const Copy &c = pend[j];
                bool blocked = false;
                for (const Copy &o : pend) {
                    if (&o != &c && o.src.kind == ValueLoc::Kind::Reg &&
                        o.fp == c.fp && o.src.reg == c.dst) {
                        blocked = true;
                        break;
                    }
                }
                if (!blocked) {
                    emitCopy(c);
                    pend[j] = pend.back();
                    pend.pop_back();
                    progress = true;
                } else {
                    ++j;
                }
            }
            if (progress || pend.empty())
                continue;
            // Cycle among mapped registers: save one destination.
            Copy &c0 = pend.front();
            u8 tmp = c0.fp ? fpScratch1 : scratch1;
            if (c0.fp)
                a.emit(HOp::FMOV, tmp, c0.dst, 0);
            else
                a.emit(HOp::ADDI, tmp, c0.dst, 0, 0);
            for (Copy &o : pend) {
                if (o.src.kind == ValueLoc::Kind::Reg &&
                    o.fp == c0.fp && o.src.reg == c0.dst) {
                    o.src.reg = tmp;
                }
            }
        }
    }

    CodegenResult
    run()
    {
        res.exitSite.assign(r.exits.size(), ~0u);
        a.words().reserve(2 * r.items.size() + 16 * r.exits.size() + 16);

        a.emit(HOp::CKPT);

        if (opts.profile) {
            // Execution counter + promotion threshold (equality trip
            // fires exactly once).
            emitCounterBump(opts.execCounterAddr);
            darco_assert(opts.sbThreshold < 16384,
                         "SB threshold exceeds SEQI range");
            a.emit(HOp::SEQI, scratch1, scratch1, 0,
                   s32(opts.sbThreshold));
            a.emit(HOp::BEQ, 0, scratch1, 0, 3);
            a.emit(HOp::COMMIT);
            a.emit(HOp::RETIRE, 0, 0, 0, s32(opts.promoteExitId));
            a.emit(HOp::EXITB, 0, 0, 0, s32(opts.promoteExitId));
        }

        // Body: conditional exits branch forward to stubs.
        struct PendingBranch
        {
            u32 site;
            u32 exitIdx;
        };
        std::vector<PendingBranch> branches;

        for (const IRItem &it : r.items) {
            if (it.kind == IRItem::Kind::CondExit) {
                u8 c = srcInt(it.cond, scratch0);
                bool inv = it.condInvert != opts.flipCondExits;
                u32 site = a.emit(inv ? HOp::BEQ : HOp::BNE,
                                  0, c, 0, 0);
                branches.push_back(PendingBranch{site, it.exitIdx});
                continue;
            }
            emitInst(it.inst);
        }

        // Final exit falls through into its stub.
        res.exitSite[r.finalExit] = emitStub(r.finalExit);

        // Side-exit stubs.
        for (const PendingBranch &pb : branches) {
            u32 stub_start = a.size();
            res.exitSite[pb.exitIdx] = emitStub(pb.exitIdx);
            // Patch the branch displacement (relative to site+1).
            s32 disp = s32(stub_start) - s32(pb.site + 1);
            darco_assert(disp >= -8192 && disp <= 8191,
                         "exit stub out of branch range");
            HInst b = hdecode(a.words()[pb.site]);
            b.imm = disp;
            a.words()[pb.site] = hencode(b);
        }

        res.words = std::move(a.words());
        return std::move(res);
    }
};

} // namespace

CodegenResult
generateCode(const Region &r, const Allocation &alloc,
             const CodegenOptions &opts,
             const std::function<u32(double)> &pool_index)
{
    Gen g(r, alloc, opts, pool_index);
    return g.run();
}

} // namespace darco::tol

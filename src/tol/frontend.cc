#include "tol/frontend.hh"

#include "common/logging.hh"
#include "guest/semantics.hh"

namespace darco::tol
{

using namespace guest;

namespace
{

/** Symbolic record of the last flag-setting operation. */
struct Thunk
{
    enum class Kind : u8
    {
        None, Sub, Add, Logic, ShiftL, ShiftR, Mul, IncDec, Neg, Fcmp,
    };
    Kind kind = Kind::None;
    s32 a = -1;          //!< first operand value
    s32 b = -1;          //!< second operand value (or imm)
    bool bImm = false;
    s32 bImmVal = 0;
    s32 r = -1;          //!< result value (lazily built for CMP)
    s32 hi = -1;         //!< Mul: high 32 bits
    s32 shiftAmt = -1;   //!< Shift: amount value (-1 if immediate)
    s32 shiftImm = 0;
    s32 cfVal = -1;      //!< IncDec: carried-over CF value
    bool isInc = false;
    // Cached materialized flag bits.
    s32 zf = -1, sf = -1, cf = -1, of = -1;
};

struct Builder
{
    Region r;
    FrontendOptions opts;
    std::array<s32, numLocs> locVal;
    std::array<bool, numLocs> locDirty;
    Thunk thunk;
    u32 instsDone = 0;
    u32 bbsDone = 0;
    u32 nextAssertId = 0;
    GAddr curPc = 0;

    explicit Builder(const FrontendOptions &o) : opts(o)
    {
        locVal.fill(-1);
        locDirty.fill(false);
    }

    s32
    newVal()
    {
        return r.numValues++;
    }

    // --- emit helpers ---------------------------------------------------

    s32
    emit(IROp op, s32 src1 = -1, s32 src2 = -1)
    {
        IRInst i;
        i.op = op;
        i.src1 = src1;
        i.src2 = src2;
        i.guestPc = curPc;
        if (irInfo(op).hasDst)
            i.dst = newVal();
        r.append(i);
        return i.dst;
    }

    /** ALU op with immediate second operand. */
    s32
    emitI(IROp op, s32 src1, s32 imm)
    {
        IRInst i;
        i.op = op;
        i.src1 = src1;
        i.src2Imm = true;
        i.imm = imm;
        i.guestPc = curPc;
        i.dst = newVal();
        r.append(i);
        return i.dst;
    }

    s32
    movi(s32 v)
    {
        IRInst i;
        i.op = IROp::Movi;
        i.imm = v;
        i.guestPc = curPc;
        i.dst = newVal();
        r.append(i);
        return i.dst;
    }

    s32
    fconst(double v)
    {
        IRInst i;
        i.op = IROp::FConst;
        i.fimm = v;
        i.guestPc = curPc;
        i.dst = newVal();
        r.append(i);
        return i.dst;
    }

    s32
    load(IROp op, s32 base, s32 disp)
    {
        IRInst i;
        i.op = op;
        i.src1 = base;
        i.imm = disp;
        i.guestPc = curPc;
        i.dst = newVal();
        r.append(i);
        return i.dst;
    }

    void
    store(IROp op, s32 base, s32 disp, s32 val)
    {
        IRInst i;
        i.op = op;
        i.src1 = base;
        i.src2 = val;
        i.imm = disp;
        i.guestPc = curPc;
        r.append(i);
    }

    // --- guest location tracking ---------------------------------------

    s32
    getLoc(u16 loc)
    {
        if (locVal[loc] < 0) {
            IRInst i;
            i.op = IROp::LiveIn;
            i.loc = loc;
            i.guestPc = curPc;
            i.dst = newVal();
            r.append(i);
            locVal[loc] = i.dst;
        }
        return locVal[loc];
    }

    void
    setLoc(u16 loc, s32 v)
    {
        locVal[loc] = v;
        locDirty[loc] = true;
    }

    s32 getGpr(u8 g) { return getLoc(locGpr0 + g); }
    void setGpr(u8 g, s32 v) { setLoc(locGpr0 + g, v); }
    s32 getFpr(u8 f) { return getLoc(locFpr0 + f); }
    void setFpr(u8 f, s32 v) { setLoc(locFpr0 + f, v); }

    // --- flag thunk -----------------------------------------------------

    void
    setThunk(Thunk t)
    {
        thunk = t;
    }

    /** Operand b of the thunk as a value id (materializing an imm). */
    s32
    thunkB()
    {
        if (thunk.bImm) {
            thunk.b = movi(thunk.bImmVal);
            thunk.bImm = false;
        }
        return thunk.b;
    }

    /** Thunk result value (materialize for CMP-style thunks). */
    s32
    thunkR()
    {
        if (thunk.r < 0) {
            darco_assert(thunk.kind == Thunk::Kind::Sub,
                         "only Sub thunks have lazy results");
            thunk.r = thunk.bImm ? emitI(IROp::Sub, thunk.a, thunk.bImmVal)
                                 : emit(IROp::Sub, thunk.a, thunk.b);
        }
        return thunk.r;
    }

    /** Materialize one flag (GFlag bit) from the thunk. */
    s32
    getFlag(u8 flag)
    {
        using K = Thunk::Kind;
        s32 *cache = flag == flagZ   ? &thunk.zf
                     : flag == flagS ? &thunk.sf
                     : flag == flagC ? &thunk.cf
                                     : &thunk.of;
        if (*cache >= 0)
            return *cache;

        s32 v = -1;
        if (thunk.kind == K::None) {
            u16 loc = flag == flagZ   ? locFlagZ
                      : flag == flagS ? locFlagS
                      : flag == flagC ? locFlagC
                                      : locFlagO;
            return getLoc(loc);
        }

        switch (flag) {
          case flagZ:
            if (thunk.kind == K::Sub) {
                v = thunk.bImm ? emitI(IROp::Seq, thunk.a, thunk.bImmVal)
                               : emit(IROp::Seq, thunk.a, thunk.b);
            } else if (thunk.kind == K::Fcmp) {
                v = emit(IROp::FEq, thunk.a, thunk.b);
            } else {
                v = emitI(IROp::Seq, thunkR(), 0);
            }
            break;

          case flagS:
            if (thunk.kind == K::Fcmp)
                v = movi(0);
            else
                v = emitI(IROp::Srl, thunkR(), 31);
            break;

          case flagC:
            switch (thunk.kind) {
              case K::Sub:
                v = thunk.bImm
                        ? emitI(IROp::Sltu, thunk.a, thunk.bImmVal)
                        : emit(IROp::Sltu, thunk.a, thunk.b);
                break;
              case K::Add:
                v = emit(IROp::Sltu, thunkR(), thunk.a);
                break;
              case K::Logic:
                v = movi(0);
                break;
              case K::ShiftL: {
                // last bit shifted out: (a >> ((32-s)&31)) & 1, and 0
                // when s == 0.
                if (thunk.shiftAmt < 0) {
                    if (thunk.shiftImm == 0) {
                        v = movi(0);
                    } else {
                        s32 t = emitI(IROp::Srl, thunk.a,
                                      32 - thunk.shiftImm);
                        v = emitI(IROp::And, t, 1);
                    }
                } else {
                    s32 v32 = movi(32);
                    s32 d = emit(IROp::Sub, v32, thunk.shiftAmt);
                    s32 t = emit(IROp::Srl, thunk.a, d);
                    s32 bit = emitI(IROp::And, t, 1);
                    s32 am = emitI(IROp::And, thunk.shiftAmt, 31);
                    s32 m = emitI(IROp::Sne, am, 0);
                    v = emit(IROp::And, bit, m);
                }
                break;
              }
              case K::ShiftR: {
                if (thunk.shiftAmt < 0) {
                    if (thunk.shiftImm == 0) {
                        v = movi(0);
                    } else {
                        s32 t = emitI(IROp::Srl, thunk.a,
                                      thunk.shiftImm - 1);
                        v = emitI(IROp::And, t, 1);
                    }
                } else {
                    s32 d = emitI(IROp::Add, thunk.shiftAmt, -1);
                    s32 t = emit(IROp::Srl, thunk.a, d);
                    s32 bit = emitI(IROp::And, t, 1);
                    s32 am = emitI(IROp::And, thunk.shiftAmt, 31);
                    s32 m = emitI(IROp::Sne, am, 0);
                    v = emit(IROp::And, bit, m);
                }
                break;
              }
              case K::Mul: {
                s32 t = emitI(IROp::Sra, thunkR(), 31);
                v = emit(IROp::Sne, thunk.hi, t);
                break;
              }
              case K::IncDec:
                v = thunk.cfVal;
                break;
              case K::Neg:
                v = emitI(IROp::Sne, thunk.a, 0);
                break;
              case K::Fcmp: {
                // Guest FCMP sets CF for "less OR unordered" (like
                // x86 ucomisd). FLt alone misses the unordered case,
                // so compute !(b <= a).
                s32 t = emit(IROp::FLe, thunk.b, thunk.a);
                v = emitI(IROp::Xor, t, 1);
                break;
              }
              default:
                panic("bad thunk kind for CF");
            }
            break;

          case flagO:
            switch (thunk.kind) {
              case K::Sub: {
                s32 t1 = thunk.bImm
                             ? emitI(IROp::Xor, thunk.a, thunk.bImmVal)
                             : emit(IROp::Xor, thunk.a, thunk.b);
                s32 t2 = emit(IROp::Xor, thunk.a, thunkR());
                s32 t3 = emit(IROp::And, t1, t2);
                v = emitI(IROp::Srl, t3, 31);
                break;
              }
              case K::Add: {
                s32 t1 = thunk.bImm
                             ? emitI(IROp::Xor, thunk.a, thunk.bImmVal)
                             : emit(IROp::Xor, thunk.a, thunk.b);
                s32 t1n = emitI(IROp::Xor, t1, -1);
                s32 t2 = emit(IROp::Xor, thunk.a, thunkR());
                s32 t3 = emit(IROp::And, t1n, t2);
                v = emitI(IROp::Srl, t3, 31);
                break;
              }
              case K::Logic:
              case K::ShiftL:
              case K::ShiftR:
              case K::Fcmp:
                v = movi(0);
                break;
              case K::Mul:
                v = getFlag(flagC);
                break;
              case K::IncDec:
                v = emitI(IROp::Seq, thunkR(),
                          thunk.isInc ? s32(0x80000000) : 0x7fffffff);
                break;
              case K::Neg:
                v = emitI(IROp::Seq, thunk.a, s32(0x80000000));
                break;
              default:
                panic("bad thunk kind for OF");
            }
            break;
        }
        *cache = v;
        return v;
    }

    /** Value that is 1 iff condition c holds. */
    s32
    getCond(GCond c)
    {
        using K = Thunk::Kind;
        // Fast path: fuse against a subtract/compare thunk.
        if (opts.fuseFlags && thunk.kind == K::Sub) {
            s32 a = thunk.a;
            switch (c) {
              case GCond::EQ:
                return thunk.bImm ? emitI(IROp::Seq, a, thunk.bImmVal)
                                  : emit(IROp::Seq, a, thunk.b);
              case GCond::NE:
                return thunk.bImm ? emitI(IROp::Sne, a, thunk.bImmVal)
                                  : emit(IROp::Sne, a, thunk.b);
              case GCond::LT:
                return thunk.bImm ? emitI(IROp::Slt, a, thunk.bImmVal)
                                  : emit(IROp::Slt, a, thunk.b);
              case GCond::GE:
                return thunk.bImm ? emitI(IROp::Sge, a, thunk.bImmVal)
                                  : emit(IROp::Sge, a, thunk.b);
              case GCond::LE:
                return emit(IROp::Sge, thunkB(), a);
              case GCond::GT:
                return emit(IROp::Slt, thunkB(), a);
              case GCond::B:
                return thunk.bImm ? emitI(IROp::Sltu, a, thunk.bImmVal)
                                  : emit(IROp::Sltu, a, thunk.b);
              case GCond::AE:
                return thunk.bImm ? emitI(IROp::Sgeu, a, thunk.bImmVal)
                                  : emit(IROp::Sgeu, a, thunk.b);
              case GCond::BE:
                return emit(IROp::Sgeu, thunkB(), a);
              case GCond::A:
                return emit(IROp::Sltu, thunkB(), a);
              case GCond::S:
                return getFlag(flagS);
              case GCond::NS:
                return emitI(IROp::Xor, getFlag(flagS), 1);
              default:
                break;
            }
        }
        // Generic path via individual flags.
        switch (c) {
          case GCond::EQ:
            return getFlag(flagZ);
          case GCond::NE:
            return emitI(IROp::Xor, getFlag(flagZ), 1);
          case GCond::LT:
            return emit(IROp::Xor, getFlag(flagS), getFlag(flagO));
          case GCond::GE: {
            s32 lt = emit(IROp::Xor, getFlag(flagS), getFlag(flagO));
            return emitI(IROp::Xor, lt, 1);
          }
          case GCond::LE: {
            s32 lt = emit(IROp::Xor, getFlag(flagS), getFlag(flagO));
            return emit(IROp::Or, getFlag(flagZ), lt);
          }
          case GCond::GT: {
            s32 lt = emit(IROp::Xor, getFlag(flagS), getFlag(flagO));
            s32 le = emit(IROp::Or, getFlag(flagZ), lt);
            return emitI(IROp::Xor, le, 1);
          }
          case GCond::B:
            return getFlag(flagC);
          case GCond::AE:
            return emitI(IROp::Xor, getFlag(flagC), 1);
          case GCond::BE:
            return emit(IROp::Or, getFlag(flagC), getFlag(flagZ));
          case GCond::A: {
            s32 be = emit(IROp::Or, getFlag(flagC), getFlag(flagZ));
            return emitI(IROp::Xor, be, 1);
          }
          case GCond::S:
            return getFlag(flagS);
          case GCond::NS:
            return emitI(IROp::Xor, getFlag(flagS), 1);
          default:
            panic("bad condition");
        }
    }

    // --- memory operands -------------------------------------------------

    /** Effective address as (base value, folded displacement). */
    std::pair<s32, s32>
    ea(const GInst &i)
    {
        auto fold = [&](s32 base, s32 disp) -> std::pair<s32, s32> {
            if (disp >= -8192 && disp <= 8191)
                return {base, disp};
            s32 d = movi(disp);
            return {emit(IROp::Add, base, d), 0};
        };
        switch (i.memMode) {
          case memBase:
            return {getGpr(i.memBase), 0};
          case memBaseD8:
          case memBaseD32:
            return fold(getGpr(i.memBase), i.disp);
          case memSib: {
            s32 idx = getGpr(i.memIndex);
            s32 scaled =
                i.memScale ? emitI(IROp::Sll, idx, i.memScale) : idx;
            s32 base = emit(IROp::Add, getGpr(i.memBase), scaled);
            return fold(base, i.disp);
          }
          case memAbs:
            return {movi(i.disp), 0};
          default:
            panic("ea: bad memMode");
        }
    }

    /** Full effective address as a single value (LEA). */
    s32
    eaValue(const GInst &i)
    {
        auto [base, disp] = ea(i);
        return disp ? emitI(IROp::Add, base, disp) : base;
    }

    // --- exits -----------------------------------------------------------

    /** Materialize flags (if touched) and collect dirty locations. */
    std::vector<std::pair<u16, s32>>
    collectLiveOuts()
    {
        if (thunk.kind != Thunk::Kind::None) {
            setLoc(locFlagZ, getFlag(flagZ));
            setLoc(locFlagS, getFlag(flagS));
            setLoc(locFlagC, getFlag(flagC));
            setLoc(locFlagO, getFlag(flagO));
        }
        std::vector<std::pair<u16, s32>> outs;
        for (u16 loc = 0; loc < numLocs; ++loc) {
            if (locDirty[loc])
                outs.emplace_back(loc, locVal[loc]);
        }
        return outs;
    }

    u32
    makeExit(ExitKind kind, GAddr target, s32 target_val,
             u32 extra_insts, u32 extra_bbs)
    {
        IRExit x;
        x.kind = kind;
        x.target = target;
        x.targetVal = target_val;
        x.instsRetired = instsDone + extra_insts;
        x.bbsRetired = bbsDone + extra_bbs;
        x.liveOuts = collectLiveOuts();
        x.chainable = kind == ExitKind::Direct;
        r.exits.push_back(std::move(x));
        return u32(r.exits.size() - 1);
    }

    void
    condExit(s32 cond, bool invert, u32 exit_idx)
    {
        IRItem it;
        it.kind = IRItem::Kind::CondExit;
        it.cond = cond;
        it.condInvert = invert;
        it.exitIdx = exit_idx;
        r.items.push_back(it);
    }

    void
    assertCond(s32 cond, bool expect_nonzero)
    {
        IRInst i;
        i.op = IROp::Assert;
        i.src1 = cond;
        i.expectNonZero = expect_nonzero;
        i.assertId = nextAssertId++;
        i.guestPc = curPc;
        r.append(i);
        r.hasAsserts = true;
    }

    // --- instruction translation ------------------------------------------

    /** Translate one non-CTI instruction. */
    void translateBody(const GInst &i);

    /** Trig expansion shared by FSIN/FCOS. */
    s32
    trigExpand(s32 x, bool is_sin)
    {
        s32 inv = fconst(trig::invTwoPi);
        s32 t = emit(IROp::FMul, x, inv);
        s32 k = emit(IROp::FRnd, t);
        s32 tp = fconst(trig::twoPi);
        s32 m = emit(IROp::FMul, k, tp);
        s32 red = emit(IROp::FSub, x, m);
        s32 r2 = emit(IROp::FMul, red, red);
        const double *c = is_sin ? trig::sinC : trig::cosC;
        unsigned n = is_sin ? trig::sinTerms : trig::cosTerms;
        s32 p = fconst(c[n - 1]);
        for (int j = int(n) - 2; j >= 0; --j) {
            s32 pm = emit(IROp::FMul, p, r2);
            s32 ck = fconst(c[j]);
            p = emit(IROp::FAdd, pm, ck);
        }
        return is_sin ? emit(IROp::FMul, p, red) : p;
    }
};

void
Builder::translateBody(const GInst &i)
{
    using K = Thunk::Kind;

    auto aluRR = [&](IROp op, K tk) {
        s32 a = getGpr(i.rd);
        s32 b = getGpr(i.rs);
        s32 res = emit(op, a, b);
        setGpr(i.rd, res);
        Thunk t;
        t.kind = tk;
        t.a = a;
        t.b = b;
        t.r = res;
        setThunk(t);
    };
    auto aluRI = [&](IROp op, K tk) {
        s32 a = getGpr(i.rd);
        s32 res = emitI(op, a, i.imm);
        setGpr(i.rd, res);
        Thunk t;
        t.kind = tk;
        t.a = a;
        t.bImm = true;
        t.bImmVal = i.imm;
        t.r = res;
        setThunk(t);
    };

    switch (i.op) {
      case GOp::NOP:
        break;

      case GOp::MOVSB:
      case GOp::MOVSW:
      case GOp::STOSB:
      case GOp::STOSW: {
        darco_assert(!i.rep, "REP ops never reach translateBody");
        const bool isMov = i.op == GOp::MOVSB || i.op == GOp::MOVSW;
        const bool byte = i.info().memWidth == 1;
        s32 rdi = getGpr(RDI);
        s32 v;
        if (isMov) {
            s32 rsi = getGpr(RSI);
            v = load(byte ? IROp::Ld8u : IROp::Ld32, rsi, 0);
            setGpr(RSI, emitI(IROp::Add, rsi, byte ? 1 : 4));
        } else {
            v = getGpr(RAX);
        }
        store(byte ? IROp::St8 : IROp::St32, rdi, 0, v);
        setGpr(RDI, emitI(IROp::Add, rdi, byte ? 1 : 4));
        break;
      }

      case GOp::NOT: {
        s32 a = getGpr(i.rd);
        setGpr(i.rd, emitI(IROp::Xor, a, -1));
        break;
      }
      case GOp::NEG: {
        s32 a = getGpr(i.rd);
        s32 z = movi(0);
        s32 res = emit(IROp::Sub, z, a);
        setGpr(i.rd, res);
        Thunk t;
        t.kind = K::Neg;
        t.a = a;
        t.r = res;
        setThunk(t);
        break;
      }
      case GOp::INC:
      case GOp::DEC: {
        s32 cf_prev = getFlag(flagC); // capture before replacing thunk
        s32 a = getGpr(i.rd);
        bool inc = i.op == GOp::INC;
        s32 res = emitI(IROp::Add, a, inc ? 1 : -1);
        setGpr(i.rd, res);
        Thunk t;
        t.kind = K::IncDec;
        t.a = a;
        t.r = res;
        t.isInc = inc;
        t.cfVal = cf_prev;
        setThunk(t);
        break;
      }
      case GOp::PUSH: {
        s32 v = getGpr(i.rd);
        s32 sp = getGpr(RSP);
        store(IROp::St32, sp, -4, v);
        setGpr(RSP, emitI(IROp::Add, sp, -4));
        break;
      }
      case GOp::POP: {
        s32 sp = getGpr(RSP);
        s32 v = load(IROp::Ld32, sp, 0);
        setGpr(i.rd, v);
        setGpr(RSP, emitI(IROp::Add, getGpr(RSP), 4));
        break;
      }

      case GOp::MOV_RR:
        setGpr(i.rd, getGpr(i.rs));
        break;
      case GOp::MOV_RI:
        setGpr(i.rd, movi(i.imm));
        break;

      case GOp::ADD_RR:
        aluRR(IROp::Add, K::Add);
        break;
      case GOp::ADD_RI:
      case GOp::ADD_RI8:
        aluRI(IROp::Add, K::Add);
        break;
      case GOp::SUB_RR:
        aluRR(IROp::Sub, K::Sub);
        break;
      case GOp::SUB_RI:
        aluRI(IROp::Sub, K::Sub);
        break;
      case GOp::AND_RR:
        aluRR(IROp::And, K::Logic);
        break;
      case GOp::AND_RI:
        aluRI(IROp::And, K::Logic);
        break;
      case GOp::OR_RR:
        aluRR(IROp::Or, K::Logic);
        break;
      case GOp::OR_RI:
        aluRI(IROp::Or, K::Logic);
        break;
      case GOp::XOR_RR:
        aluRR(IROp::Xor, K::Logic);
        break;
      case GOp::XOR_RI:
        aluRI(IROp::Xor, K::Logic);
        break;

      case GOp::CMP_RR: {
        s32 a = getGpr(i.rd);
        s32 b = getGpr(i.rs);
        Thunk t;
        t.kind = K::Sub;
        t.a = a;
        t.b = b;
        setThunk(t);
        break;
      }
      case GOp::CMP_RI:
      case GOp::CMP_RI8: {
        s32 a = getGpr(i.rd);
        Thunk t;
        t.kind = K::Sub;
        t.a = a;
        t.bImm = true;
        t.bImmVal = i.imm;
        setThunk(t);
        break;
      }
      case GOp::TEST_RR: {
        s32 a = getGpr(i.rd);
        s32 b = getGpr(i.rs);
        s32 res = emit(IROp::And, a, b);
        Thunk t;
        t.kind = K::Logic;
        t.r = res;
        setThunk(t);
        break;
      }
      case GOp::TEST_RI: {
        s32 a = getGpr(i.rd);
        s32 res = emitI(IROp::And, a, i.imm);
        Thunk t;
        t.kind = K::Logic;
        t.r = res;
        setThunk(t);
        break;
      }

      case GOp::IMUL_RR:
      case GOp::IMUL_RI: {
        s32 a = getGpr(i.rd);
        s32 b, res, hi;
        if (i.op == GOp::IMUL_RR) {
            b = getGpr(i.rs);
            res = emit(IROp::Mul, a, b);
            hi = emit(IROp::MulH, a, b);
        } else {
            b = -1;
            res = emitI(IROp::Mul, a, i.imm);
            hi = emitI(IROp::MulH, a, i.imm);
        }
        setGpr(i.rd, res);
        Thunk t;
        t.kind = K::Mul;
        t.a = a;
        t.r = res;
        t.hi = hi;
        setThunk(t);
        break;
      }

      case GOp::IDIV_RR: {
        s32 a = getGpr(i.rd);
        s32 b = getGpr(i.rs);
        setGpr(i.rd, emit(IROp::Div, a, b));
        break;
      }
      case GOp::IREM_RR: {
        s32 a = getGpr(i.rd);
        s32 b = getGpr(i.rs);
        setGpr(i.rd, emit(IROp::Rem, a, b));
        break;
      }

      case GOp::SHL_RR:
      case GOp::SHR_RR:
      case GOp::SAR_RR: {
        s32 a = getGpr(i.rd);
        s32 s = getGpr(i.rs);
        IROp op = i.op == GOp::SHL_RR   ? IROp::Sll
                  : i.op == GOp::SHR_RR ? IROp::Srl
                                        : IROp::Sra;
        s32 res = emit(op, a, s);
        setGpr(i.rd, res);
        Thunk t;
        t.kind = i.op == GOp::SHL_RR ? K::ShiftL : K::ShiftR;
        t.a = a;
        t.r = res;
        t.shiftAmt = s;
        setThunk(t);
        break;
      }
      case GOp::SHL_RI8:
      case GOp::SHR_RI8:
      case GOp::SAR_RI8: {
        s32 a = getGpr(i.rd);
        s32 amt = i.imm & 31;
        IROp op = i.op == GOp::SHL_RI8   ? IROp::Sll
                  : i.op == GOp::SHR_RI8 ? IROp::Srl
                                         : IROp::Sra;
        s32 res = emitI(op, a, amt);
        setGpr(i.rd, res);
        Thunk t;
        t.kind = i.op == GOp::SHL_RI8 ? K::ShiftL : K::ShiftR;
        t.a = a;
        t.r = res;
        t.shiftImm = amt;
        setThunk(t);
        break;
      }

      // --- loads ----------------------------------------------------------
      case GOp::MOV_RM: {
        auto [b, d] = ea(i);
        setGpr(i.rd, load(IROp::Ld32, b, d));
        break;
      }
      case GOp::MOVZX8_RM: {
        auto [b, d] = ea(i);
        setGpr(i.rd, load(IROp::Ld8u, b, d));
        break;
      }
      case GOp::MOVZX16_RM: {
        auto [b, d] = ea(i);
        setGpr(i.rd, load(IROp::Ld16u, b, d));
        break;
      }
      case GOp::MOVSX8_RM: {
        auto [b, d] = ea(i);
        setGpr(i.rd, load(IROp::Ld8s, b, d));
        break;
      }
      case GOp::MOVSX16_RM: {
        auto [b, d] = ea(i);
        setGpr(i.rd, load(IROp::Ld16s, b, d));
        break;
      }
      case GOp::LEA:
        setGpr(i.rd, eaValue(i));
        break;
      case GOp::ADD_RM: {
        auto [b, d] = ea(i);
        s32 m = load(IROp::Ld32, b, d);
        s32 a = getGpr(i.rd);
        s32 res = emit(IROp::Add, a, m);
        setGpr(i.rd, res);
        Thunk t;
        t.kind = K::Add;
        t.a = a;
        t.b = m;
        t.r = res;
        setThunk(t);
        break;
      }
      case GOp::CMP_RM: {
        auto [b, d] = ea(i);
        s32 m = load(IROp::Ld32, b, d);
        s32 a = getGpr(i.rd);
        Thunk t;
        t.kind = K::Sub;
        t.a = a;
        t.b = m;
        setThunk(t);
        break;
      }

      // --- stores ----------------------------------------------------------
      case GOp::MOV_MR: {
        auto [b, d] = ea(i);
        store(IROp::St32, b, d, getGpr(i.rd));
        break;
      }
      case GOp::MOV8_MR: {
        auto [b, d] = ea(i);
        store(IROp::St8, b, d, getGpr(i.rd));
        break;
      }
      case GOp::MOV16_MR: {
        auto [b, d] = ea(i);
        store(IROp::St16, b, d, getGpr(i.rd));
        break;
      }
      case GOp::ADD_MR: {
        auto [b, d] = ea(i);
        s32 m = load(IROp::Ld32, b, d);
        s32 a = getGpr(i.rd);
        s32 res = emit(IROp::Add, m, a);
        store(IROp::St32, b, d, res);
        Thunk t;
        t.kind = K::Add;
        t.a = m;
        t.b = a;
        t.r = res;
        setThunk(t);
        break;
      }

      // --- conditional data --------------------------------------------------
      case GOp::SETCC:
        setGpr(i.rd, getCond(i.cond));
        break;
      case GOp::CMOVCC: {
        s32 c = getCond(i.cond);
        s32 z = movi(0);
        s32 mask = emit(IROp::Sub, z, c);
        s32 t1 = emit(IROp::And, getGpr(i.rs), mask);
        s32 nm = emitI(IROp::Xor, mask, -1);
        s32 t2 = emit(IROp::And, getGpr(i.rd), nm);
        setGpr(i.rd, emit(IROp::Or, t1, t2));
        break;
      }

      // --- floating point ------------------------------------------------------
      case GOp::FMOV:
        setFpr(i.rd, getFpr(i.rs));
        break;
      case GOp::FADD:
        setFpr(i.rd, emit(IROp::FAdd, getFpr(i.rd), getFpr(i.rs)));
        break;
      case GOp::FSUB:
        setFpr(i.rd, emit(IROp::FSub, getFpr(i.rd), getFpr(i.rs)));
        break;
      case GOp::FMUL:
        setFpr(i.rd, emit(IROp::FMul, getFpr(i.rd), getFpr(i.rs)));
        break;
      case GOp::FDIV:
        setFpr(i.rd, emit(IROp::FDiv, getFpr(i.rd), getFpr(i.rs)));
        break;
      case GOp::FSQRT:
        setFpr(i.rd, emit(IROp::FSqrt, getFpr(i.rs)));
        break;
      case GOp::FABS:
        setFpr(i.rd, emit(IROp::FAbs, getFpr(i.rs)));
        break;
      case GOp::FNEG:
        setFpr(i.rd, emit(IROp::FNeg, getFpr(i.rs)));
        break;
      case GOp::FSIN:
        setFpr(i.rd, trigExpand(getFpr(i.rs), true));
        break;
      case GOp::FCOS:
        setFpr(i.rd, trigExpand(getFpr(i.rs), false));
        break;
      case GOp::FCMP: {
        s32 a = getFpr(i.rd);
        s32 b = getFpr(i.rs);
        Thunk t;
        t.kind = K::Fcmp;
        t.a = a;
        t.b = b;
        setThunk(t);
        break;
      }
      case GOp::CVTIF:
        setFpr(i.rd, emit(IROp::FCvtWD, getGpr(i.rs)));
        break;
      case GOp::CVTFI:
        setGpr(i.rd, emit(IROp::FCvtZW, getFpr(i.rs)));
        break;
      case GOp::FLD: {
        auto [b, d] = ea(i);
        setFpr(i.rd, load(IROp::FLd, b, d));
        break;
      }
      case GOp::FST: {
        auto [b, d] = ea(i);
        store(IROp::FSt, b, d, getFpr(i.rd));
        break;
      }

      default:
        panic("translateBody: unexpected opcode ", gopName(i.op));
    }
}

} // namespace

Frontend::Frontend(const FrontendOptions &opts) : opts_(opts) {}

Region
Frontend::build(GAddr entry_pc, RegionMode mode,
                const std::vector<PathElem> &path,
                std::optional<TripCheck> trip,
                std::optional<EndSpec> end)
{
    darco_assert(!path.empty(), "empty translation path");
    Builder b(opts_);
    // Room for a typical expansion, so the item list rarely regrows.
    b.r.items.reserve(4 * path.size() + 8);
    b.r.entryPc = entry_pc;
    b.r.mode = mode;
    b.curPc = entry_pc;

    if (trip) {
        // if (counter < factor) exit to IM at the entry pc: the
        // residual ("original loop") executes in the interpreter.
        s32 cnt = b.getGpr(trip->reg);
        s32 c = b.emitI(IROp::Sltu, cnt, s32(trip->factor));
        u32 x = b.makeExit(ExitKind::Interp, entry_pc, -1, 0, 0);
        b.condExit(c, false, x);
    }

    bool terminated = false;
    for (std::size_t k = 0; k < path.size(); ++k) {
        const PathElem &e = path[k];
        const GInst &i = e.inst;
        b.curPc = e.pc;
        darco_assert(!terminated, "path continues past terminator");

        if (!i.isCti()) {
            b.translateBody(i);
            ++b.instsDone;
            continue;
        }

        const GAddr next_pc = e.pc + i.length;
        switch (i.op) {
          case GOp::JMP_REL8:
          case GOp::JMP_REL32:
            if (e.disp == BranchDisp::ElideTaken) {
                ++b.instsDone;
                ++b.bbsDone;
            } else {
                u32 x = b.makeExit(ExitKind::Direct, i.target(e.pc), -1,
                                   1, 1);
                b.r.finalExit = x;
                terminated = true;
            }
            break;

          case GOp::CALL_REL32: {
            s32 ret = b.movi(s32(next_pc));
            s32 sp = b.getGpr(RSP);
            b.store(IROp::St32, sp, -4, ret);
            b.setGpr(RSP, b.emitI(IROp::Add, sp, -4));
            u32 x =
                b.makeExit(ExitKind::Direct, i.target(e.pc), -1, 1, 1);
            b.r.finalExit = x;
            terminated = true;
            break;
          }

          case GOp::CALLR: {
            s32 target = b.getGpr(i.rd);
            s32 ret = b.movi(s32(next_pc));
            s32 sp = b.getGpr(RSP);
            b.store(IROp::St32, sp, -4, ret);
            b.setGpr(RSP, b.emitI(IROp::Add, sp, -4));
            u32 x = b.makeExit(ExitKind::Indirect, 0, target, 1, 1);
            b.r.finalExit = x;
            terminated = true;
            break;
          }

          case GOp::JMPR: {
            s32 target = b.getGpr(i.rd);
            u32 x = b.makeExit(ExitKind::Indirect, 0, target, 1, 1);
            b.r.finalExit = x;
            terminated = true;
            break;
          }

          case GOp::RET: {
            s32 sp = b.getGpr(RSP);
            s32 target = b.load(IROp::Ld32, sp, 0);
            b.setGpr(RSP, b.emitI(IROp::Add, sp, 4));
            u32 x = b.makeExit(ExitKind::Indirect, 0, target, 1, 1);
            b.r.finalExit = x;
            terminated = true;
            break;
          }

          case GOp::SYSCALL: {
            u32 x = b.makeExit(ExitKind::Syscall, e.pc, -1, 0, 0);
            b.r.finalExit = x;
            terminated = true;
            break;
          }
          case GOp::HLT: {
            u32 x = b.makeExit(ExitKind::Halt, e.pc, -1, 0, 0);
            b.r.finalExit = x;
            terminated = true;
            break;
          }

          case GOp::JCC_REL8:
          case GOp::JCC_REL32: {
            const GAddr taken_pc = i.target(e.pc);
            switch (e.disp) {
              case BranchDisp::Final: {
                s32 c = b.getCond(i.cond);
                u32 xt =
                    b.makeExit(ExitKind::Direct, taken_pc, -1, 1, 1);
                b.condExit(c, false, xt);
                u32 xf =
                    b.makeExit(ExitKind::Direct, next_pc, -1, 1, 1);
                b.r.finalExit = xf;
                terminated = true;
                break;
              }
              case BranchDisp::AssertTaken: {
                s32 c = b.getCond(i.cond);
                b.assertCond(c, true);
                ++b.instsDone;
                ++b.bbsDone;
                break;
              }
              case BranchDisp::AssertNotTaken: {
                s32 c = b.getCond(i.cond);
                b.assertCond(c, false);
                ++b.instsDone;
                ++b.bbsDone;
                break;
              }
              case BranchDisp::ExitTaken: {
                s32 c = b.getCond(i.cond);
                u32 x =
                    b.makeExit(ExitKind::Direct, taken_pc, -1, 1, 1);
                b.condExit(c, false, x);
                ++b.instsDone;
                ++b.bbsDone;
                break;
              }
              case BranchDisp::ExitNotTaken: {
                s32 c = b.getCond(i.cond);
                u32 x =
                    b.makeExit(ExitKind::Direct, next_pc, -1, 1, 1);
                b.condExit(c, true, x);
                ++b.instsDone;
                ++b.bbsDone;
                break;
              }
              case BranchDisp::ElideTaken:
                ++b.instsDone;
                ++b.bbsDone;
                break;
            }
            break;
          }

          default:
            panic("unhandled CTI ", gopName(i.op));
        }
    }

    if (!terminated) {
        darco_assert(end.has_value(),
                     "path fell off the end without an EndSpec");
        u32 x = b.makeExit(end->kind, end->target, -1, 0, 0);
        b.r.finalExit = x;
    }

    // Tol::prepare verifies the region once, after the passes.
    return std::move(b.r);
}

} // namespace darco::tol

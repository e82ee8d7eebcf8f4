#include "host/trace.hh"

namespace darco::host
{

namespace
{

/** Map a host opcode to its execution class. */
InstClass
classify(HOp op)
{
    switch (op) {
      case HOp::MUL:
      case HOp::MULH:
        return InstClass::IntMul;
      case HOp::DIV:
      case HOp::REM:
        return InstClass::IntDiv;
      case HOp::FADD:
      case HOp::FSUB:
      case HOp::FABS:
      case HOp::FNEG:
      case HOp::FMOV:
      case HOp::FRND:
      case HOp::FCVTWD:
      case HOp::FCVTZW:
      case HOp::FEQ:
      case HOp::FLT:
      case HOp::FLE:
        return InstClass::FpAlu;
      case HOp::FMUL:
        return InstClass::FpMul;
      case HOp::FDIV:
      case HOp::FSQRT:
        return InstClass::FpDiv;
      case HOp::LB:
      case HOp::LBU:
      case HOp::LH:
      case HOp::LHU:
      case HOp::LW:
      case HOp::LWS:
      case HOp::FLD:
      case HOp::FLDS:
      case HOp::LWL:
      case HOp::FLDL:
      case HOp::FLDC:
        return InstClass::Load;
      case HOp::SB:
      case HOp::SH:
      case HOp::SW:
      case HOp::FST:
      case HOp::SBC:
      case HOp::SHC:
      case HOp::SWC:
      case HOp::FSTC:
      case HOp::SWL:
      case HOp::FSTL:
        return InstClass::Store;
      case HOp::BEQ:
      case HOp::BNE:
      case HOp::BLT:
      case HOp::BGE:
      case HOp::BLTU:
      case HOp::BGEU:
        return InstClass::Branch;
      case HOp::J:
      case HOp::IBTC:
      case HOp::EXITB:
        return InstClass::Jump;
      case HOp::CKPT:
      case HOp::COMMIT:
      case HOp::ASSERTZ:
      case HOp::ASSERTNZ:
      case HOp::RETIRE:
        return InstClass::Other;
      default:
        return InstClass::IntAlu;
    }
}

} // namespace

TraceTemplate
traceTemplate(const HInst &i)
{
    const HOpInfo &info = i.info();
    TraceTemplate t;
    t.cls = classify(i.op);
    auto ir = [](u8 r) { return r; };
    auto fr = [](u8 r) { return u8(r | regFpBit); };

    switch (info.fmt) {
      case HFmt::N:
        break;
      case HFmt::R:
        switch (i.op) {
          case HOp::IBTC:
            t.src1 = ir(i.rs1);
            break;
          case HOp::FEQ:
          case HOp::FLT:
          case HOp::FLE:
            t.dst = ir(i.rd);
            t.src1 = fr(i.rs1);
            t.src2 = fr(i.rs2);
            break;
          case HOp::FCVTWD:
            t.dst = fr(i.rd);
            t.src1 = ir(i.rs1);
            break;
          case HOp::FCVTZW:
            t.dst = ir(i.rd);
            t.src1 = fr(i.rs1);
            break;
          case HOp::FSQRT:
          case HOp::FABS:
          case HOp::FNEG:
          case HOp::FMOV:
          case HOp::FRND:
            t.dst = fr(i.rd);
            t.src1 = fr(i.rs1);
            break;
          default:
            if (info.isFp) {
                t.dst = fr(i.rd);
                t.src1 = fr(i.rs1);
                t.src2 = fr(i.rs2);
            } else {
                t.dst = ir(i.rd);
                t.src1 = ir(i.rs1);
                t.src2 = ir(i.rs2);
            }
            break;
        }
        break;
      case HFmt::I:
        t.dst = info.isFp ? fr(i.rd) : ir(i.rd);
        t.src1 = ir(i.rs1);
        break;
      case HFmt::B:
        if (info.isStore) {
            t.src1 = ir(i.rs1);
            t.src2 = info.isFp ? fr(i.rs2) : ir(i.rs2);
        } else if (info.isBranch) {
            t.src1 = ir(i.rs1);
            t.src2 = ir(i.rs2);
        } else {
            // asserts
            t.src1 = ir(i.rs1);
        }
        break;
      case HFmt::U:
        t.dst = info.isFp ? fr(i.rd) : ir(i.rd);
        break;
      case HFmt::J:
        break;
    }
    // r0 is hardwired zero: no dependency through it.
    if (t.dst == 0)
        t.dst = noReg;
    if (t.src1 == 0)
        t.src1 = noReg;
    if (t.src2 == 0)
        t.src2 = noReg;
    return t;
}

} // namespace darco::host

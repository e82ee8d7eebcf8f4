#include "host/hisa.hh"

#include <sstream>

#include "common/bitutil.hh"
#include "common/logging.hh"

namespace darco::host
{

namespace
{

constexpr HOpInfo
op(const char *name, HFmt fmt, bool ld = false, bool st = false,
   bool fp = false, bool br = false)
{
    return HOpInfo{name, fmt, ld, st, fp, br};
}

} // namespace

const HOpInfo hopTable[] = {
    op("nop", HFmt::N),
    // R ALU
    op("add", HFmt::R), op("sub", HFmt::R), op("mul", HFmt::R),
    op("mulh", HFmt::R),
    op("div", HFmt::R), op("rem", HFmt::R),
    op("and", HFmt::R), op("or", HFmt::R), op("xor", HFmt::R),
    op("sll", HFmt::R), op("srl", HFmt::R), op("sra", HFmt::R),
    op("slt", HFmt::R), op("sltu", HFmt::R), op("seq", HFmt::R),
    op("sne", HFmt::R), op("sge", HFmt::R), op("sgeu", HFmt::R),
    // I ALU
    op("addi", HFmt::I), op("andi", HFmt::I), op("ori", HFmt::I),
    op("xori", HFmt::I),
    op("slli", HFmt::I), op("srli", HFmt::I), op("srai", HFmt::I),
    op("slti", HFmt::I), op("seqi", HFmt::I), op("snei", HFmt::I),
    // U
    op("lui", HFmt::U),
    // guest loads
    op("lb", HFmt::I, true), op("lbu", HFmt::I, true),
    op("lh", HFmt::I, true), op("lhu", HFmt::I, true),
    op("lw", HFmt::I, true),
    op("lw.s", HFmt::I, true),
    op("fld", HFmt::I, true, false, true),
    op("fld.s", HFmt::I, true, false, true),
    // guest stores
    op("sb", HFmt::B, false, true), op("sh", HFmt::B, false, true),
    op("sw", HFmt::B, false, true),
    op("fst", HFmt::B, false, true, true),
    op("sb.c", HFmt::B, false, true), op("sh.c", HFmt::B, false, true),
    op("sw.c", HFmt::B, false, true),
    op("fst.c", HFmt::B, false, true, true),
    // TOL-local memory
    op("lwl", HFmt::I, true), op("swl", HFmt::B, false, true),
    op("fldl", HFmt::I, true, false, true),
    op("fstl", HFmt::B, false, true, true),
    // constant pool
    op("fldc", HFmt::U, true, false, true),
    // FP
    op("fadd", HFmt::R, false, false, true),
    op("fsub", HFmt::R, false, false, true),
    op("fmul", HFmt::R, false, false, true),
    op("fdiv", HFmt::R, false, false, true),
    op("fsqrt", HFmt::R, false, false, true),
    op("fabs", HFmt::R, false, false, true),
    op("fneg", HFmt::R, false, false, true),
    op("fmov", HFmt::R, false, false, true),
    op("frnd", HFmt::R, false, false, true),
    op("fcvtwd", HFmt::R, false, false, true),
    op("fcvtzw", HFmt::R, false, false, true),
    op("feq", HFmt::R, false, false, true),
    op("flt", HFmt::R, false, false, true),
    op("fle", HFmt::R, false, false, true),
    // branches
    op("beq", HFmt::B, false, false, false, true),
    op("bne", HFmt::B, false, false, false, true),
    op("blt", HFmt::B, false, false, false, true),
    op("bge", HFmt::B, false, false, false, true),
    op("bltu", HFmt::B, false, false, false, true),
    op("bgeu", HFmt::B, false, false, false, true),
    // jump
    op("j", HFmt::J),
    // co-design
    op("ckpt", HFmt::N),
    op("commit", HFmt::N),
    op("assertz", HFmt::B),
    op("assertnz", HFmt::B),
    op("ibtc", HFmt::R),
    op("exitb", HFmt::J),
    op("retire", HFmt::J),
};

static_assert(sizeof(hopTable) / sizeof(hopTable[0]) ==
                  std::size_t(HOp::NumOps),
              "host opcode table out of sync");

u32
hencode(const HInst &i)
{
    const HOpInfo &info = hopInfo(i.op);
    u32 w = u32(i.op) << 24;
    switch (info.fmt) {
      case HFmt::N:
        break;
      case HFmt::R:
        w |= u32(i.rd & 31) << 19;
        w |= u32(i.rs1 & 31) << 14;
        w |= u32(i.rs2 & 31) << 9;
        break;
      case HFmt::I:
        darco_assert(fitsSigned(i.imm, 14) ||
                         (i.imm >= 0 && i.imm < (1 << 14)),
                     "imm14 out of range: ", i.imm);
        w |= u32(i.rd & 31) << 19;
        w |= u32(i.rs1 & 31) << 14;
        w |= u32(i.imm) & 0x3fff;
        break;
      case HFmt::B:
        darco_assert(fitsSigned(i.imm, 14) ||
                         (i.imm >= 0 && i.imm < (1 << 14)),
                     "imm14 out of range: ", i.imm);
        w |= u32(i.rs1 & 31) << 19;
        w |= u32(i.rs2 & 31) << 14;
        w |= u32(i.imm) & 0x3fff;
        break;
      case HFmt::U:
        darco_assert(i.imm >= 0 && i.imm < (1 << 19),
                     "imm19 out of range: ", i.imm);
        w |= u32(i.rd & 31) << 19;
        w |= u32(i.imm) & 0x7ffff;
        break;
      case HFmt::J:
        darco_assert(i.imm >= 0 && i.imm < (1 << 24),
                     "imm24 out of range: ", i.imm);
        w |= u32(i.imm) & 0xffffff;
        break;
    }
    return w;
}

HInst
hdecode(u32 w)
{
    HInst i;
    u32 opb = w >> 24;
    darco_assert(opb < u32(HOp::NumOps), "bad host opcode byte ", opb);
    i.op = HOp(opb);
    const HOpInfo &info = hopInfo(i.op);
    switch (info.fmt) {
      case HFmt::N:
        break;
      case HFmt::R:
        i.rd = u8(bits(w, 19, 5));
        i.rs1 = u8(bits(w, 14, 5));
        i.rs2 = u8(bits(w, 9, 5));
        break;
      case HFmt::I:
        i.rd = u8(bits(w, 19, 5));
        i.rs1 = u8(bits(w, 14, 5));
        i.imm = sext(bits(w, 0, 14), 14);
        break;
      case HFmt::B:
        i.rs1 = u8(bits(w, 19, 5));
        i.rs2 = u8(bits(w, 14, 5));
        i.imm = sext(bits(w, 0, 14), 14);
        break;
      case HFmt::U:
        i.rd = u8(bits(w, 19, 5));
        i.imm = s32(bits(w, 0, 19));
        break;
      case HFmt::J:
        i.imm = s32(bits(w, 0, 24));
        break;
    }
    return i;
}

std::string
hdisasm(const HInst &i, u32 pc)
{
    const HOpInfo &info = i.info();
    std::ostringstream os;
    os << info.name;
    auto r = [](u8 n) { return "r" + std::to_string(n); };
    auto fr = [](u8 n) { return "f" + std::to_string(n); };
    switch (info.fmt) {
      case HFmt::N:
        break;
      case HFmt::R:
        if (info.isFp) {
            // compares write an integer rd
            if (i.op == HOp::FEQ || i.op == HOp::FLT || i.op == HOp::FLE)
                os << " " << r(i.rd) << ", " << fr(i.rs1) << ", "
                   << fr(i.rs2);
            else if (i.op == HOp::FCVTWD)
                os << " " << fr(i.rd) << ", " << r(i.rs1);
            else if (i.op == HOp::FCVTZW)
                os << " " << r(i.rd) << ", " << fr(i.rs1);
            else
                os << " " << fr(i.rd) << ", " << fr(i.rs1) << ", "
                   << fr(i.rs2);
        } else if (i.op == HOp::IBTC) {
            os << " " << r(i.rs1);
        } else {
            os << " " << r(i.rd) << ", " << r(i.rs1) << ", " << r(i.rs2);
        }
        break;
      case HFmt::I:
        if (info.isLoad) {
            os << " " << (info.isFp ? fr(i.rd) : r(i.rd)) << ", "
               << i.imm << "(" << r(i.rs1) << ")";
        } else {
            os << " " << r(i.rd) << ", " << r(i.rs1) << ", " << i.imm;
        }
        break;
      case HFmt::B:
        if (info.isStore) {
            os << " " << (info.isFp ? fr(i.rs2) : r(i.rs2)) << ", "
               << i.imm << "(" << r(i.rs1) << ")";
        } else if (info.isBranch) {
            os << " " << r(i.rs1) << ", " << r(i.rs2) << ", "
               << (pc + 1 + i.imm);
        } else {
            // asserts: rs1 + id
            os << " " << r(i.rs1) << ", #" << i.imm;
        }
        break;
      case HFmt::U:
        os << " " << (info.isFp ? fr(i.rd) : r(i.rd)) << ", " << i.imm;
        break;
      case HFmt::J:
        os << " " << i.imm;
        break;
    }
    return os.str();
}

} // namespace darco::host

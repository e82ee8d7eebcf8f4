#include "guest/semantics.hh"

#include <algorithm>
#include <cfenv>
#include <cmath>
#include <sstream>

#include "common/logging.hh"
#include "guest/decode_cache.hh"

namespace darco::guest
{

namespace
{

std::string
faultText(GAddr pc, const char *msg)
{
    std::ostringstream os;
    os << "guest fault at pc 0x" << std::hex << pc << ": " << msg;
    return os.str();
}

} // namespace

GuestFault::GuestFault(GAddr pc, const char *msg)
    : std::runtime_error(faultText(pc, msg)), pc(pc), msg(msg)
{
}

u8
flagsAdd(u32 a, u32 b, u32 r)
{
    u8 f = 0;
    if (r == 0)
        f |= flagZ;
    if (r & 0x8000'0000u)
        f |= flagS;
    if (r < a)
        f |= flagC;
    if (~(a ^ b) & (a ^ r) & 0x8000'0000u)
        f |= flagO;
    return f;
}

u8
flagsSub(u32 a, u32 b, u32 r)
{
    u8 f = 0;
    if (r == 0)
        f |= flagZ;
    if (r & 0x8000'0000u)
        f |= flagS;
    if (a < b)
        f |= flagC;
    if ((a ^ b) & (a ^ r) & 0x8000'0000u)
        f |= flagO;
    return f;
}

u8
flagsLogic(u32 r)
{
    u8 f = 0;
    if (r == 0)
        f |= flagZ;
    if (r & 0x8000'0000u)
        f |= flagS;
    return f;
}

u8
flagsFcmp(double a, double b)
{
    if (a == b)
        return flagZ;
    if (a < b)
        return flagC;
    if (a > b)
        return 0;
    return flagC; // unordered treated as "less"
}

double
gsin(double x)
{
    // Mirrors the host-instruction expansion op for op, including the
    // per-operation NaN canonicalization of the HISA FPU.
    double k = gcanon(std::nearbyint(gcanon(x * trig::invTwoPi)));
    double r = gcanon(x - gcanon(k * trig::twoPi));
    double r2 = gcanon(r * r);
    double p = trig::sinC[trig::sinTerms - 1];
    for (int i = int(trig::sinTerms) - 2; i >= 0; --i)
        p = gcanon(gcanon(p * r2) + trig::sinC[i]);
    return gcanon(r * p);
}

double
gcos(double x)
{
    double k = gcanon(std::nearbyint(gcanon(x * trig::invTwoPi)));
    double r = gcanon(x - gcanon(k * trig::twoPi));
    double r2 = gcanon(r * r);
    double p = trig::cosC[trig::cosTerms - 1];
    for (int i = int(trig::cosTerms) - 2; i >= 0; --i)
        p = gcanon(gcanon(p * r2) + trig::cosC[i]);
    return p;
}

s32
gcvtfi(double x)
{
    if (std::isnan(x) || x >= 2147483648.0 || x < -2147483648.0)
        return s32(0x8000'0000);
    return s32(std::trunc(x));
}

GInst
fetchInst(PagedMemory &mem, GAddr pc)
{
    // Longest encoding is 8 bytes (REP prefix + 7-byte SIB form).
    constexpr std::size_t maxLen = 12;
    u8 buf[maxLen];
    std::size_t have = 0;
    GInst inst;
    while (have < maxLen) {
        // Pull in the rest of the current page, then retry the decode;
        // only cross into the next page if the instruction needs it.
        std::size_t page_left = pageSizeBytes - pageOffset(pc + GAddr(have));
        std::size_t take = std::min(maxLen - have, page_left);
        mem.readBlock(pc + GAddr(have), buf + have, take);
        have += take;
        if (decode(buf, have, inst))
            return inst;
        if (have >= maxLen)
            break;
    }
    throw GuestFault{pc, "undecodable instruction bytes"};
}

GAddr
effectiveAddr(const GInst &i, const CpuState &st)
{
    switch (i.memMode) {
      case memBase:
        return st.gpr[i.memBase];
      case memBaseD8:
      case memBaseD32:
        return st.gpr[i.memBase] + u32(i.disp);
      case memSib:
        return st.gpr[i.memBase] + (st.gpr[i.memIndex] << i.memScale) +
               u32(i.disp);
      case memAbs:
        return u32(i.disp);
      default:
        panic("effectiveAddr on non-memory instruction");
    }
}

namespace
{

/** Cap on iterations one REP executes before the executor re-checks;
 *  prevents unbounded single-instruction latency. */
constexpr u64 repChunk = 1u << 20;

ExecOut
fault(const char *msg)
{
    ExecOut o;
    o.status = ExecStatus::Fault;
    o.faultMsg = msg;
    return o;
}

/**
 * The semantics of one instruction. execInst() and retireBlock()'s
 * loop both expand this body, so GISA is defined once. Forced inline:
 * the compiler would otherwise call it from the block loop, which
 * measured about 5% slower on perfbench `hot`.
 */
inline __attribute__((always_inline)) ExecOut
exec(const GInst &i, CpuState &st, PagedMemory &mem)
{
    ExecOut out;
    u32 *g = st.gpr.data();
    double *f = st.fpr.data();
    const GAddr next = st.pc + i.length;

    auto done = [&]() -> ExecOut {
        st.pc = next;
        return out;
    };
    auto taken = [&](GAddr t) -> ExecOut {
        st.pc = t;
        out.status = ExecStatus::CtiTaken;
        return out;
    };

    switch (i.op) {
      case GOp::NOP:
        return done();

      case GOp::HLT:
        out.status = ExecStatus::Halt;
        return out;

      case GOp::SYSCALL:
        out.status = ExecStatus::Syscall;
        return out;

      case GOp::RET: {
        u32 t = mem.read32(g[RSP]);
        g[RSP] += 4;
        out.status = ExecStatus::CtiTaken;
        st.pc = t;
        return out;
      }

      // --- string ops -------------------------------------------------
      case GOp::MOVSB:
      case GOp::MOVSW:
      case GOp::STOSB:
      case GOp::STOSW: {
        const bool isMov = i.op == GOp::MOVSB || i.op == GOp::MOVSW;
        const u32 w = i.op == GOp::MOVSB || i.op == GOp::STOSB ? 1 : 4;
        u64 iters = i.rep ? g[RCX] : 1;
        if (iters > repChunk)
            iters = repChunk;
        for (u64 n = 0; n < iters; ++n) {
            if (w == 1) {
                u8 v = isMov ? mem.read8(g[RSI]) : u8(g[RAX]);
                mem.write8(g[RDI], v);
            } else {
                u32 v = isMov ? mem.read32(g[RSI]) : g[RAX];
                mem.write32(g[RDI], v);
            }
            if (isMov)
                g[RSI] += w;
            g[RDI] += w;
            if (i.rep)
                g[RCX] -= 1;
            ++out.repIters;
        }
        if (i.rep && g[RCX] != 0) {
            // More iterations remain: stay on this instruction (the
            // restartable-REP contract).
            out.status = ExecStatus::Again;
            return out;
        }
        return done();
      }

      // --- one-register ops ---------------------------------------------
      case GOp::NOT:
        g[i.rd] = ~g[i.rd];
        return done();
      case GOp::NEG: {
        u32 a = g[i.rd];
        u32 r = 0 - a;
        g[i.rd] = r;
        st.flags = flagsSub(0, a, r);
        return done();
      }
      case GOp::INC: {
        u32 a = g[i.rd];
        u32 r = a + 1;
        g[i.rd] = r;
        st.flags = u8((st.flags & flagC) | (flagsAdd(a, 1, r) & flagZSO));
        return done();
      }
      case GOp::DEC: {
        u32 a = g[i.rd];
        u32 r = a - 1;
        g[i.rd] = r;
        st.flags = u8((st.flags & flagC) | (flagsSub(a, 1, r) & flagZSO));
        return done();
      }
      case GOp::PUSH:
        mem.write32(g[RSP] - 4, g[i.rd]);
        g[RSP] -= 4;
        return done();
      case GOp::POP: {
        u32 v = mem.read32(g[RSP]);
        g[i.rd] = v;
        g[RSP] += 4;
        return done();
      }
      case GOp::JMPR:
        return taken(g[i.rd]);
      case GOp::CALLR: {
        u32 t = g[i.rd];
        mem.write32(g[RSP] - 4, next);
        g[RSP] -= 4;
        return taken(t);
      }

      // --- reg,reg / reg,imm ALU ---------------------------------------
      case GOp::MOV_RR:
        g[i.rd] = g[i.rs];
        return done();
      case GOp::MOV_RI:
        g[i.rd] = u32(i.imm);
        return done();

      case GOp::ADD_RR:
      case GOp::ADD_RI:
      case GOp::ADD_RI8: {
        u32 a = g[i.rd];
        u32 b = i.op == GOp::ADD_RR ? g[i.rs] : u32(i.imm);
        u32 r = a + b;
        g[i.rd] = r;
        st.flags = flagsAdd(a, b, r);
        return done();
      }
      case GOp::SUB_RR:
      case GOp::SUB_RI: {
        u32 a = g[i.rd];
        u32 b = i.op == GOp::SUB_RR ? g[i.rs] : u32(i.imm);
        u32 r = a - b;
        g[i.rd] = r;
        st.flags = flagsSub(a, b, r);
        return done();
      }
      case GOp::CMP_RR:
      case GOp::CMP_RI:
      case GOp::CMP_RI8: {
        u32 a = g[i.rd];
        u32 b = i.op == GOp::CMP_RR ? g[i.rs] : u32(i.imm);
        st.flags = flagsSub(a, b, a - b);
        return done();
      }
      case GOp::AND_RR:
      case GOp::AND_RI: {
        u32 r = g[i.rd] & (i.op == GOp::AND_RR ? g[i.rs] : u32(i.imm));
        g[i.rd] = r;
        st.flags = flagsLogic(r);
        return done();
      }
      case GOp::OR_RR:
      case GOp::OR_RI: {
        u32 r = g[i.rd] | (i.op == GOp::OR_RR ? g[i.rs] : u32(i.imm));
        g[i.rd] = r;
        st.flags = flagsLogic(r);
        return done();
      }
      case GOp::XOR_RR:
      case GOp::XOR_RI: {
        u32 r = g[i.rd] ^ (i.op == GOp::XOR_RR ? g[i.rs] : u32(i.imm));
        g[i.rd] = r;
        st.flags = flagsLogic(r);
        return done();
      }
      case GOp::TEST_RR:
      case GOp::TEST_RI: {
        u32 r = g[i.rd] & (i.op == GOp::TEST_RR ? g[i.rs] : u32(i.imm));
        st.flags = flagsLogic(r);
        return done();
      }
      case GOp::IMUL_RR:
      case GOp::IMUL_RI: {
        s64 a = s32(g[i.rd]);
        s64 b = i.op == GOp::IMUL_RR ? s32(g[i.rs]) : i.imm;
        s64 full = a * b;
        u32 r = u32(full);
        g[i.rd] = r;
        u8 fl = flagsLogic(r) & u8(flagZ | flagS);
        if (full != s64(s32(r)))
            fl |= flagC | flagO;
        st.flags = fl;
        return done();
      }
      case GOp::IDIV_RR:
      case GOp::IREM_RR: {
        s32 a = s32(g[i.rd]);
        s32 b = s32(g[i.rs]);
        if (b == 0)
            return fault("integer division by zero");
        if (a == s32(0x8000'0000) && b == -1)
            return fault("integer division overflow");
        g[i.rd] = i.op == GOp::IDIV_RR ? u32(a / b) : u32(a % b);
        return done();
      }
      // Unlike x86, GISA shifts always write flags (CF = last bit
      // shifted out; 0 for a zero shift count). This keeps the flag
      // semantics branch-free for the translator.
      case GOp::SHL_RR:
      case GOp::SHL_RI8: {
        u32 a = g[i.rd];
        u32 s = (i.op == GOp::SHL_RR ? g[i.rs] : u32(i.imm)) & 31;
        u32 r = a << s;
        g[i.rd] = r;
        u8 fl = flagsLogic(r);
        if (s != 0 && ((a >> (32 - s)) & 1))
            fl |= flagC;
        st.flags = fl;
        return done();
      }
      case GOp::SHR_RR:
      case GOp::SHR_RI8: {
        u32 a = g[i.rd];
        u32 s = (i.op == GOp::SHR_RR ? g[i.rs] : u32(i.imm)) & 31;
        u32 r = a >> s;
        g[i.rd] = r;
        u8 fl = flagsLogic(r);
        if (s != 0 && ((a >> (s - 1)) & 1))
            fl |= flagC;
        st.flags = fl;
        return done();
      }
      case GOp::SAR_RR:
      case GOp::SAR_RI8: {
        u32 a = g[i.rd];
        u32 s = (i.op == GOp::SAR_RR ? g[i.rs] : u32(i.imm)) & 31;
        u32 r = u32(s32(a) >> s);
        g[i.rd] = r;
        u8 fl = flagsLogic(r);
        if (s != 0 && ((a >> (s - 1)) & 1))
            fl |= flagC;
        st.flags = fl;
        return done();
      }

      // --- loads ---------------------------------------------------------
      case GOp::MOV_RM: {
        u32 v = mem.read32(effectiveAddr(i, st));
        g[i.rd] = v;
        return done();
      }
      case GOp::MOVZX8_RM: {
        u32 v = mem.read8(effectiveAddr(i, st));
        g[i.rd] = v;
        return done();
      }
      case GOp::MOVZX16_RM: {
        u32 v = mem.read16(effectiveAddr(i, st));
        g[i.rd] = v;
        return done();
      }
      case GOp::MOVSX8_RM: {
        u32 v = u32(s32(s8(mem.read8(effectiveAddr(i, st)))));
        g[i.rd] = v;
        return done();
      }
      case GOp::MOVSX16_RM: {
        u32 v = u32(s32(s16(mem.read16(effectiveAddr(i, st)))));
        g[i.rd] = v;
        return done();
      }
      case GOp::LEA:
        g[i.rd] = effectiveAddr(i, st);
        return done();
      case GOp::ADD_RM: {
        u32 a = g[i.rd];
        u32 b = mem.read32(effectiveAddr(i, st));
        u32 r = a + b;
        g[i.rd] = r;
        st.flags = flagsAdd(a, b, r);
        return done();
      }
      case GOp::CMP_RM: {
        u32 a = g[i.rd];
        u32 b = mem.read32(effectiveAddr(i, st));
        st.flags = flagsSub(a, b, a - b);
        return done();
      }

      // --- stores --------------------------------------------------------
      case GOp::MOV_MR:
        mem.write32(effectiveAddr(i, st), g[i.rd]);
        return done();
      case GOp::MOV8_MR:
        mem.write8(effectiveAddr(i, st), u8(g[i.rd]));
        return done();
      case GOp::MOV16_MR:
        mem.write16(effectiveAddr(i, st), u16(g[i.rd]));
        return done();
      case GOp::ADD_MR: {
        GAddr ea = effectiveAddr(i, st);
        u32 a = mem.read32(ea);
        u32 b = g[i.rd];
        u32 r = a + b;
        mem.write32(ea, r);
        st.flags = flagsAdd(a, b, r);
        return done();
      }

      // --- control transfer ---------------------------------------------
      case GOp::JMP_REL8:
      case GOp::JMP_REL32:
        return taken(i.target(st.pc));
      case GOp::CALL_REL32: {
        mem.write32(g[RSP] - 4, next);
        g[RSP] -= 4;
        return taken(i.target(st.pc));
      }
      case GOp::JCC_REL8:
      case GOp::JCC_REL32:
        if (evalCond(i.cond, st.flags))
            return taken(i.target(st.pc));
        out.status = ExecStatus::CtiNotTaken;
        st.pc = next;
        return out;

      // --- conditional data ---------------------------------------------
      case GOp::SETCC:
        g[i.rd] = evalCond(i.cond, st.flags) ? 1 : 0;
        return done();
      case GOp::CMOVCC:
        if (evalCond(i.cond, st.flags))
            g[i.rd] = g[i.rs];
        return done();

      // --- floating point -------------------------------------------------
      case GOp::FMOV:
        f[i.rd] = f[i.rs];
        return done();
      case GOp::FADD:
        f[i.rd] = gcanon(f[i.rd] + f[i.rs]);
        return done();
      case GOp::FSUB:
        f[i.rd] = gcanon(f[i.rd] - f[i.rs]);
        return done();
      case GOp::FMUL:
        f[i.rd] = gcanon(f[i.rd] * f[i.rs]);
        return done();
      case GOp::FDIV:
        f[i.rd] = gcanon(f[i.rd] / f[i.rs]);
        return done();
      case GOp::FSQRT:
        f[i.rd] = gcanon(std::sqrt(f[i.rs]));
        return done();
      case GOp::FSIN:
        f[i.rd] = gsin(f[i.rs]);
        return done();
      case GOp::FCOS:
        f[i.rd] = gcos(f[i.rs]);
        return done();
      case GOp::FABS:
        f[i.rd] = std::fabs(f[i.rs]);
        return done();
      case GOp::FNEG:
        f[i.rd] = -f[i.rs];
        return done();
      case GOp::FCMP:
        st.flags = flagsFcmp(f[i.rd], f[i.rs]);
        return done();
      case GOp::CVTIF:
        f[i.rd] = double(s32(g[i.rs]));
        return done();
      case GOp::CVTFI:
        g[i.rd] = u32(gcvtfi(f[i.rs]));
        return done();
      case GOp::FLD: {
        u64 bits64 = mem.read64(effectiveAddr(i, st));
        double v;
        static_assert(sizeof(v) == sizeof(bits64));
        __builtin_memcpy(&v, &bits64, 8);
        f[i.rd] = v;
        return done();
      }
      case GOp::FST: {
        double v = f[i.rd];
        u64 bits64;
        __builtin_memcpy(&bits64, &v, 8);
        mem.write64(effectiveAddr(i, st), bits64);
        return done();
      }

      default:
        return fault("unimplemented opcode");
    }
}

} // namespace

ExecOut
execInst(const GInst &i, CpuState &st, PagedMemory &mem)
{
    return exec(i, st, mem);
}

BlockEnd
retireBlock(DecodeCache &dc, CpuState &st, PagedMemory &mem, u64 &insts,
            u64 &bbs, u64 limit)
{
    while (insts < limit) {
        const GInst &inst = dc.fetch(mem, st.pc);
        if (inst.op == GOp::SYSCALL || inst.op == GOp::HLT)
            return BlockEnd::Blocked;
        ExecOut out = exec(inst, st, mem);
        while (out.status == ExecStatus::Again)
            out = exec(inst, st, mem);
        switch (out.status) {
          case ExecStatus::Ok:
            ++insts;
            break;
          case ExecStatus::CtiTaken:
          case ExecStatus::CtiNotTaken:
            ++insts;
            ++bbs;
            return BlockEnd::Cti;
          default: // Fault, which changed nothing
            return BlockEnd::Blocked;
        }
    }
    return BlockEnd::Limit;
}

} // namespace darco::guest

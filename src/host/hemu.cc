#include "host/hemu.hh"

#include <cmath>

#include "common/logging.hh"
#include "common/schema.hh"
#include "guest/semantics.hh"

namespace darco::host
{

using guest::PageMiss;

namespace
{

/** Power-of-two check for the IBTC size. */
constexpr bool
isPow2(u32 v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

/** Plain guest-memory load of 1, 2, 4 or 8 bytes. */
inline u64
memRead(guest::PagedMemory &m, GAddr a, unsigned size)
{
    switch (size) {
      case 1: return m.read8(a);
      case 2: return m.read16(a);
      case 4: return m.read32(a);
      default: return m.read64(a);
    }
}

/** Plain guest-memory store of the low 1, 2, 4 or 8 bytes of v. */
inline void
memWrite(guest::PagedMemory &m, GAddr a, u64 v, unsigned size)
{
    switch (size) {
      case 1: m.write8(a, u8(v)); return;
      case 2: m.write16(a, u16(v)); return;
      case 4: m.write32(a, u32(v)); return;
      default: m.write64(a, v); return;
    }
}

} // namespace

IbtcTable::IbtcTable(u32 entries)
{
    darco_assert(isPow2(entries), "IBTC size must be a power of two");
    entries_.resize(entries);
    mask_ = entries - 1;
}

bool
IbtcTable::lookup(GAddr guest_pc, u32 &host_pc) const
{
    const Entry &e = entries_[index(guest_pc)];
    if (e.tag == guest_pc) {
        ++hits_;
        host_pc = e.hostPc;
        return true;
    }
    ++misses_;
    return false;
}

void
IbtcTable::insert(GAddr guest_pc, u32 host_pc)
{
    entries_[index(guest_pc)] = Entry{guest_pc, host_pc};
}

void
IbtcTable::invalidate(GAddr guest_pc)
{
    Entry &e = entries_[index(guest_pc)];
    if (e.tag == guest_pc)
        e = Entry{};
}

void
IbtcTable::invalidateHostRange(u32 base, u32 words)
{
    for (auto &e : entries_) {
        if (e.tag != ~0u && e.hostPc >= base && e.hostPc < base + words)
            e = Entry{};
    }
}

void
IbtcTable::clear()
{
    for (auto &e : entries_)
        e = Entry{};
}

HostEmu::HostEmu(CodeCache &cache, guest::PagedMemory &guest_mem,
                 const Config &cfg)
    : cache_(cache),
      mem_(&guest_mem),
      ibtc_(u32(conf::getUint(cfg, "hemu.ibtc_entries"))),
      localMem_(localMemBytes, 0),
      ibtcHitCost_(u32(conf::getUint(cfg, "hemu.ibtc_hit_cost")))
{
}

void
HostEmu::loadGuestState(const guest::CpuState &st)
{
    using namespace regmap;
    for (unsigned i = 0; i < guest::numGRegs; ++i)
        ctx_.gpr[guestGprBase + i] = st.gpr[i];
    ctx_.gpr[flagZ] = (st.flags & guest::flagZ) ? 1 : 0;
    ctx_.gpr[flagS] = (st.flags & guest::flagS) ? 1 : 0;
    ctx_.gpr[flagC] = (st.flags & guest::flagC) ? 1 : 0;
    ctx_.gpr[flagO] = (st.flags & guest::flagO) ? 1 : 0;
    for (unsigned i = 0; i < guest::numFRegs; ++i)
        ctx_.fpr[guestFprBase + i] = st.fpr[i];
}

void
HostEmu::storeGuestState(guest::CpuState &st) const
{
    using namespace regmap;
    for (unsigned i = 0; i < guest::numGRegs; ++i)
        st.gpr[i] = ctx_.gpr[guestGprBase + i];
    u8 f = 0;
    if (ctx_.gpr[flagZ])
        f |= guest::flagZ;
    if (ctx_.gpr[flagS])
        f |= guest::flagS;
    if (ctx_.gpr[flagC])
        f |= guest::flagC;
    if (ctx_.gpr[flagO])
        f |= guest::flagO;
    st.flags = f;
    for (unsigned i = 0; i < guest::numFRegs; ++i)
        st.fpr[i] = ctx_.fpr[guestFprBase + i];
}

u32
HostEmu::readLocal32(u32 addr) const
{
    // u64 arithmetic: addr + 4 must not wrap for addresses near 2^32.
    darco_assert(u64(addr) + 4 <= localMem_.size(),
                 "local mem OOB read");
    u32 v;
    __builtin_memcpy(&v, localMem_.data() + addr, 4);
    return v;
}

void
HostEmu::writeLocal32(u32 addr, u32 v)
{
    darco_assert(u64(addr) + 4 <= localMem_.size(),
                 "local mem OOB write");
    __builtin_memcpy(localMem_.data() + addr, &v, 4);
}

void
HostEmu::rollback()
{
    if (speculative_) {
        ctx_ = ckpt_;
        storeBuf_.clear();
        specLoads_.clear();
        speculative_ = false;
        ++rollbacks_;
    }
}

u64
HostEmu::specRead(GAddr a, unsigned size)
{
    // Every byte a gated store covers lies on a page probePages()
    // found present, so reading memory first faults exactly where a
    // byte-by-byte read through the buffer would.
    u64 v = memRead(*mem_, a, size);
    // The buffer is empty outside a speculative region. Entries are
    // in program order, so a newer store's bytes overwrite an older's.
    for (const SpecStore &s : storeBuf_) {
        // Disjoint unless one range starts inside the other; the
        // wrapping differences keep this right at the top of memory.
        if (GAddr(s.addr - a) >= size && GAddr(a - s.addr) >= s.size)
            continue;
        for (unsigned i = 0; i < size; ++i) {
            GAddr off = a + i - s.addr;
            if (off < s.size) {
                u64 mask = 0xffull << (8 * i);
                v = (v & ~mask) |
                    (((s.value >> (8 * off)) & 0xff) << (8 * i));
            }
        }
    }
    return v;
}

void
HostEmu::specWrite(GAddr a, u64 v, unsigned size)
{
    if (!speculative_) {
        memWrite(*mem_, a, v, size);
        return;
    }
    probePages(a, size);
    storeBuf_.push_back(SpecStore{a, size, v});
}

void
HostEmu::probePages(GAddr a, unsigned size)
{
    if (!mem_->hasPage(a))
        throw PageMiss{pageBase(a)};
    GAddr last = a + size - 1;
    if (pageBase(last) != pageBase(a) && !mem_->hasPage(last))
        throw PageMiss{pageBase(last)};
}

bool
HostEmu::aliasesSpecLoad(GAddr a, unsigned size) const
{
    for (const SpecLoad &l : specLoads_) {
        if (a < l.addr + l.size && l.addr < a + size)
            return true;
    }
    return false;
}

ExitInfo
HostEmu::run(u32 host_pc, u64 max_insts)
{
    return sink_ ? runLoop<true>(host_pc, max_insts)
                 : runLoop<false>(host_pc, max_insts);
}

template <bool Tracing>
ExitInfo
HostEmu::runLoop(u32 host_pc, u64 max_insts)
{
    ExitInfo exit;
    u64 n = 0;
    u64 since = sinceMark_;
    u32 pc = host_pc;
    auto &gpr = ctx_.gpr;
    auto &fpr = ctx_.fpr;
    const HInst *const insts = cache_.insts();
    const TraceTemplate *const templates = cache_.traceTemplates();

    auto finish = [&](ExitKind k) -> ExitInfo & {
        exit.kind = k;
        exit.instsExecuted = n;
        totalInsts_ += n;
        sinceMark_ = since;
        ctx_.pc = pc;
        return exit;
    };

    auto setReg = [&](u8 rd, u32 v) {
        gpr[rd] = v;
        gpr[0] = 0;
    };

    try {
        for (;;) {
            if (n >= max_insts)
                return finish(ExitKind::Budget);

            const HInst i = insts[pc];
            u32 next = pc + 1;
            ++n;
            ++since;

            InstRecord rec;
            if constexpr (Tracing) {
                const TraceTemplate &t = templates[pc];
                rec.pc = pc * 4;
                rec.cls = t.cls;
                rec.dst = t.dst;
                rec.src1 = t.src1;
                rec.src2 = t.src2;
            }

            switch (i.op) {
              case HOp::NOP:
                break;

              // --- integer ALU, R-format ---
              case HOp::ADD:
                setReg(i.rd, gpr[i.rs1] + gpr[i.rs2]);
                break;
              case HOp::SUB:
                setReg(i.rd, gpr[i.rs1] - gpr[i.rs2]);
                break;
              case HOp::MUL:
                setReg(i.rd, u32(s64(s32(gpr[i.rs1])) *
                                 s64(s32(gpr[i.rs2]))));
                break;
              case HOp::MULH:
                setReg(i.rd, u32(u64(s64(s32(gpr[i.rs1])) *
                                     s64(s32(gpr[i.rs2]))) >> 32));
                break;
              case HOp::DIV:
              case HOp::REM: {
                s32 a = s32(gpr[i.rs1]);
                s32 b = s32(gpr[i.rs2]);
                if (b == 0 || (a == s32(0x80000000) && b == -1)) {
                    bool was_spec = speculative_;
                    rollback();
                    if (was_spec)
                        pc = ctx_.pc; // resume point = checkpoint
                    return finish(ExitKind::DivFault);
                }
                setReg(i.rd, i.op == HOp::DIV ? u32(a / b) : u32(a % b));
                break;
              }
              case HOp::AND:
                setReg(i.rd, gpr[i.rs1] & gpr[i.rs2]);
                break;
              case HOp::OR:
                setReg(i.rd, gpr[i.rs1] | gpr[i.rs2]);
                break;
              case HOp::XOR:
                setReg(i.rd, gpr[i.rs1] ^ gpr[i.rs2]);
                break;
              case HOp::SLL:
                setReg(i.rd, gpr[i.rs1] << (gpr[i.rs2] & 31));
                break;
              case HOp::SRL:
                setReg(i.rd, gpr[i.rs1] >> (gpr[i.rs2] & 31));
                break;
              case HOp::SRA:
                setReg(i.rd, u32(s32(gpr[i.rs1]) >> (gpr[i.rs2] & 31)));
                break;
              case HOp::SLT:
                setReg(i.rd, s32(gpr[i.rs1]) < s32(gpr[i.rs2]) ? 1 : 0);
                break;
              case HOp::SLTU:
                setReg(i.rd, gpr[i.rs1] < gpr[i.rs2] ? 1 : 0);
                break;
              case HOp::SEQ:
                setReg(i.rd, gpr[i.rs1] == gpr[i.rs2] ? 1 : 0);
                break;
              case HOp::SNE:
                setReg(i.rd, gpr[i.rs1] != gpr[i.rs2] ? 1 : 0);
                break;
              case HOp::SGE:
                setReg(i.rd, s32(gpr[i.rs1]) >= s32(gpr[i.rs2]) ? 1 : 0);
                break;
              case HOp::SGEU:
                setReg(i.rd, gpr[i.rs1] >= gpr[i.rs2] ? 1 : 0);
                break;

              // --- integer ALU, I-format ---
              case HOp::ADDI:
                setReg(i.rd, gpr[i.rs1] + u32(i.imm));
                break;
              case HOp::ANDI:
                setReg(i.rd, gpr[i.rs1] & (u32(i.imm) & 0x3fff));
                break;
              case HOp::ORI:
                setReg(i.rd, gpr[i.rs1] | (u32(i.imm) & 0x3fff));
                break;
              case HOp::XORI:
                setReg(i.rd, gpr[i.rs1] ^ (u32(i.imm) & 0x3fff));
                break;
              case HOp::SLLI:
                setReg(i.rd, gpr[i.rs1] << (i.imm & 31));
                break;
              case HOp::SRLI:
                setReg(i.rd, gpr[i.rs1] >> (i.imm & 31));
                break;
              case HOp::SRAI:
                setReg(i.rd, u32(s32(gpr[i.rs1]) >> (i.imm & 31)));
                break;
              case HOp::SLTI:
                setReg(i.rd, s32(gpr[i.rs1]) < i.imm ? 1 : 0);
                break;
              case HOp::SEQI:
                setReg(i.rd,
                       gpr[i.rs1] == (u32(i.imm) & 0x3fff) ? 1 : 0);
                break;
              case HOp::SNEI:
                setReg(i.rd,
                       gpr[i.rs1] != (u32(i.imm) & 0x3fff) ? 1 : 0);
                break;
              case HOp::LUI:
                setReg(i.rd, u32(i.imm) << 13);
                break;

              // --- guest memory ---
              case HOp::LB: {
                GAddr a = gpr[i.rs1] + u32(i.imm);
                if constexpr (Tracing)
                    rec.memAddr = a;
                setReg(i.rd, u32(s32(s8(specRead(a, 1)))));
                break;
              }
              case HOp::LBU: {
                GAddr a = gpr[i.rs1] + u32(i.imm);
                if constexpr (Tracing)
                    rec.memAddr = a;
                setReg(i.rd, u32(specRead(a, 1)));
                break;
              }
              case HOp::LH: {
                GAddr a = gpr[i.rs1] + u32(i.imm);
                if constexpr (Tracing)
                    rec.memAddr = a;
                setReg(i.rd, u32(s32(s16(specRead(a, 2)))));
                break;
              }
              case HOp::LHU: {
                GAddr a = gpr[i.rs1] + u32(i.imm);
                if constexpr (Tracing)
                    rec.memAddr = a;
                setReg(i.rd, u32(specRead(a, 2)));
                break;
              }
              case HOp::LW: {
                GAddr a = gpr[i.rs1] + u32(i.imm);
                if constexpr (Tracing)
                    rec.memAddr = a;
                setReg(i.rd, u32(specRead(a, 4)));
                break;
              }
              case HOp::LWS: {
                GAddr a = gpr[i.rs1] + u32(i.imm);
                if constexpr (Tracing)
                    rec.memAddr = a;
                setReg(i.rd, u32(specRead(a, 4)));
                if (speculative_)
                    specLoads_.push_back(SpecLoad{a, 4});
                break;
              }
              case HOp::FLD: {
                GAddr a = gpr[i.rs1] + u32(i.imm);
                if constexpr (Tracing)
                    rec.memAddr = a;
                u64 b = specRead(a, 8);
                double d;
                __builtin_memcpy(&d, &b, 8);
                fpr[i.rd] = d;
                break;
              }
              case HOp::FLDS: {
                GAddr a = gpr[i.rs1] + u32(i.imm);
                if constexpr (Tracing)
                    rec.memAddr = a;
                u64 b = specRead(a, 8);
                double d;
                __builtin_memcpy(&d, &b, 8);
                fpr[i.rd] = d;
                if (speculative_)
                    specLoads_.push_back(SpecLoad{a, 8});
                break;
              }
              case HOp::SB:
              case HOp::SH:
              case HOp::SW:
              case HOp::SBC:
              case HOp::SHC:
              case HOp::SWC: {
                unsigned size =
                    (i.op == HOp::SB || i.op == HOp::SBC)   ? 1
                    : (i.op == HOp::SH || i.op == HOp::SHC) ? 2
                                                            : 4;
                const bool checked = i.op == HOp::SBC ||
                                     i.op == HOp::SHC ||
                                     i.op == HOp::SWC;
                GAddr a = gpr[i.rs1] + u32(i.imm);
                if constexpr (Tracing)
                    rec.memAddr = a;
                if (checked && speculative_ &&
                    aliasesSpecLoad(a, size)) {
                    rollback();
                    pc = ctx_.pc;
                    return finish(ExitKind::AliasFail);
                }
                specWrite(a, gpr[i.rs2], size);
                break;
              }
              case HOp::FST:
              case HOp::FSTC: {
                GAddr a = gpr[i.rs1] + u32(i.imm);
                if constexpr (Tracing)
                    rec.memAddr = a;
                if (i.op == HOp::FSTC && speculative_ &&
                    aliasesSpecLoad(a, 8)) {
                    rollback();
                    pc = ctx_.pc;
                    return finish(ExitKind::AliasFail);
                }
                u64 b;
                double d = fpr[i.rs2];
                __builtin_memcpy(&b, &d, 8);
                specWrite(a, b, 8);
                break;
              }

              // --- TOL-local memory ---
              case HOp::LWL: {
                u32 a = gpr[i.rs1] + u32(i.imm);
                if constexpr (Tracing)
                    rec.memAddr = 0xf800'0000u + a;
                setReg(i.rd, readLocal32(a));
                break;
              }
              case HOp::SWL: {
                u32 a = gpr[i.rs1] + u32(i.imm);
                if constexpr (Tracing)
                    rec.memAddr = 0xf800'0000u + a;
                writeLocal32(a, gpr[i.rs2]);
                break;
              }
              case HOp::FLDL: {
                u32 a = gpr[i.rs1] + u32(i.imm);
                // u64 arithmetic: a + 8 must not wrap near 2^32.
                darco_assert(u64(a) + 8 <= localMem_.size(),
                             "local mem OOB read");
                if constexpr (Tracing)
                    rec.memAddr = 0xf800'0000u + a;
                double d;
                __builtin_memcpy(&d, localMem_.data() + a, 8);
                fpr[i.rd] = d;
                break;
              }
              case HOp::FSTL: {
                u32 a = gpr[i.rs1] + u32(i.imm);
                darco_assert(u64(a) + 8 <= localMem_.size(),
                             "local mem OOB write");
                if constexpr (Tracing)
                    rec.memAddr = 0xf800'0000u + a;
                double d = fpr[i.rs2];
                __builtin_memcpy(localMem_.data() + a, &d, 8);
                break;
              }
              case HOp::FLDC:
                darco_assert(u32(i.imm) < fpPool_.size(),
                             "FLDC pool index OOB");
                if constexpr (Tracing)
                    rec.memAddr = 0xfc00'0000u + u32(i.imm) * 8;
                fpr[i.rd] = fpPool_[u32(i.imm)];
                break;

              // --- FP ---
              case HOp::FADD:
                fpr[i.rd] = guest::gcanon(fpr[i.rs1] + fpr[i.rs2]);
                break;
              case HOp::FSUB:
                fpr[i.rd] = guest::gcanon(fpr[i.rs1] - fpr[i.rs2]);
                break;
              case HOp::FMUL:
                fpr[i.rd] = guest::gcanon(fpr[i.rs1] * fpr[i.rs2]);
                break;
              case HOp::FDIV:
                fpr[i.rd] = guest::gcanon(fpr[i.rs1] / fpr[i.rs2]);
                break;
              case HOp::FSQRT:
                fpr[i.rd] = guest::gcanon(std::sqrt(fpr[i.rs1]));
                break;
              case HOp::FABS:
                fpr[i.rd] = std::fabs(fpr[i.rs1]);
                break;
              case HOp::FNEG:
                fpr[i.rd] = -fpr[i.rs1];
                break;
              case HOp::FMOV:
                fpr[i.rd] = fpr[i.rs1];
                break;
              case HOp::FRND:
                fpr[i.rd] = guest::gcanon(std::nearbyint(fpr[i.rs1]));
                break;
              case HOp::FCVTWD:
                fpr[i.rd] = double(s32(gpr[i.rs1]));
                break;
              case HOp::FCVTZW:
                setReg(i.rd, u32(guest::gcvtfi(fpr[i.rs1])));
                break;
              case HOp::FEQ:
                setReg(i.rd, fpr[i.rs1] == fpr[i.rs2] ? 1 : 0);
                break;
              case HOp::FLT:
                setReg(i.rd, fpr[i.rs1] < fpr[i.rs2] ? 1 : 0);
                break;
              case HOp::FLE:
                setReg(i.rd, fpr[i.rs1] <= fpr[i.rs2] ? 1 : 0);
                break;

              // --- control ---
              case HOp::BEQ:
              case HOp::BNE:
              case HOp::BLT:
              case HOp::BGE:
              case HOp::BLTU:
              case HOp::BGEU: {
                bool t = false;
                switch (i.op) {
                  case HOp::BEQ: t = gpr[i.rs1] == gpr[i.rs2]; break;
                  case HOp::BNE: t = gpr[i.rs1] != gpr[i.rs2]; break;
                  case HOp::BLT:
                    t = s32(gpr[i.rs1]) < s32(gpr[i.rs2]);
                    break;
                  case HOp::BGE:
                    t = s32(gpr[i.rs1]) >= s32(gpr[i.rs2]);
                    break;
                  case HOp::BLTU: t = gpr[i.rs1] < gpr[i.rs2]; break;
                  default: t = gpr[i.rs1] >= gpr[i.rs2]; break;
                }
                if constexpr (Tracing)
                    rec.taken = t;
                if (t)
                    next = u32(s32(pc) + 1 + i.imm);
                break;
              }
              case HOp::J:
                next = u32(i.imm);
                if constexpr (Tracing)
                    rec.taken = true;
                break;

              // --- co-design primitives ---
              case HOp::CKPT:
                darco_assert(!speculative_,
                             "nested CKPT in translated code");
                ckpt_ = ctx_;
                ckpt_.pc = pc;
                storeBuf_.clear();
                specLoads_.clear();
                speculative_ = true;
                break;

              case HOp::COMMIT:
                for (const SpecStore &s : storeBuf_)
                    memWrite(*mem_, s.addr, s.value, s.size);
                storeBuf_.clear();
                specLoads_.clear();
                speculative_ = false;
                break;

              case HOp::ASSERTZ:
              case HOp::ASSERTNZ: {
                bool fail = i.op == HOp::ASSERTZ ? gpr[i.rs1] != 0
                                                 : gpr[i.rs1] == 0;
                if (fail) {
                    exit.assertId = u32(i.imm);
                    bool was_spec = speculative_;
                    rollback();
                    if (was_spec)
                        pc = ctx_.pc;
                    return finish(ExitKind::AssertFail);
                }
                break;
              }

              case HOp::IBTC: {
                GAddr target = gpr[i.rs1];
                u32 host_target;
                // The inlined probe sequence costs more than one
                // instruction; charge the configured cost.
                n += ibtcHitCost_ - 1;
                since += ibtcHitCost_ - 1;
                if (ibtc_.lookup(target, host_target)) {
                    next = host_target;
                    if constexpr (Tracing)
                        rec.taken = true;
                } else {
                    exit.guestTarget = target;
                    if constexpr (Tracing) {
                        rec.nextPc = next * 4;
                        sink_->record(rec);
                    }
                    pc = next;
                    return finish(ExitKind::IbtcMiss);
                }
                break;
              }

              case HOp::RETIRE:
                if (retireSink_)
                    retireSink_->onRetire(u32(i.imm), since);
                since = 0;
                break;

              case HOp::EXITB:
                exit.exitId = u32(i.imm);
                if constexpr (Tracing) {
                    rec.nextPc = next * 4;
                    sink_->record(rec);
                }
                pc = next;
                return finish(ExitKind::Exit);

              default:
                panic("host emulator: unimplemented opcode ",
                      int(i.op));
            }

            if constexpr (Tracing) {
                rec.nextPc = next * 4;
                sink_->record(rec);
            }
            pc = next;
        }
    } catch (const PageMiss &pm) {
        bool was_spec = speculative_;
        rollback();
        if (was_spec)
            pc = ctx_.pc;
        exit.missPage = pm.page;
        return finish(ExitKind::PageMiss);
    }
}

} // namespace darco::host

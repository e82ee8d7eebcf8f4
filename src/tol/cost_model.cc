#include "tol/cost_model.hh"

#include "common/schema.hh"
#include "snapshot/io.hh"

namespace darco::tol
{

namespace
{

/** Base of the synthetic TOL code region fed to the timing model. */
constexpr u32 tolCodeBase = 0xf000'0000u;
/** TOL's own data region (tables, IR buffers). */
constexpr u32 tolDataBase = 0xf400'0000u;

} // namespace

const char *
overheadName(Overhead c)
{
    switch (c) {
      case Overhead::Interp: return "interpreter";
      case Overhead::BBTranslator: return "bb_translator";
      case Overhead::SBTranslator: return "sb_translator";
      case Overhead::Prologue: return "prologue";
      case Overhead::Chaining: return "chaining";
      case Overhead::Lookup: return "code_cache_lookup";
      case Overhead::Other: return "others";
      case Overhead::ConcTranslator: return "concurrent_translator";
      default: return "?";
    }
}

CostModel::CostModel(const Config &cfg, StatGroup &stats)
    : stats_(stats),
      cInterpInst_(conf::getUint(cfg, "cost.interp_inst")),
      cInterpDispatch_(conf::getUint(cfg, "cost.interp_dispatch")),
      cBbFixed_(conf::getUint(cfg, "cost.bb_fixed")),
      cBbGuestInst_(conf::getUint(cfg, "cost.bb_guest_inst")),
      cSbFixed_(conf::getUint(cfg, "cost.sb_fixed")),
      cSbWorkUnit_(conf::getUint(cfg, "cost.sb_work_unit")),
      cPrologue_(conf::getUint(cfg, "cost.prologue")),
      cChain_(conf::getUint(cfg, "cost.chain")),
      cLookup_(conf::getUint(cfg, "cost.lookup")),
      cDispatch_(conf::getUint(cfg, "cost.dispatch")),
      cInit_(conf::getUint(cfg, "cost.init")),
      cWordEmit_(conf::getUint(cfg, "cost.word_emit")),
      cEvict_(conf::getUint(cfg, "cost.evict")),
      cUnchain_(conf::getUint(cfg, "cost.unchain"))
{
}

void
CostModel::charge(Overhead cat, u64 n)
{
    totals_[unsigned(cat)] += n;
    Counter *&ov = ovCounters_[unsigned(cat)];
    if (!ov)
        ov = &stats_.counter(std::string("tol.ov_") + overheadName(cat));
    ov->inc(n);
    if (!sink_)
        return;
    // Critical-path charges join the core's dynamic stream; work on a
    // concurrent translator thread is reported out-of-band so the
    // timing model can overlap it with guest execution.
    if (cat == Overhead::ConcTranslator)
        sink_->recordConcurrent(n);
    else
        synthesize(n);
}

void
CostModel::synthesize(u64 n)
{
    // Deterministic representative mix: ~25% loads, 10% stores,
    // 12% branches, the rest integer ALU. PCs walk a 64 KiB TOL code
    // footprint; data accesses walk a 256 KiB table region.
    for (u64 k = 0; k < n; ++k) {
        host::InstRecord rec;
        rec.pc = tolCodeBase + (synthPc_ & 0xffff);
        u32 sel = synthPc_ % 100;
        synthPc_ += 4;
        rec.nextPc = tolCodeBase + (synthPc_ & 0xffff);
        if (sel < 25) {
            rec.cls = host::InstClass::Load;
            rec.memAddr = tolDataBase + ((synthPc_ * 37) & 0x3ffff);
        } else if (sel < 35) {
            rec.cls = host::InstClass::Store;
            rec.memAddr = tolDataBase + ((synthPc_ * 53) & 0x3ffff);
        } else if (sel < 47) {
            rec.cls = host::InstClass::Branch;
            rec.taken = (sel & 1) != 0;
        } else {
            rec.cls = host::InstClass::IntAlu;
        }
        sink_->record(rec);
    }
}

void
CostModel::chargeInterp(u64 guest_insts)
{
    charge(Overhead::Interp, cInterpInst_ * guest_insts);
}

void
CostModel::chargeInterpDispatch()
{
    charge(Overhead::Interp, cInterpDispatch_);
}

void
CostModel::chargeBBTranslation(u64 guest_insts, u64 host_words)
{
    charge(Overhead::BBTranslator,
           cBbFixed_ + cBbGuestInst_ * guest_insts +
               cWordEmit_ * host_words);
}

void
CostModel::chargeSBTranslation(u64 guest_insts, u64 pass_work,
                               u64 host_words)
{
    charge(Overhead::SBTranslator,
           cSbFixed_ + cBbGuestInst_ * guest_insts +
               cSbWorkUnit_ * pass_work + cWordEmit_ * host_words);
}

void
CostModel::chargeBBTranslationConc(u64 guest_insts, u64 host_words)
{
    charge(Overhead::ConcTranslator,
           cBbFixed_ + cBbGuestInst_ * guest_insts +
               cWordEmit_ * host_words);
}

void
CostModel::chargeSBTranslationConc(u64 guest_insts, u64 pass_work,
                                   u64 host_words)
{
    charge(Overhead::ConcTranslator,
           cSbFixed_ + cBbGuestInst_ * guest_insts +
               cSbWorkUnit_ * pass_work + cWordEmit_ * host_words);
}

u64
CostModel::estBBCost(u64 guest_insts) const
{
    return cBbFixed_ + cBbGuestInst_ * guest_insts;
}

u64
CostModel::estSBCost(u64 path_guest_insts) const
{
    return cSbFixed_ + cBbGuestInst_ * path_guest_insts;
}

void
CostModel::chargePrologue()
{
    charge(Overhead::Prologue, cPrologue_);
}

void
CostModel::chargeChainAttempt()
{
    charge(Overhead::Chaining, cChain_);
}

void
CostModel::chargeLookup()
{
    charge(Overhead::Lookup, cLookup_);
}

void
CostModel::chargeDispatch()
{
    charge(Overhead::Other, cDispatch_);
}

void
CostModel::chargeInit()
{
    charge(Overhead::Other, cInit_);
}

void
CostModel::chargeEviction(u64 unchained_sites)
{
    charge(Overhead::Other, cEvict_ + cUnchain_ * unchained_sites);
}

u64
CostModel::totalAll() const
{
    u64 t = 0;
    for (u64 v : totals_)
        t += v;
    return t;
}

u64
CostModel::totalCritical() const
{
    return totalAll() - totals_[unsigned(Overhead::ConcTranslator)];
}

void
CostModel::save(snapshot::Serializer &s) const
{
    s.w64(totals_.size());
    for (u64 v : totals_)
        s.w64(v);
    s.w32(synthPc_);
}

void
CostModel::restore(snapshot::Deserializer &d)
{
    u64 n = d.r64();
    if (n != totals_.size())
        throw snapshot::SnapshotError("overhead category count changed");
    for (u64 &v : totals_)
        v = d.r64();
    synthPc_ = d.r32();
}

} // namespace darco::tol

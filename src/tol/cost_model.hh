/**
 * @file
 * TOL-overhead cost model.
 *
 * The paper measures TOL overhead *in host instructions* grouped into
 * seven categories (Fig. 7): Interpreter, BB Translator, SB
 * Translator, Prologue, Chaining, Code-Cache Lookup, Others. Our TOL
 * logic is C++, so its host-instruction footprint is charged by this
 * model, proportional to the real work the components perform (guest
 * instructions interpreted, IR items processed per pass, host words
 * emitted, ...). Constants are configurable for calibration sweeps
 * (see the DESIGN.md substitution table).
 *
 * When a trace sink is attached, charged instructions are synthesized
 * into the dynamic stream with PCs in the TOL code region, so the
 * timing/power models see TOL/application interference (paper
 * Section III, "Interaction between TOL and application").
 */

#ifndef DARCO_TOL_COST_MODEL_HH
#define DARCO_TOL_COST_MODEL_HH

#include <array>

#include "common/config.hh"
#include "common/stats.hh"
#include "host/trace.hh"

namespace darco::snapshot
{
class Serializer;
class Deserializer;
} // namespace darco::snapshot

namespace darco::tol
{

/**
 * The paper's seven overhead categories (Fig. 7), plus the
 * concurrent-translator category introduced by the async pipeline:
 * translation work that has been moved off the guest critical path
 * onto a background translator thread. ConcTranslator charges are
 * *not* synthesized into the core's dynamic stream — the timing
 * model overlaps them (TraceSink::recordConcurrent) — and they are
 * excluded from totalCritical().
 */
enum class Overhead : u8
{
    Interp,
    BBTranslator,
    SBTranslator,
    Prologue,
    Chaining,
    Lookup,
    Other,
    ConcTranslator,
    NumCats,
};

/** Number of categories that sit on the guest critical path. */
constexpr unsigned numCriticalOverheads = unsigned(Overhead::ConcTranslator);

const char *overheadName(Overhead c);

/**
 * Charge accumulator + synthetic stream generator.
 *
 * Config keys (all host-instruction counts):
 *  cost.interp_inst (default 20)     per guest instruction interpreted
 *  cost.interp_dispatch (9)         per IM entry
 *  cost.bb_fixed (180)               per BB translation
 *  cost.bb_guest_inst (70)           per guest instruction translated
 *  cost.sb_fixed (700)               per SB construction
 *  cost.sb_work_unit (9)            per IR item processed per pass
 *  cost.prologue (14)                per TOL->code-cache transition
 *  cost.chain (30)                   per chaining attempt
 *  cost.lookup (15)                  per code-cache lookup
 *  cost.dispatch (9)                 per dispatch-loop iteration
 *  cost.init (40000)                 one-time TOL initialization
 *  cost.evict (150)                  per code-cache region eviction
 *  cost.unchain (24)                 per incoming chain site restored
 */
class CostModel
{
  public:
    CostModel(const Config &cfg, StatGroup &stats);

    void charge(Overhead cat, u64 host_insts);

    // Convenience entry points used by the TOL runtime.
    void chargeInterp(u64 guest_insts);
    void chargeInterpDispatch();
    void chargeBBTranslation(u64 guest_insts, u64 host_words);
    void chargeSBTranslation(u64 guest_insts, u64 pass_work,
                             u64 host_words);
    /** Same work, charged to the concurrent-translator category
     *  (async pipeline: off the guest critical path). */
    void chargeBBTranslationConc(u64 guest_insts, u64 host_words);
    void chargeSBTranslationConc(u64 guest_insts, u64 pass_work,
                                 u64 host_words);
    /**
     * Enqueue-time latency estimates for the async completion
     * schedule. Host-word terms are excluded: the emitted word count
     * is unknown until codegen, and the completion point must be a
     * pure function of enqueue-time inputs.
     */
    u64 estBBCost(u64 guest_insts) const;
    u64 estSBCost(u64 path_guest_insts) const;
    void chargePrologue();
    void chargeChainAttempt();
    void chargeLookup();
    void chargeDispatch();
    void chargeInit();
    /** Evicting one region: victim selection + unchaining its
     *  incoming sites. */
    void chargeEviction(u64 unchained_sites);

    u64 total(Overhead cat) const { return totals_[unsigned(cat)]; }
    u64 totalAll() const;
    /** All categories except ConcTranslator: overhead that actually
     *  delays the guest. */
    u64 totalCritical() const;

    /** Checkpoint hooks: the per-category accumulated totals. */
    void save(snapshot::Serializer &s) const;
    void restore(snapshot::Deserializer &d);

    /** Synthesize charged instructions into the timing stream. */
    void setTraceSink(host::TraceSink *sink) { sink_ = sink; }

  private:
    void synthesize(u64 n);

    StatGroup &stats_;
    std::array<u64, unsigned(Overhead::NumCats)> totals_{};
    /** `tol.ov_<cat>`, bound on the category's first charge so the
     *  counter key set is the same as with a lookup per charge. */
    std::array<Counter *, unsigned(Overhead::NumCats)> ovCounters_{};
    host::TraceSink *sink_ = nullptr;
    /** Cursor of the synthesized stream: timing state, so never
     *  saved; a fresh Tol starts the stream at its base. */
    u32 synthPc_ = 0;

    u64 cInterpInst_, cInterpDispatch_;
    u64 cBbFixed_, cBbGuestInst_;
    u64 cSbFixed_, cSbWorkUnit_;
    u64 cPrologue_, cChain_, cLookup_, cDispatch_, cInit_;
    u64 cWordEmit_;
    u64 cEvict_, cUnchain_;
};

} // namespace darco::tol

#endif // DARCO_TOL_COST_MODEL_HH

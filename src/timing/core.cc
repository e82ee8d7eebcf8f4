#include "timing/core.hh"

#include <algorithm>
#include <string>
#include <utility>

#include "common/schema.hh"

namespace darco::timing
{

using host::InstClass;
using host::InstRecord;
using host::noReg;

InOrderCore::InOrderCore(const Config &cfg, StatGroup &stats)
    : stats_(stats)
{
    issueWidth_ = u32(conf::getUint(cfg, "core.issue_width"));
    fetchWidth_ = u32(conf::getUint(cfg, "core.fetch_width"));
    iqSize_ = u32(conf::getUint(cfg, "core.iq_size"));
    frontendDepth_ = u32(conf::getUint(cfg, "core.frontend_depth"));

    u32 line = u32(conf::getUint(cfg, "cache.line"));
    auto cache = [&](const std::string &level, Cycle miss_lat,
                     Cache *next) {
        return std::make_unique<Cache>(
            level, u32(conf::getUint(cfg, level + ".size")),
            u32(conf::getUint(cfg, level + ".assoc")), line,
            conf::getUint(cfg, level + ".lat"), miss_lat, next, stats);
    };
    l2_ = cache("l2", conf::getUint(cfg, "mem.lat"), nullptr);
    l1i_ = cache("l1i", 0, l2_.get());
    l1d_ = cache("l1d", 0, l2_.get());
    fetchLineShift_ = l1i_->lineShift();
    auto tlb = [&](const std::string &name) {
        return std::make_unique<Tlb>(
            name, u32(conf::getUint(cfg, "tlb.l1_entries")),
            u32(conf::getUint(cfg, "tlb.l2_entries")),
            conf::getUint(cfg, "tlb.l2_lat"),
            conf::getUint(cfg, "tlb.walk_lat"), stats);
    };
    itlb_ = tlb("itlb");
    dtlb_ = tlb("dtlb");
    gshare_ = std::make_unique<Gshare>(
        u32(conf::getUint(cfg, "bpred.entries")),
        u32(conf::getUint(cfg, "bpred.history")), stats);
    btb_ = std::make_unique<Btb>(u32(conf::getUint(cfg, "btb.entries")),
                                 stats);
    prefetcher_ = std::make_unique<StridePrefetcher>(
        u32(conf::getUint(cfg, "prefetch.entries")),
        u32(conf::getUint(cfg, "prefetch.degree")),
        conf::getBool(cfg, "prefetch.enable") ? l1d_.get() : nullptr,
        stats);

    // Unit pools back to back; each class issues to one of them.
    auto pool = [&](const char *count) {
        u32 begin = u32(units_.size());
        units_.resize(units_.size() + conf::getUint(cfg, count), 0);
        return std::pair<u32, u32>(begin, u32(units_.size()));
    };
    auto [aluB, aluE] = pool("core.num_alu");
    auto [cpxB, cpxE] = pool("core.num_complex");
    auto [fpB, fpE] = pool("core.num_fp");
    auto [memB, memE] = pool("core.num_mem_ports");
    const Cycle latAlu = conf::getUint(cfg, "core.lat_alu");
    const Cycle latMul = conf::getUint(cfg, "core.lat_mul");
    const Cycle latDiv = conf::getUint(cfg, "core.lat_div");
    const Cycle latFp = conf::getUint(cfg, "core.lat_fp");
    const Cycle latFpDiv = conf::getUint(cfg, "core.lat_fpdiv");
    const Cycle latBranch = conf::getUint(cfg, "core.lat_branch");
    auto rule = [&](InstClass c) -> IssueRule & {
        return issueRule_[std::size_t(c)];
    };
    rule(InstClass::IntAlu) = {aluB, aluE, 1, latAlu};
    rule(InstClass::Other) = {aluB, aluE, 1, latAlu};
    rule(InstClass::IntMul) = {cpxB, cpxE, 1, latMul};
    rule(InstClass::IntDiv) = {cpxB, cpxE, latDiv, latDiv}; // unpipelined
    rule(InstClass::FpAlu) = {fpB, fpE, 1, latFp};
    rule(InstClass::FpMul) = {fpB, fpE, 1, latFp};
    rule(InstClass::FpDiv) = {fpB, fpE, latFpDiv, latFpDiv};
    rule(InstClass::Load) = {memB, memE, 1, 0};
    rule(InstClass::Store) = {memB, memE, 1, 0};
    rule(InstClass::Branch) = {aluB, aluE, 1, latBranch};
    rule(InstClass::Jump) = {aluB, aluE, 1, latBranch};
    iqRing_.assign(iqSize_, 0);

    // Concurrent translator threads modeled for the overlap (the
    // async pipeline's virtual-time schedule uses the same knob).
    vthreads_ = u32(conf::getUint(cfg, "tol.async.vthreads"));

    cCycles_ = &stats.counter("core.cycles");
    cInsts_ = &stats.counter("core.instructions");
    cAluOps_ = &stats.counter("core.alu_ops");
    cMulOps_ = &stats.counter("core.mul_ops");
    cDivOps_ = &stats.counter("core.div_ops");
    cFpOps_ = &stats.counter("core.fp_ops");
    cMemOps_ = &stats.counter("core.mem_ops");
    cBranches_ = &stats.counter("core.branches");
    cFetchStallCycles_ = &stats.counter("core.fetch_stall_cycles");
    cTranslatorInsts_ = &stats.counter("core.translator_insts");
}

void
InOrderCore::recordConcurrent(u64 host_insts)
{
    translatorInsts_ += host_insts;
    translatorCycles_ = (translatorInsts_ + vthreads_ - 1) / vthreads_;
    cTranslatorInsts_->inc(host_insts);
    cCycles_->set(cycles());
}

void
InOrderCore::recordBlock(const InstRecord *recs, std::size_t n)
{
    // Pipeline state, in locals for the block.
    Cycle fetchCycle = fetchCycle_;
    u32 fetched = fetchedThisCycle_;
    u64 lastLine = lastFetchLine_;
    Cycle lineReady = lineReady_;
    u32 iqHead = iqHead_;
    Cycle issueCycle = issueCycle_;
    u32 issued = issuedThisCycle_;
    Cycle lastRetire = lastRetire_;
    Cycle *const iq = iqRing_.data();
    Cycle *const regReady = regReady_.data();
    Cycle *const units = units_.data();
    // Block totals, added to the counters at the end.
    Cycle fetchStalls = 0;
    std::array<u64, numClasses> perClass{};

    for (const InstRecord *r = recs, *end = recs + n; r != end; ++r) {
        const InstRecord &rec = *r;

        // ---- front end -------------------------------------------------
        u64 line = rec.pc >> fetchLineShift_;
        if (line != lastLine) {
            lastLine = line;
            Cycle lat = itlb_->access(rec.pc) + l1i_->access(rec.pc, false);
            if (lat > 1)
                fetchStalls += lat - 1;
            lineReady = std::max(lineReady, fetchCycle + lat);
        }
        const bool fetchFull = fetched >= fetchWidth_;
        fetchCycle += fetchFull;
        fetched = fetchFull ? 1 : fetched + 1;
        fetchCycle = std::max(fetchCycle, lineReady);

        // Enter the instruction queue (decode pipeline), bounded by IQ
        // occupancy: the slot of the instruction iq_size back must
        // have issued before we can enter.
        Cycle ready = std::max(fetchCycle + frontendDepth_, iq[iqHead]);

        // ---- back end: in-order issue ----------------------------------
        ready = std::max(ready, regReady[rec.src1]);
        ready = std::max(ready, regReady[rec.src2]);
        ready = std::max(ready, issueCycle); // in-order constraint

        // The earliest-free unit of the class's pool; in-order issue
        // waits for it.
        const std::size_t cls = std::size_t(rec.cls);
        const IssueRule &how = issueRule_[cls];
        ++perClass[cls];
        Cycle *unit = units + how.begin;
        for (u32 u = how.begin + 1; u < how.end; ++u)
            unit = units[u] < *unit ? units + u : unit;
        Cycle issue = std::max(ready, *unit);
        *unit = issue + how.busy;

        Cycle lat = how.lat;
        if (rec.cls == InstClass::Load || rec.cls == InstClass::Store) {
            lat = dtlb_->access(rec.memAddr) +
                  l1d_->access(rec.memAddr, rec.cls == InstClass::Store);
            prefetcher_->observe(rec.pc, rec.memAddr);
        } else if (rec.cls == InstClass::Branch ||
                   rec.cls == InstClass::Jump) {
            bool mispredict = rec.cls == InstClass::Branch &&
                              gshare_->update(rec.pc, rec.taken);
            if (rec.taken) {
                u32 predicted;
                bool btb_hit = btb_->lookup(rec.pc, predicted);
                if (!btb_hit || predicted != rec.nextPc)
                    mispredict = true;
                btb_->update(rec.pc, rec.nextPc);
            }
            if (mispredict) {
                // Redirect: the front end restarts after resolution.
                fetchCycle = std::max(fetchCycle, issue + lat + 1);
                fetched = 0;
                lineReady = fetchCycle;
                lastLine = ~0ull;
            }
        }

        // Issue-width accounting: a full cycle pushes this one to the
        // next.
        const u32 sameCycle = issue == issueCycle ? issued + 1 : 1;
        const bool widthFull = sameCycle > issueWidth_;
        issue += widthFull;
        issued = widthFull ? 1 : sameCycle;
        issueCycle = issue;

        const Cycle done = issue + lat;
        regReady[rec.dst] = done;
        regReady[noReg] = 0;
        lastRetire = std::max(lastRetire, done);

        // IQ slot recycles at issue.
        iq[iqHead] = issue;
        iqHead = iqHead + 1 == iqSize_ ? 0 : iqHead + 1;
    }

    fetchCycle_ = fetchCycle;
    fetchedThisCycle_ = fetched;
    lastFetchLine_ = lastLine;
    lineReady_ = lineReady;
    iqHead_ = iqHead;
    issueCycle_ = issueCycle;
    issuedThisCycle_ = issued;
    lastRetire_ = lastRetire;

    auto count = [&](InstClass c) { return perClass[std::size_t(c)]; };
    instructions_ += n;
    cInsts_->inc(n);
    cAluOps_->inc(count(InstClass::IntAlu) + count(InstClass::Other));
    cMulOps_->inc(count(InstClass::IntMul));
    cDivOps_->inc(count(InstClass::IntDiv));
    cFpOps_->inc(count(InstClass::FpAlu) + count(InstClass::FpMul) +
                 count(InstClass::FpDiv));
    cMemOps_->inc(count(InstClass::Load) + count(InstClass::Store));
    cBranches_->inc(count(InstClass::Branch) + count(InstClass::Jump));
    cFetchStallCycles_->inc(fetchStalls);
    cCycles_->set(cycles());
}

Cycle
InOrderCore::cycles() const
{
    // Translator threads run on spare hardware at ~1 IPC each; the
    // run ends when both the main core and the translators finish.
    return std::max(lastRetire_, translatorCycles_);
}

} // namespace darco::timing

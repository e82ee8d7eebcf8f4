#include "tol/registry.hh"

#include <sstream>

#include "common/logging.hh"
#include "host/hisa.hh"
#include "obs/tracer.hh"

namespace darco::tol
{

using host::HInst;
using host::HOp;

TranslationRegistry::TranslationRegistry(host::CodeCache &cache,
                                         host::IbtcTable &ibtc,
                                         StatGroup &stats)
    : cache_(cache), ibtc_(ibtc), stats_(stats)
{
}

u32
TranslationRegistry::add(Translation t)
{
    u32 tid = u32(trans_.size());
    if (entryMap_.insert_or_assign(t.entry, tid).second)
        ++present_[bucket(t.entry)];
    hostPcMap_[t.hostPc] = tid;
    t.clockIdx = u32(clock_.size());
    clock_.push_back(tid);
    trans_.push_back(std::move(t));
    ++live_;
    if (trace_) {
        const Translation &added = trans_[tid];
        trace_->instant("cc", "cc.install", 0,
                        {{"tid", tid},
                         {"entry", added.entry},
                         {"words", added.words},
                         {"sb", added.mode == RegionMode::SB ? 1 : 0}});
    }
    return tid;
}

void
TranslationRegistry::unmap(GAddr entry, u32 tid)
{
    auto it = entryMap_.find(entry);
    if (it != entryMap_.end() && it->second == tid) {
        entryMap_.erase(it);
        --present_[bucket(entry)];
    }
}

void
TranslationRegistry::unmapEntry(u32 tid)
{
    unmap(trans_[tid].entry, tid);
}

u32
TranslationRegistry::probe(GAddr entry) const
{
    auto it = entryMap_.find(entry);
    return it == entryMap_.end() ? npos : it->second;
}


u32
TranslationRegistry::atHostBase(u32 host_pc) const
{
    auto it = hostPcMap_.find(host_pc);
    return it == hostPcMap_.end() ? npos : it->second;
}

u32
TranslationRegistry::addExit(const GlobalExit &ge)
{
    exits_.push_back(ge);
    return u32(exits_.size()) - 1;
}

void
TranslationRegistry::chain(u32 from_tid, u32 exit_idx, u32 to_tid)
{
    Translation &from = trans_[from_tid];
    Translation &to = trans_[to_tid];
    ExitDesc &d = from.exits[exit_idx];
    darco_assert(d.siteWord != ~0u && !d.chained,
                 "chain on an unpatchable or already-chained exit");
    HInst j;
    j.op = HOp::J;
    j.imm = s32(to.hostPc);
    cache_.setWord(d.siteWord, host::hencode(j));
    d.chained = true;
    d.chainedTo = to_tid;
    to.incoming.push_back(Translation::InChain{
        d.siteWord, from.exitIdBase + exit_idx, from_tid, exit_idx});
    stats_.bind(cChains_, "tol.chains").inc();
    if (trace_)
        trace_->instant("cc", "cc.chain", 0,
                        {{"from", from_tid}, {"to", to_tid}});
}

u32
TranslationRegistry::invalidate(u32 tid)
{
    Translation &t = trans_[tid];
    if (!t.valid)
        return 0;
    t.valid = false;
    --live_;

    unmap(t.entry, tid);
    hostPcMap_.erase(t.hostPc);

    // Unchain everyone who jumps into this region: restore their
    // EXITB words so control returns to TOL instead of running into
    // freed (and possibly reused) cache words.
    u32 unchained = 0;
    for (const Translation::InChain &c : t.incoming) {
        HInst restore;
        restore.op = HOp::EXITB;
        restore.imm = s32(c.exitId);
        cache_.setWord(c.site, host::hencode(restore));
        ExitDesc &src = trans_[c.fromTrans].exits[c.fromExit];
        src.chained = false;
        src.chainedTo = npos;
        ++unchained;
    }
    t.incoming.clear();

    // Detach this region's outgoing chains: its sites are about to be
    // freed, so targets must not try to restore them later.
    for (std::size_t e = 0; e < t.exits.size(); ++e) {
        ExitDesc &d = t.exits[e];
        if (!d.chained)
            continue;
        if (d.chainedTo != npos && trans_[d.chainedTo].valid) {
            auto &inc = trans_[d.chainedTo].incoming;
            for (std::size_t k = 0; k < inc.size(); ++k) {
                if (inc[k].fromTrans == tid && inc[k].fromExit == e) {
                    inc.erase(inc.begin() + k);
                    break;
                }
            }
        }
        d.chained = false;
        d.chainedTo = npos;
    }

    ibtc_.invalidate(t.entry);
    ibtc_.invalidateHostRange(t.hostPc, t.words);
    if (reclaim_)
        cache_.release(t.hostPc, t.words);

    // Swap-remove from the live clock list.
    u32 last = clock_.back();
    clock_[t.clockIdx] = last;
    trans_[last].clockIdx = t.clockIdx;
    clock_.pop_back();
    t.clockIdx = ~0u;
    if (hand_ >= clock_.size())
        hand_ = 0;

    // Dead translations keep their slot (tids are indices into
    // trans_) but drop their bulk: a long evict-policy run never
    // flushes, so per-generation garbage must stay small. The
    // GlobalExit rows stay too — EXITB ids are baked into emitted
    // code, so the exit-id space is append-only within a generation.
    t.exits.clear();
    t.exits.shrink_to_fit();

    stats_.bind(cInvalidations_, "tol.invalidations").inc();
    stats_.bind(cUnchains_, "tol.unchains").inc(unchained);
    if (trace_)
        trace_->instant("cc", "cc.invalidate", 0,
                        {{"tid", tid}, {"unchained", unchained}});
    return unchained;
}

u32
TranslationRegistry::evict(u32 tid)
{
    u32 words = trans_[tid].words;
    u32 unchained = invalidate(tid);
    stats_.bind(cEvictions_, "cc.evictions").inc();
    stats_.bind(cEvictUnchains_, "cc.evict_unchains").inc(unchained);
    stats_.bind(cBytesReclaimed_, "cc.bytes_reclaimed").inc(u64(words) * 4);
    if (trace_)
        trace_->instant("cc", "cc.evict", 0,
                        {{"tid", tid},
                         {"words", words},
                         {"unchained", unchained}});
    return words;
}

void
TranslationRegistry::clear()
{
    trans_.clear();
    entryMap_.clear();
    present_.fill(0);
    hostPcMap_.clear();
    exits_.clear();
    clock_.clear();
    live_ = 0;
    hand_ = 0;
    if (trace_)
        trace_->instant("cc", "cc.flush");
}

u32
TranslationRegistry::pickVictim(u32 pinned0, u32 pinned1)
{
    u32 n = u32(clock_.size());
    if (n == 0)
        return npos;
    // Two full sweeps: the first pass clears reference bits, the
    // second finds a cold translation.
    for (u32 scanned = 0; scanned < 2 * n; ++scanned) {
        u32 tid = clock_[hand_];
        hand_ = (hand_ + 1) % n;
        Translation &t = trans_[tid];
        if (tid == pinned0 || tid == pinned1)
            continue;
        if (t.refBit) {
            t.refBit = false;
            continue;
        }
        return tid;
    }
    // Everything kept getting touched between sweeps (can't happen
    // within one install) or everything is pinned: take any live
    // unpinned translation rather than fail.
    for (u32 tid : clock_) {
        if (tid != pinned0 && tid != pinned1)
            return tid;
    }
    return npos;
}

std::string
TranslationRegistry::checkInvariants() const
{
    std::ostringstream os;
    std::array<u32, 1u << filterBits> keys{};
    for (const auto &[entry, tid] : entryMap_)
        ++keys[bucket(entry)];
    if (keys != present_)
        return "presence filter disagrees with the entry map";
    for (u32 tid = 0; tid < trans_.size(); ++tid) {
        const Translation &t = trans_[tid];
        if (!t.valid) {
            // A dead translation must be fully detached.
            if (!t.incoming.empty()) {
                os << "dead tid " << tid << " still has incoming chains";
                return os.str();
            }
            continue;
        }
        for (std::size_t e = 0; e < t.exits.size(); ++e) {
            const ExitDesc &d = t.exits[e];
            if (!d.chained)
                continue;
            if (d.chainedTo == npos || d.chainedTo >= trans_.size() ||
                !trans_[d.chainedTo].valid) {
                os << "tid " << tid << " exit " << e
                   << " chained into a dead translation";
                return os.str();
            }
            // The patched word must be a J to the live target's base.
            const HInst w = host::hdecode(cache_.word(d.siteWord));
            if (w.op != HOp::J ||
                u32(w.imm) != trans_[d.chainedTo].hostPc) {
                os << "tid " << tid << " exit " << e
                   << " chain site does not jump at its target";
                return os.str();
            }
        }
        for (const Translation::InChain &c : t.incoming) {
            if (!trans_[c.fromTrans].valid) {
                os << "tid " << tid
                   << " has an incoming chain from dead tid "
                   << c.fromTrans;
                return os.str();
            }
            const ExitDesc &src = trans_[c.fromTrans].exits[c.fromExit];
            if (!src.chained || src.chainedTo != tid) {
                os << "tid " << tid
                   << " incoming record disagrees with source exit";
                return os.str();
            }
        }
    }
    return "";
}

} // namespace darco::tol

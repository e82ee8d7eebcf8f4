/**
 * @file
 * The translation registry.
 *
 * Owns every installed translation and all bookkeeping around it:
 *
 *  - the Translation table (tids are never reused within a cache
 *    generation; a full flush starts a new generation);
 *  - the guest-entry -> tid and host-base-pc -> tid maps the dispatch
 *    loop and rollback handling use, and a counting presence filter
 *    over the entry map's keys that answers most lookups of an
 *    untranslated pc without probing the map;
 *  - the global exit table (EXITB operands -> per-region exit
 *    descriptors);
 *  - chaining: patching EXITB sites into J words, the incoming-chain
 *    lists, and the symmetric unchaining when either side dies;
 *  - region-granular invalidation: unchain both directions, drop the
 *    maps, invalidate IBTC entries (by guest entry and by host range,
 *    since released words may be reused), and return the region's
 *    words to the code cache's free list;
 *  - the LRU clock (second-chance) the eviction policy sweeps when
 *    the code cache fills.
 *
 * Extracted from the Tol monolith so the cache policy is a swappable
 * design choice: Tol decides *when* to evict or flush; the registry
 * knows *how*.
 *
 * Thread safety: none. The registry, like the code cache it patches,
 * belongs to the simulation thread: the dispatch loop, retirement
 * accounting and the async publish point all run there. Async
 * translator workers only prepare regions from inputs frozen at
 * enqueue and never reach the registry; the translator's job queue
 * is the one structure the two sides share (see DESIGN.md).
 */

#ifndef DARCO_TOL_REGISTRY_HH
#define DARCO_TOL_REGISTRY_HH

#include <array>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/stats.hh"
#include "host/code_cache.hh"
#include "host/hemu.hh"
#include "tol/ir.hh"

namespace darco::obs
{
class Tracer;
} // namespace darco::obs

namespace darco::tol
{

/** One region exit as the runtime tracks it. */
struct ExitDesc
{
    ExitKind kind = ExitKind::Direct;
    GAddr target = 0;
    u32 instsRetired = 0;
    u32 bbsRetired = 0;
    u32 siteWord = ~0u;   //!< global code-cache word of the EXITB
    bool chained = false;
    u32 chainedTo = ~0u;  //!< tid this exit is chained into
};

/** An installed translation. */
struct Translation
{
    GAddr entry = 0;
    RegionMode mode = RegionMode::BB;
    u32 hostPc = 0;
    u32 words = 0;
    u32 exitIdBase = 0;
    std::vector<ExitDesc> exits;
    bool valid = true;
    bool refBit = true; //!< second-chance bit for the eviction clock
    u32 clockIdx = ~0u; //!< slot in the registry's live-clock list
    u32 assertFails = 0;
    u32 aliasFails = 0;

    /** Chain sites in other regions that jump into this one. */
    struct InChain
    {
        u32 site;
        u32 exitId;
        u32 fromTrans;
        u32 fromExit;
    };
    std::vector<InChain> incoming;
};

/** Global exit-table entry (EXITB operand decoding). */
struct GlobalExit
{
    u32 trans = 0;
    u32 exitIdx = 0;
    bool promote = false;
    GAddr promoteTarget = 0;
};

/**
 * Translation table + maps + chaining + eviction mechanics.
 *
 * Stats written here: tol.chains, tol.invalidations, tol.unchains,
 * cc.evictions, cc.bytes_reclaimed.
 */
class TranslationRegistry
{
  public:
    static constexpr u32 npos = ~0u;

    TranslationRegistry(host::CodeCache &cache, host::IbtcTable &ibtc,
                        StatGroup &stats);

    /**
     * Whether invalidation returns a region's words to the free list
     * (true, the evict policy) or leaves them as dead occupancy until
     * a full flush (false — the classic policy, where invalidated
     * regions are garbage the paper's TOL never reclaims).
     */
    void setReclaimOnInvalidate(bool on) { reclaim_ = on; }

    /**
     * Attach the event tracer (cc.install/chain/invalidate/evict/
     * flush instants); null detaches.
     */
    void setTracer(obs::Tracer *t) { trace_ = t; }

    /** tid the next add() will return (exit descriptors need it). */
    u32 nextTid() const { return u32(trans_.size()); }

    /** Register an installed translation (maps entry and host base). */
    u32 add(Translation t);

    /**
     * Drop the entry->tid mapping but keep the translation alive
     * (the unrolled-loop residual BB: reachable only via its chain).
     */
    void unmapEntry(u32 tid);

    /**
     * The tid mapped at a guest entry, or npos. A pc whose filter
     * bucket holds no mapped entry misses without probing the map:
     * IM asks this after every interpreted instruction.
     */
    u32
    lookup(GAddr entry) const
    {
        return present_[bucket(entry)] ? probe(entry) : npos;
    }

    u32 atHostBase(u32 host_pc) const;

    /** References into a growable table: add() may move them. */
    Translation &get(u32 tid) { return trans_[tid]; }
    const Translation &get(u32 tid) const { return trans_[tid]; }

    bool
    valid(u32 tid) const
    {
        return tid < trans_.size() && trans_[tid].valid;
    }

    /** Currently-installed translations (flushes/evictions excluded). */
    std::size_t liveCount() const { return live_; }
    /** All tids handed out this cache generation. */
    std::size_t totalCount() const { return trans_.size(); }

    // --- global exit table ---------------------------------------------
    u32 exitCount() const { return u32(exits_.size()); }
    u32 addExit(const GlobalExit &ge);
    /** Reference into a growable table: addExit() may move it. */
    const GlobalExit &exit(u32 id) const { return exits_[id]; }

    // --- chaining -------------------------------------------------------
    /**
     * Patch from's exit site into a direct jump to to's entry and
     * record the incoming chain on the target. The exit must have a
     * patchable site and not already be chained.
     */
    void chain(u32 from_tid, u32 exit_idx, u32 to_tid);

    // --- invalidation & eviction ---------------------------------------
    /**
     * Invalidate one translation: unchain incoming sites (restoring
     * their EXITBs), detach outgoing chains from targets' incoming
     * lists, drop the maps, invalidate IBTC, release the words.
     * @return number of incoming chain sites restored.
     */
    u32 invalidate(u32 tid);

    /** Invalidate as a capacity eviction (counts cc.* stats).
     *  @return words reclaimed. */
    u32 evict(u32 tid);

    /** Forget everything (after a full code-cache flush). */
    void clear();

    // --- LRU clock ------------------------------------------------------
    /** Mark a translation recently used (dispatch/retire/IBTC fill). */
    void
    touch(u32 tid)
    {
        if (tid < trans_.size())
            trans_[tid].refBit = true;
    }

    /**
     * Second-chance sweep for a cold translation to evict.
     * @param pinned0/1 tids that must survive (e.g. the residual BB a
     *        superblock being installed will chain into).
     * @return victim tid, or npos when nothing is evictable.
     */
    u32 pickVictim(u32 pinned0 = npos, u32 pinned1 = npos);

    /**
     * Structural consistency check for tests: every chained exit's
     * target must be live and point back at the exit's site; every
     * incoming record's source must be live and marked chained; the
     * presence filter counts exactly the entry map's keys.
     * @return empty string when consistent, else a description.
     */
    std::string checkInvariants() const;

  private:
    static constexpr unsigned filterBits = 12;

    static u32
    bucket(GAddr entry)
    {
        return (entry * 0x9e3779b1u) >> (32 - filterBits);
    }

    u32 probe(GAddr entry) const;
    /** Drop entry's mapping if it maps tid (unmap and invalidation). */
    void unmap(GAddr entry, u32 tid);

    host::CodeCache &cache_;
    host::IbtcTable &ibtc_;
    StatGroup &stats_;
    obs::Tracer *trace_ = nullptr;
    /** Bound on first use, so a run without chains or invalidations
     *  adds none of these keys to the stats map. */
    Counter *cChains_ = nullptr, *cInvalidations_ = nullptr,
            *cUnchains_ = nullptr, *cEvictions_ = nullptr,
            *cEvictUnchains_ = nullptr, *cBytesReclaimed_ = nullptr;

    std::vector<Translation> trans_;
    std::unordered_map<GAddr, u32> entryMap_;  //!< entry -> tid
    /** Keys of entryMap_ per bucket() (keys, not add() calls). */
    std::array<u32, 1u << filterBits> present_{};
    std::unordered_map<u32, u32> hostPcMap_;   //!< region base -> tid
    std::vector<GlobalExit> exits_;
    std::size_t live_ = 0;
    /**
     * Live tids in clock order (swap-removed on invalidation), so
     * victim sweeps cost O(live translations) — dead tids, which
     * accumulate across a cache generation, are never scanned.
     */
    std::vector<u32> clock_;
    u32 hand_ = 0; //!< clock hand: index into clock_
    bool reclaim_ = true;
};

} // namespace darco::tol

#endif // DARCO_TOL_REGISTRY_HH

/**
 * @file
 * Two-level TLB model (paper Section V-C: "two level TLB ...
 * hierarchies"). Fully-associative LRU levels; an L2 miss pays a
 * fixed page-walk latency.
 */

#ifndef DARCO_TIMING_TLB_HH
#define DARCO_TIMING_TLB_HH

#include <string>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"

namespace darco::timing
{

/**
 * One fully-associative TLB level with LRU replacement.
 *
 * A level finds a page through a hashed index (page number to entry,
 * chained per bucket) and keeps its entries on a recency list, so a
 * lookup and a replacement cost the same at 32 entries as at 2^20.
 * Accesses are dominated by repeats of the last page, so the level
 * checks its most recently used page before the index. Replacement is
 * exact LRU: the victim is the first entry never filled, else the
 * least recently used one, the same entry a scan over per-entry ticks
 * would pick.
 */
class TlbLevel
{
  public:
    TlbLevel(const std::string &name, u32 entries, StatGroup &stats)
        : entries_(entries)
    {
        u32 buckets = 2;
        while (buckets < 2 * entries)
            buckets *= 2;
        bucketShift_ = u32(32 - __builtin_ctz(buckets));
        buckets_.assign(buckets, none);
        hits_ = &stats.counter(name + ".hits");
        misses_ = &stats.counter(name + ".misses");
    }

    /** @param vpn a page number, addr >> 12 (so never noVpn)
     *  @return true on a hit */
    bool
    access(u32 vpn)
    {
        if (vpn == mruVpn_) {
            hits_->inc();
            return true;
        }
        u32 &head = buckets_[bucket(vpn)];
        for (u32 i = head; i != none; i = entries_[i].chain) {
            if (entries_[i].vpn == vpn) {
                hits_->inc();
                unlink(i);
                pushMru(i, vpn);
                return true;
            }
        }
        misses_->inc();
        u32 victim;
        if (filled_ < entries_.size()) {
            victim = filled_++;
        } else {
            victim = lru_;
            unindex(victim);
            unlink(victim);
        }
        entries_[victim].vpn = vpn;
        entries_[victim].chain = head;
        head = victim;
        pushMru(victim, vpn);
        return false;
    }

  private:
    /** No entry; no page number has these bits set (vpn = addr >> 12). */
    static constexpr u32 none = ~0u;
    static constexpr u32 noVpn = ~0u;

    struct Entry
    {
        u32 vpn = noVpn;
        u32 chain = none; //!< next entry of the same bucket
        u32 older = none; //!< recency list, towards lru_
        u32 newer = none; //!< recency list, towards mru_
    };

    u32 bucket(u32 vpn) const
    {
        return (vpn * 0x9e3779b1u) >> bucketShift_;
    }

    /** Remove entry i from its bucket's chain. */
    void
    unindex(u32 i)
    {
        u32 *p = &buckets_[bucket(entries_[i].vpn)];
        while (*p != i)
            p = &entries_[*p].chain;
        *p = entries_[i].chain;
    }

    /** Remove entry i from the recency list. */
    void
    unlink(u32 i)
    {
        Entry &e = entries_[i];
        if (e.newer != none)
            entries_[e.newer].older = e.older;
        else
            mru_ = e.older;
        if (e.older != none)
            entries_[e.older].newer = e.newer;
        else
            lru_ = e.newer;
    }

    /** Make entry i, now holding vpn, the most recently used. */
    void
    pushMru(u32 i, u32 vpn)
    {
        Entry &e = entries_[i];
        e.older = mru_;
        e.newer = none;
        if (mru_ != none)
            entries_[mru_].newer = i;
        else
            lru_ = i;
        mru_ = i;
        mruVpn_ = vpn;
    }

    std::vector<Entry> entries_;
    std::vector<u32> buckets_; //!< first entry of each chain
    u32 bucketShift_;          //!< 32 - log2(buckets)
    u32 filled_ = 0;           //!< entries ever filled, in index order
    u32 mru_ = none, lru_ = none;
    u32 mruVpn_ = noVpn;
    Counter *hits_;
    Counter *misses_;
};

/** L1 + L2 TLB with latencies. */
class Tlb
{
  public:
    Tlb(const std::string &name, u32 l1_entries, u32 l2_entries,
        Cycle l2_latency, Cycle walk_latency, StatGroup &stats)
        : l1_(name + ".l1", l1_entries, stats),
          l2_(name + ".l2", l2_entries, stats),
          l2Latency_(l2_latency), walkLatency_(walk_latency)
    {}

    /** @return added latency (0 on an L1 hit). */
    Cycle
    access(u32 addr)
    {
        u32 vpn = addr >> 12;
        if (l1_.access(vpn))
            return 0;
        if (l2_.access(vpn))
            return l2Latency_;
        return l2Latency_ + walkLatency_;
    }

  private:
    TlbLevel l1_;
    TlbLevel l2_;
    Cycle l2Latency_;
    Cycle walkLatency_;
};

} // namespace darco::timing

#endif // DARCO_TIMING_TLB_HH

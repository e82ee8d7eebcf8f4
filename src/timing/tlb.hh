/**
 * @file
 * Two-level TLB model (paper Section V-C: "two level TLB ...
 * hierarchies"). Fully-associative LRU levels; an L2 miss pays a
 * fixed page-walk latency.
 */

#ifndef DARCO_TIMING_TLB_HH
#define DARCO_TIMING_TLB_HH

#include <vector>

#include "common/stats.hh"
#include "common/types.hh"

namespace darco::timing
{

/**
 * One fully-associative TLB level.
 *
 * Accesses are dominated by repeats of the last page, so the level
 * remembers its most recently used entry and checks it before the
 * linear scan. The check is exact: a hit there applies the same LRU
 * tick and hit count as the scan would, and every hit or fill makes
 * its entry the new MRU.
 */
class TlbLevel
{
  public:
    TlbLevel(std::string name, u32 entries, StatGroup &stats)
        : entries_(entries)
    {
        hits_ = &stats.counter(name + ".hits");
        misses_ = &stats.counter(name + ".misses");
    }

    /** @param vpn a page number, addr >> 12 (so never noVpn)
     *  @return true on a hit */
    bool
    access(u32 vpn)
    {
        if (vpn == mruVpn_) {
            entries_[mru_].lru = ++tick_;
            hits_->inc();
            return true;
        }
        for (std::size_t i = 0; i < entries_.size(); ++i) {
            Entry &e = entries_[i];
            if (e.valid && e.vpn == vpn) {
                e.lru = ++tick_;
                hits_->inc();
                setMru(i, vpn);
                return true;
            }
        }
        misses_->inc();
        // Fill (LRU victim).
        std::size_t victim = 0;
        for (std::size_t i = 0; i < entries_.size(); ++i) {
            const Entry &e = entries_[i];
            if (!e.valid) {
                victim = i;
                break;
            }
            if (e.lru < entries_[victim].lru)
                victim = i;
        }
        Entry &v = entries_[victim];
        v.valid = true;
        v.vpn = vpn;
        v.lru = ++tick_;
        setMru(victim, vpn);
        return false;
    }

  private:
    struct Entry
    {
        u32 vpn = 0;
        bool valid = false;
        u64 lru = 0;
    };

    void
    setMru(std::size_t i, u32 vpn)
    {
        mru_ = i;
        mruVpn_ = vpn;
    }

    /** No page number has these bits set (vpn = addr >> 12). */
    static constexpr u32 noVpn = ~0u;

    std::vector<Entry> entries_;
    u64 tick_ = 0;
    std::size_t mru_ = 0;
    u32 mruVpn_ = noVpn;
    Counter *hits_;
    Counter *misses_;
};

/** L1 + L2 TLB with latencies. */
class Tlb
{
  public:
    Tlb(std::string name, u32 l1_entries, u32 l2_entries,
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

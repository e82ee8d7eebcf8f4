/**
 * @file
 * Set-associative cache model with LRU replacement and write-back,
 * write-allocate policy. Levels are chained (L1 -> L2 -> memory);
 * access() returns the total latency of servicing the request.
 *
 * The model is latency-oriented (no MSHR overlap): appropriate for
 * the paper's simple in-order core, where a miss stalls the pipeline.
 * Line size and set count are powers of two, so set and tag are a
 * shift and a mask: the timing model runs an access per fetch line and
 * per memory operation, where a division would dominate the lookup.
 *
 * A line is 16 bytes and has no valid bit: an invalid line holds a
 * tag no address has and LRU tick 0, while every fill or hit stamps a
 * fresh tick from 1 up. The hit test is then a tag compare, and the
 * victim (an invalid way, else the least recently used one) is simply
 * the first way with the lowest tick.
 */

#ifndef DARCO_TIMING_CACHE_HH
#define DARCO_TIMING_CACHE_HH

#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/stats.hh"

namespace darco::timing
{

/** One cache level. */
class Cache
{
  public:
    /**
     * @param name the level's config prefix and stats prefix (`l1d`)
     * @param next next level, or nullptr (then miss_latency is the
     *        memory latency)
     *
     * A level smaller than one set (size < assoc x line) is a
     * configuration error: fatal() names `<name>.size`, `<name>.assoc`
     * and `cache.line` with their values.
     */
    Cache(const std::string &name, u32 size_bytes, u32 assoc, u32 line_bytes,
          Cycle hit_latency, Cycle miss_latency, Cache *next,
          StatGroup &stats);

    /** Demand access; returns total latency in cycles. */
    Cycle access(u32 addr, bool write);

    /** Prefetch: fills the line, charged to the stats, no latency. */
    void prefetch(u32 addr);

    /** True if the address currently hits (no state change). */
    bool probe(u32 addr) const;

    u64 hits() const { return hits_->value(); }
    u64 misses() const { return misses_->value(); }

    /** log2 of the line size (asserted a power of two, at least 8). */
    u32 lineShift() const { return lineShift_; }

  private:
    struct Line
    {
        u32 tag = noTag;
        u32 dirty = 0;
        u64 lru = 0; //!< 0 while invalid
    };
    static_assert(sizeof(Line) == 16, "four lines per host cache line");

    /** Lines are at least 8 bytes, so no tag has its top bits set. */
    static constexpr u32 noTag = ~0u;

    /** Index of the first way of addr's set. */
    std::size_t setOf(u32 addr) const
    {
        return std::size_t((addr >> lineShift_) & (numSets_ - 1)) * assoc_;
    }
    u32 tagOf(u32 addr) const { return addr >> tagShift_; }

    /** The way of `ways` that holds `tag`, or assoc_. Scans every way. */
    u32 find(const Line *ways, u32 tag) const
    {
        u32 hit = assoc_;
        for (u32 w = 0; w < assoc_; ++w)
            hit = ways[w].tag == tag ? w : hit;
        return hit;
    }

    /**
     * Fill the line of addr into `ways` (victim: the first way with the
     * lowest tick), leaving it dirty iff `dirty`; returns the extra
     * latency from the next level.
     */
    Cycle fill(Line *ways, u32 tag, u32 addr, bool from_prefetch,
               bool dirty);

    u32 assoc_;
    u32 numSets_;
    u32 lineShift_; //!< log2(line bytes)
    u32 tagShift_;  //!< log2(line bytes * numSets_)
    Cycle hitLatency_;
    Cycle missLatency_;
    Cache *next_;
    std::vector<Line> lines_;
    u64 lruTick_ = 0;

    Counter *hits_;
    Counter *misses_;
    Counter *writebacks_;
    Counter *prefetches_;
};

} // namespace darco::timing

#endif // DARCO_TIMING_CACHE_HH

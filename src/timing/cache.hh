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
     * @param next next level, or nullptr (then miss_latency is the
     *        memory latency)
     */
    Cache(std::string name, u32 size_bytes, u32 assoc, u32 line_bytes,
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

    /** log2 of the line size (asserted a power of two). */
    u32 lineShift() const { return lineShift_; }

  private:
    struct Line
    {
        u64 tag = ~0ull;
        bool valid = false;
        bool dirty = false;
        u64 lru = 0;
    };

    /**
     * Fill the line of addr into `set` (victim: an invalid way, else
     * LRU), leaving it dirty iff `dirty`; returns the extra latency
     * from the next level.
     */
    Cycle fill(u32 set, u64 tag, u32 addr, bool from_prefetch,
               bool dirty);

    u32 setIndex(u32 addr) const
    {
        return (addr >> lineShift_) & (numSets_ - 1);
    }
    u64 tagOf(u32 addr) const { return u64(addr) >> tagShift_; }

    std::string name_;
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

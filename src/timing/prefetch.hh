/**
 * @file
 * Per-PC stride data prefetcher (paper Section V-C: "a stride data
 * prefetcher"). A small table tracks the last address and stride for
 * each load/store pc; two consecutive matching strides arm the entry,
 * and further accesses prefetch `degree` lines ahead.
 */

#ifndef DARCO_TIMING_PREFETCH_HH
#define DARCO_TIMING_PREFETCH_HH

#include <vector>

#include "common/stats.hh"
#include "timing/cache.hh"

namespace darco::timing
{

/** Stride prefetcher in front of the data cache. */
class StridePrefetcher
{
  public:
    StridePrefetcher(u32 entries, u32 degree, Cache *target,
                     StatGroup &stats)
        : table_(entries), mask_(entries - 1), degree_(degree),
          target_(target)
    {
        issued_ = &stats.counter("prefetch.issued");
    }

    void
    observe(u32 pc, u32 addr)
    {
        Entry &e = table_[(pc >> 2) & mask_];
        if (e.tag != pc) {
            e = Entry{};
            e.tag = pc;
            e.lastAddr = addr;
            return;
        }
        // Address arithmetic wraps modulo 2^32, as the hardware's does.
        s32 stride = s32(addr - e.lastAddr);
        if (stride != 0 && stride == e.stride) {
            if (e.confidence < 3)
                ++e.confidence;
        } else if (e.confidence > 0) {
            --e.confidence;
        }
        e.stride = stride;
        e.lastAddr = addr;
        if (e.confidence >= 2 && stride != 0 && target_) {
            for (u32 d = 1; d <= degree_; ++d) {
                target_->prefetch(addr + u32(stride) * d);
                issued_->inc();
            }
        }
    }

  private:
    struct Entry
    {
        u32 tag = ~0u;
        u32 lastAddr = 0;
        s32 stride = 0;
        u8 confidence = 0;
    };

    std::vector<Entry> table_;
    u32 mask_;
    u32 degree_;
    Cache *target_;
    Counter *issued_;
};

} // namespace darco::timing

#endif // DARCO_TIMING_PREFETCH_HH

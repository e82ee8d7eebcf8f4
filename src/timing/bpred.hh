/**
 * @file
 * Front-end predictors: gshare direction predictor and a
 * direct-mapped BTB (paper Section V-C: "equipped with a BTB and
 * gshare branch predictor").
 */

#ifndef DARCO_TIMING_BPRED_HH
#define DARCO_TIMING_BPRED_HH

#include <vector>

#include "common/logging.hh"
#include "common/stats.hh"

namespace darco::timing
{

/**
 * gshare: global history XOR pc indexing 2-bit counters. The history
 * register is a u32, so it keeps 1 to 32 outcomes (`bpred.history`).
 */
class Gshare
{
  public:
    Gshare(u32 entries, u32 history_bits, StatGroup &stats)
        : table_(entries, 1), mask_(entries - 1),
          histMask_(historyMask(history_bits))
    {
        darco_assert((entries & (entries - 1)) == 0,
                     "gshare table must be power-of-two");
        lookups_ = &stats.counter("bpred.lookups");
        mispredicts_ = &stats.counter("bpred.mispredicts");
    }

    /** Update with the outcome; returns true on mispredict. */
    bool
    update(u32 pc, bool taken)
    {
        lookups_->inc();
        u32 i = index(pc);
        bool pred = table_[i] >= 2;
        if (taken && table_[i] < 3)
            ++table_[i];
        else if (!taken && table_[i] > 0)
            --table_[i];
        history_ = ((history_ << 1) | (taken ? 1 : 0)) & histMask_;
        bool miss = pred != taken;
        if (miss)
            mispredicts_->inc();
        return miss;
    }

  private:
    static u32
    historyMask(u32 bits)
    {
        darco_assert(bits >= 1 && bits <= 32,
                     "gshare history must be 1 to 32 bits");
        return ~0u >> (32 - bits);
    }

    u32
    index(u32 pc) const
    {
        return ((pc >> 2) ^ history_) & mask_;
    }

    std::vector<u8> table_;
    u32 mask_;
    u32 histMask_;
    u32 history_ = 0;
    Counter *lookups_;
    Counter *mispredicts_;
};

/** Direct-mapped branch target buffer. */
class Btb
{
  public:
    Btb(u32 entries, StatGroup &stats)
        : entries_(entries), mask_(entries - 1)
    {
        darco_assert((entries & (entries - 1)) == 0,
                     "BTB must be power-of-two");
        hits_ = &stats.counter("btb.hits");
        misses_ = &stats.counter("btb.misses");
    }

    /** @return true and the target on hit. */
    bool
    lookup(u32 pc, u32 &target)
    {
        const Entry &e = entries_[(pc >> 2) & mask_];
        if (e.tag == pc) {
            hits_->inc();
            target = e.target;
            return true;
        }
        misses_->inc();
        return false;
    }

    void
    update(u32 pc, u32 target)
    {
        entries_[(pc >> 2) & mask_] = Entry{pc, target};
    }

  private:
    struct Entry
    {
        u32 tag = ~0u;
        u32 target = 0;
    };

    std::vector<Entry> entries_;
    u32 mask_;
    Counter *hits_;
    Counter *misses_;
};

} // namespace darco::timing

#endif // DARCO_TIMING_BPRED_HH

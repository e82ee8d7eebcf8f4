#include "timing/cache.hh"

namespace darco::timing
{

namespace
{

constexpr bool
isPow2(u32 v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

} // namespace

Cache::Cache(std::string name, u32 size_bytes, u32 assoc,
             u32 line_bytes, Cycle hit_latency, Cycle miss_latency,
             Cache *next, StatGroup &stats)
    : name_(std::move(name)),
      assoc_(assoc),
      numSets_(size_bytes / (line_bytes * assoc)),
      hitLatency_(hit_latency),
      missLatency_(miss_latency),
      next_(next)
{
    darco_assert(isPow2(line_bytes) && isPow2(numSets_),
                 "cache geometry must be power-of-two: ", name_);
    lineShift_ = u32(__builtin_ctz(line_bytes));
    tagShift_ = lineShift_ + u32(__builtin_ctz(numSets_));
    lines_.resize(std::size_t(numSets_) * assoc_);
    hits_ = &stats.counter(name_ + ".hits");
    misses_ = &stats.counter(name_ + ".misses");
    writebacks_ = &stats.counter(name_ + ".writebacks");
    prefetches_ = &stats.counter(name_ + ".prefetches");
}

bool
Cache::probe(u32 addr) const
{
    u32 set = setIndex(addr);
    u64 tag = tagOf(addr);
    for (u32 w = 0; w < assoc_; ++w) {
        const Line &l = lines_[std::size_t(set) * assoc_ + w];
        if (l.valid && l.tag == tag)
            return true;
    }
    return false;
}

Cycle
Cache::fill(u32 set, u64 tag, u32 addr, bool from_prefetch, bool dirty)
{
    // Victim: invalid first, else LRU.
    Line *victim = nullptr;
    for (u32 w = 0; w < assoc_; ++w) {
        Line &l = lines_[std::size_t(set) * assoc_ + w];
        if (!l.valid) {
            victim = &l;
            break;
        }
        if (!victim || l.lru < victim->lru)
            victim = &l;
    }
    if (victim->valid && victim->dirty)
        writebacks_->inc(); // write-back absorbed by write buffers

    Cycle lat = 0;
    if (next_) {
        if (from_prefetch)
            next_->prefetch(addr);
        else
            lat = next_->access(addr, false);
    } else {
        lat = missLatency_;
    }
    victim->valid = true;
    victim->dirty = dirty;
    victim->tag = tag;
    victim->lru = ++lruTick_;
    return lat;
}

Cycle
Cache::access(u32 addr, bool write)
{
    u32 set = setIndex(addr);
    u64 tag = tagOf(addr);
    for (u32 w = 0; w < assoc_; ++w) {
        Line &l = lines_[std::size_t(set) * assoc_ + w];
        if (l.valid && l.tag == tag) {
            hits_->inc();
            l.lru = ++lruTick_;
            l.dirty |= write;
            return hitLatency_;
        }
    }
    misses_->inc();
    return hitLatency_ + fill(set, tag, addr, false, write);
}

void
Cache::prefetch(u32 addr)
{
    if (probe(addr))
        return;
    prefetches_->inc();
    fill(setIndex(addr), tagOf(addr), addr, true, false);
}

} // namespace darco::timing

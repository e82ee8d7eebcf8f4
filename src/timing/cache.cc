#include "timing/cache.hh"

#include "common/schema.hh"

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

Cache::Cache(const std::string &name, u32 size_bytes, u32 assoc,
             u32 line_bytes, Cycle hit_latency, Cycle miss_latency,
             Cache *next, StatGroup &stats)
    : assoc_(assoc),
      hitLatency_(hit_latency),
      missLatency_(miss_latency),
      next_(next)
{
    std::string bad =
        conf::cacheGeometryError(name, size_bytes, assoc, line_bytes);
    if (!bad.empty())
        fatal(bad);
    darco_assert(assoc > 0 && line_bytes >= 8 && isPow2(line_bytes),
                 "cache geometry: ", name);
    numSets_ = size_bytes / (line_bytes * assoc);
    darco_assert(isPow2(numSets_), "cache set count must be a power of two: ",
                 name);
    lineShift_ = u32(__builtin_ctz(line_bytes));
    tagShift_ = lineShift_ + u32(__builtin_ctz(numSets_));
    lines_.resize(std::size_t(numSets_) * assoc_);
    hits_ = &stats.counter(name + ".hits");
    misses_ = &stats.counter(name + ".misses");
    writebacks_ = &stats.counter(name + ".writebacks");
    prefetches_ = &stats.counter(name + ".prefetches");
}

bool
Cache::probe(u32 addr) const
{
    return find(&lines_[setOf(addr)], tagOf(addr)) < assoc_;
}

Cycle
Cache::fill(Line *ways, u32 tag, u32 addr, bool from_prefetch, bool dirty)
{
    // Victim: the first way with the lowest tick, which is the first
    // invalid way if there is one, else the least recently used.
    Line *victim = ways;
    for (u32 w = 1; w < assoc_; ++w)
        victim = ways[w].lru < victim->lru ? &ways[w] : victim;
    if (victim->dirty)
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
    victim->tag = tag;
    victim->dirty = dirty;
    victim->lru = ++lruTick_;
    return lat;
}

Cycle
Cache::access(u32 addr, bool write)
{
    Line *ways = &lines_[setOf(addr)];
    u32 tag = tagOf(addr);
    u32 w = find(ways, tag);
    if (w < assoc_) {
        hits_->inc();
        ways[w].lru = ++lruTick_;
        ways[w].dirty |= write;
        return hitLatency_;
    }
    misses_->inc();
    return hitLatency_ + fill(ways, tag, addr, false, write);
}

void
Cache::prefetch(u32 addr)
{
    Line *ways = &lines_[setOf(addr)];
    u32 tag = tagOf(addr);
    if (find(ways, tag) < assoc_)
        return;
    prefetches_->inc();
    fill(ways, tag, addr, true, false);
}

} // namespace darco::timing

/**
 * @file
 * Lightweight statistics registry.
 *
 * Components register named scalar counters, averages, and histograms
 * against a StatGroup. The registry supports dumping in a stable text
 * format and resetting (needed by the sampling methodology, which
 * discards warm-up statistics).
 */

#ifndef DARCO_COMMON_STATS_HH
#define DARCO_COMMON_STATS_HH

#include <atomic>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "common/types.hh"

namespace darco
{

/**
 * A single named 64-bit counter.
 *
 * A plain integer with a single writer: a StatGroup is written only by
 * the thread that runs its simulation. Async translator workers run
 * only Tol::prepare, which touches no stats, and each campaign job
 * builds its own Controller and timing StatGroup, so no counter is
 * ever shared between threads (DESIGN.md; the TSan CI job checks it).
 */
class Counter
{
  public:
    void inc(u64 by = 1) { value_ += by; }
    void set(u64 v) { value_ = v; }
    void reset() { value_ = 0; }
    u64 value() const { return value_; }

  private:
    u64 value_ = 0;
};

/**
 * Simple fixed-bucket histogram over u64 samples.
 *
 * Updates are relaxed atomics, so one histogram may be sampled from
 * several threads at once; no ordering is implied between cells. The
 * simulator samples one per superblock publish, far off the per-record
 * and per-dispatch paths, so the atomics cost nothing measurable. The
 * bucket limits are immutable after construction.
 */
class Histogram
{
  public:
    /** @param bucket_limits ascending upper bounds; a final overflow
     *  bucket is added implicitly. */
    explicit Histogram(std::vector<u64> bucket_limits = {});
    // Copies/moves snapshot the atomics (registration-time only; the
    // stat registry never moves a histogram while samplers are live).
    Histogram(const Histogram &o);
    Histogram &operator=(const Histogram &o);
    Histogram(Histogram &&o) noexcept;
    Histogram &operator=(Histogram &&o) noexcept;

    void sample(u64 v, u64 weight = 1);
    void reset();

    u64 count() const { return count_.load(std::memory_order_relaxed); }
    u64 sum() const { return sum_.load(std::memory_order_relaxed); }
    double mean() const
    {
        u64 c = count();
        return c ? double(sum()) / c : 0.0;
    }
    /** Per-bucket counts (snapshot by value). */
    std::vector<u64> buckets() const;
    const std::vector<u64> &limits() const { return limits_; }

  private:
    std::vector<u64> limits_;
    std::vector<std::atomic<u64>> counts_;
    std::atomic<u64> count_{0};
    std::atomic<u64> sum_{0};
};

/**
 * A named collection of counters and histograms.
 *
 * Lookup is by string name; creation is lazy, so components can simply
 * write `stats.counter("tol.chained").inc()`. A returned reference
 * stays valid for the group's lifetime (counters are never erased), so
 * hot paths bind a `Counter*` once instead of looking it up per event.
 */
class StatGroup
{
  public:
    explicit StatGroup(std::string name = "stats") : name_(std::move(name))
    {}

    Counter &counter(const std::string &name);
    Histogram &histogram(const std::string &name,
                         std::vector<u64> limits = {});

    /** Read a counter without creating it; 0 if absent. */
    u64 value(const std::string &name) const;

    void resetAll();
    void dump(std::ostream &os) const;

    /**
     * Machine-readable dump with a stable schema:
     *   {"name": ..., "counters": {k: v, ...},
     *    "histograms": {k: {"count", "sum", "mean",
     *                       "limits": [...], "buckets": [...]}}}
     * Keys are emitted in sorted (map) order.
     */
    void dumpJson(std::ostream &os) const;

    const std::string &name() const { return name_; }
    const std::map<std::string, Counter> &counters() const
    {
        return counters_;
    }

  private:
    std::string name_;
    std::map<std::string, Counter> counters_;
    std::map<std::string, Histogram> histograms_;
};

} // namespace darco

#endif // DARCO_COMMON_STATS_HH

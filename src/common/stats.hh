/**
 * @file
 * Lightweight statistics registry.
 *
 * Components register named 64-bit counters against a StatGroup; a
 * group is one map of counters, dumped as JSON in a stable schema.
 * A Controller's group lives as long as the Controller, but its
 * contents are rebuilt by every load() and checkpoint restore
 * (sim/controller.hh).
 */

#ifndef DARCO_COMMON_STATS_HH
#define DARCO_COMMON_STATS_HH

#include <map>
#include <ostream>
#include <string>

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
 * A named collection of counters.
 *
 * Lookup is by string name; creation is lazy, so components can simply
 * write `stats.counter("tol.chained").inc()`. A returned reference
 * stays valid until the group is destroyed or assigned over (counters
 * are never erased), so hot paths bind a `Counter*` once instead of
 * looking it up per event.
 */
class StatGroup
{
  public:
    explicit StatGroup(std::string name = "stats") : name_(std::move(name))
    {}

    Counter &counter(const std::string &name);

    /** Read a counter without creating it; 0 if absent. */
    u64 value(const std::string &name) const;

    /** Zero every counter; the key set stays. */
    void resetAll();

    /**
     * Machine-readable dump with a stable schema:
     *   {"name": ..., "counters": {k: v, ...}}
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
};

} // namespace darco

#endif // DARCO_COMMON_STATS_HH

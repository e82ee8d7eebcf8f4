/**
 * @file
 * obs::Tracer — deterministic in-memory event recorder with a Chrome
 * trace-event JSON exporter (loadable in Perfetto / chrome://tracing).
 *
 * Determinism contract (mirrors the async translator's): all events
 * are emitted from the simulation thread at deterministic points in
 * the guest's virtual time; async translation jobs appear as spans on
 * virtual worker tracks computed from the enqueue sequence number, so
 * the recorded stream is byte-identical for any positive
 * `tol.async.threads`. No host clock is read, so traces are diffable.
 *
 * Components hold a raw `Tracer *` that is nullptr when tracing is
 * disabled — the disabled path is a single pointer test, and no
 * counters or allocations exist at all.
 */

#ifndef DARCO_OBS_TRACER_HH
#define DARCO_OBS_TRACER_HH

#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "obs/event.hh"

namespace darco::obs
{

class Tracer
{
  public:
    /**
     * Point the tracer at the simulation's retired-instruction
     * counter. Re-pointable (the Tol is rebuilt on checkpoint
     * restore); events emitted while unset are stamped 0.
     */
    void setVirtualClock(const u64 *vclock) { vclock_ = vclock; }

    /** Retired guest instructions right now (0 before attach). */
    u64 now() const { return vclock_ ? *vclock_ : 0; }

    /** Name a timeline row ("main", "translator-1", ...). */
    void setTrackName(u16 track, std::string name);
    /** Name the whole process row (campaign job identity). */
    void setProcessName(std::string name);

    /** Record a point event at the current virtual time. */
    void instant(const char *component, std::string name, u16 track = 0,
                 std::vector<std::pair<std::string, u64>> args = {});

    /** Record a duration span [start, start + dur). */
    void complete(const char *component, std::string name, u64 start,
                  u64 dur, u16 track = 0,
                  std::vector<std::pair<std::string, u64>> args = {});

    /** Recorded events, in emission order (test access). */
    const std::vector<TraceEvent> &events() const { return events_; }

    const std::string &processName() const { return process_; }

    /**
     * Emit {"traceEvents": [...]} — metadata rows first (process and
     * track names), then every event in emission order. `ts`/`dur`
     * are virtual ticks (1 tick = 1 retired guest instruction).
     */
    void exportChromeJson(std::ostream &os) const;

  private:
    void push(TraceEvent ev);

    const u64 *vclock_ = nullptr;
    std::string process_ = "darco";
    std::map<u16, std::string> trackNames_{{0, "main"}};
    std::vector<TraceEvent> events_;
    // Emission is simulation-thread-only by design; the mutex is a
    // cheap defensive guarantee for tests that poke the tracer from
    // helper threads.
    mutable std::mutex mu_;
};

} // namespace darco::obs

#endif // DARCO_OBS_TRACER_HH

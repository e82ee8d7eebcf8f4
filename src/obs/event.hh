/**
 * @file
 * Trace-event model for the observability subsystem.
 *
 * Every event is stamped with *virtual time* — the number of retired
 * guest instructions at emission — which is a pure function of the
 * simulated execution and therefore byte-identical across host
 * schedules and `tol.async.threads` worker counts, so traces are
 * diffable.
 */

#ifndef DARCO_OBS_EVENT_HH
#define DARCO_OBS_EVENT_HH

#include <string>
#include <utility>
#include <vector>

#include "common/types.hh"

namespace darco::obs
{

/** Chrome-trace-event phases we emit. */
enum class Phase : u8
{
    Complete, //!< a duration span ("X": ts + dur)
    Instant,  //!< a point event ("i")
};

/**
 * One trace event. `track` selects the timeline row: track 0 is the
 * main guest-execution thread; tracks 1..vthreads are the virtual
 * translator workers of the async pipeline (deterministic assignment
 * by enqueue sequence, never by host thread identity).
 */
struct TraceEvent
{
    Phase phase = Phase::Instant;
    u16 track = 0;
    const char *component = ""; //!< static category string ("mode", ...)
    std::string name;
    u64 vtime = 0;  //!< retired guest insts at event start
    u64 vdur = 0;   //!< virtual duration (Complete only)
    std::vector<std::pair<std::string, u64>> args;
};

} // namespace darco::obs

#endif // DARCO_OBS_EVENT_HH

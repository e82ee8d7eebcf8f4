#include "obs/tracer.hh"

#include <cstdio>

namespace darco::obs
{

namespace
{

/** JSON string escape (names are controlled ASCII, but be safe). */
std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        case '\r': out += "\\r"; break;
        default:
            if (u8(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", unsigned(u8(c)));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

void
writeMeta(std::ostream &os, const char *what, u16 tid,
          const std::string &name, bool &first)
{
    if (!first)
        os << ",\n";
    first = false;
    os << "{\"name\":\"" << what << "\",\"ph\":\"M\",\"pid\":1,\"tid\":"
       << tid << ",\"args\":{\"name\":\"" << jsonEscape(name) << "\"}}";
}

} // namespace

void
Tracer::setTrackName(u16 track, std::string name)
{
    std::lock_guard<std::mutex> lock(mu_);
    trackNames_[track] = std::move(name);
}

void
Tracer::setProcessName(std::string name)
{
    std::lock_guard<std::mutex> lock(mu_);
    process_ = std::move(name);
}

void
Tracer::push(TraceEvent ev)
{
    std::lock_guard<std::mutex> lock(mu_);
    events_.push_back(std::move(ev));
}

void
Tracer::instant(const char *component, std::string name, u16 track,
                std::vector<std::pair<std::string, u64>> args)
{
    TraceEvent ev;
    ev.phase = Phase::Instant;
    ev.track = track;
    ev.component = component;
    ev.name = std::move(name);
    ev.vtime = now();
    ev.args = std::move(args);
    push(std::move(ev));
}

void
Tracer::complete(const char *component, std::string name, u64 start,
                 u64 dur, u16 track,
                 std::vector<std::pair<std::string, u64>> args)
{
    TraceEvent ev;
    ev.phase = Phase::Complete;
    ev.track = track;
    ev.component = component;
    ev.name = std::move(name);
    ev.vtime = start;
    ev.vdur = dur;
    ev.args = std::move(args);
    push(std::move(ev));
}

void
Tracer::exportChromeJson(std::ostream &os) const
{
    std::lock_guard<std::mutex> lock(mu_);
    os << "{\"traceEvents\":[\n";
    bool first = true;
    writeMeta(os, "process_name", 0, process_, first);
    for (const auto &[tid, name] : trackNames_)
        writeMeta(os, "thread_name", tid, name, first);
    for (const TraceEvent &ev : events_) {
        if (!first)
            os << ",\n";
        first = false;
        os << "{\"name\":\"" << jsonEscape(ev.name) << "\",\"cat\":\""
           << ev.component << "\",\"ph\":\""
           << (ev.phase == Phase::Complete ? "X" : "i")
           << "\",\"pid\":1,\"tid\":" << ev.track
           << ",\"ts\":" << ev.vtime;
        if (ev.phase == Phase::Complete)
            os << ",\"dur\":" << ev.vdur;
        else
            os << ",\"s\":\"t\"";
        if (!ev.args.empty()) {
            os << ",\"args\":{";
            bool firstArg = true;
            for (const auto &[k, v] : ev.args) {
                if (!firstArg)
                    os << ",";
                firstArg = false;
                os << "\"" << jsonEscape(k) << "\":" << v;
            }
            os << "}";
        }
        os << "}";
    }
    os << "\n]}\n";
}

} // namespace darco::obs

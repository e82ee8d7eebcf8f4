#include "common/logging.hh"

#include <atomic>
#include <cstdio>
#include <mutex>

namespace darco
{

namespace
{
std::atomic<LogSink *> g_sink{nullptr}; // nullptr = stderr
} // namespace

LogSink *
setLogSink(LogSink *sink)
{
    return g_sink.exchange(sink, std::memory_order_acq_rel);
}

namespace detail
{

void
emitWarning(const std::string &msg)
{
    if (LogSink *sink = g_sink.load(std::memory_order_acquire)) {
        sink->log(msg);
        return;
    }
    // One mutex keeps lines whole when pool workers and coordinator
    // threads warn at once.
    static std::mutex mu;
    std::lock_guard<std::mutex> lock(mu);
    std::fprintf(stderr, "warn: %s\n", msg.c_str());
}

} // namespace detail

} // namespace darco

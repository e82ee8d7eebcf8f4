/**
 * @file
 * Status/error reporting in the gem5 tradition: panic() for internal
 * invariant violations, fatal() for user errors, warn() for non-fatal
 * conditions.
 *
 * warn() formats its arguments into one line and hands it to the
 * process sink. The default sink prints "warn: <msg>" on stderr; tests
 * capture warnings by installing their own sink with setLogSink().
 */

#ifndef DARCO_COMMON_LOGGING_HH
#define DARCO_COMMON_LOGGING_HH

#include <sstream>
#include <stdexcept>
#include <string>

namespace darco
{

/** Thrown by panic(): an internal invariant was violated (a DARCO bug). */
class PanicError : public std::logic_error
{
  public:
    explicit PanicError(const std::string &msg) : std::logic_error(msg) {}
};

/** Thrown by fatal(): the simulation cannot continue due to user error. */
class FatalError : public std::runtime_error
{
  public:
    explicit FatalError(const std::string &msg) : std::runtime_error(msg) {}
};

/** Where warn() lines go; tests install one to capture warnings. */
class LogSink
{
  public:
    virtual ~LogSink() = default;
    /** One formatted warning, without the "warn: " prefix. */
    virtual void log(const std::string &msg) = 0;
};

/**
 * Install a process-wide sink; nullptr restores the default, which
 * prints "warn: <msg>" on stderr. Returns the previously installed
 * sink (nullptr when it was the default).
 */
LogSink *setLogSink(LogSink *sink);

namespace detail
{

inline void
formatInto(std::ostringstream &os)
{
    (void)os;
}

template <typename T, typename... Rest>
void
formatInto(std::ostringstream &os, const T &first, const Rest &...rest)
{
    os << first;
    formatInto(os, rest...);
}

template <typename... Args>
std::string
format(const Args &...args)
{
    std::ostringstream os;
    formatInto(os, args...);
    return os.str();
}

/** Hand one formatted line to the installed sink. */
void emitWarning(const std::string &msg);

} // namespace detail

/**
 * Report an internal invariant violation and abort via exception.
 * Use only for conditions that indicate a bug in DARCO itself.
 */
template <typename... Args>
[[noreturn]] void
panic(const Args &...args)
{
    throw PanicError(detail::format("panic: ", args...));
}

/** Report an unrecoverable user-level error (bad config, bad input). */
template <typename... Args>
[[noreturn]] void
fatal(const Args &...args)
{
    throw FatalError(detail::format("fatal: ", args...));
}

/** Non-fatal warning: one line to the process sink. */
template <typename... Args>
void
warn(const Args &...args)
{
    detail::emitWarning(detail::format(args...));
}

/** panic() unless the condition holds. */
#define darco_assert(cond, ...)                                             \
    do {                                                                    \
        if (!(cond)) {                                                      \
            ::darco::panic("assertion '", #cond, "' failed at ", __FILE__, \
                           ":", __LINE__, " ", ##__VA_ARGS__);              \
        }                                                                   \
    } while (0)

} // namespace darco

#endif // DARCO_COMMON_LOGGING_HH

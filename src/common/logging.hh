/**
 * @file
 * Error/status reporting helpers in the gem5 tradition: panic() for
 * simulator bugs, fatal() for user/configuration errors, warn()/inform()
 * for status messages, and the command-line integer parser that turns
 * a bad value into a fatal().
 */

#ifndef DBSIM_COMMON_LOGGING_HH
#define DBSIM_COMMON_LOGGING_HH

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

namespace dbsim {

[[noreturn]] void panicImpl(const char *file, int line, const std::string &msg);
[[noreturn]] void fatalImpl(const char *file, int line, const std::string &msg);
void warnImpl(const std::string &msg);
void informImpl(const std::string &msg);

/**
 * The value of command-line flag `flag`: decimal digits only (no sign,
 * no whitespace), at most `max` (the destination's width). Anything
 * else, including a value past 2^64 - 1, is a one-line fatal().
 */
std::uint64_t parseUintArg(const char *flag, const std::string &text,
                           std::uint64_t max = UINT64_MAX);

namespace detail {

/** Minimal printf-style formatter returning std::string. */
std::string vformat(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

} // namespace detail

} // namespace dbsim

/** Abort: something happened that indicates a simulator bug. */
#define panic(...) \
    ::dbsim::panicImpl(__FILE__, __LINE__, ::dbsim::detail::vformat(__VA_ARGS__))

/** Exit with error: the simulation cannot continue due to user error. */
#define fatal(...) \
    ::dbsim::fatalImpl(__FILE__, __LINE__, ::dbsim::detail::vformat(__VA_ARGS__))

/** Non-fatal warning to the user. */
#define warn(...) \
    ::dbsim::warnImpl(::dbsim::detail::vformat(__VA_ARGS__))

/** Informational status message. */
#define inform(...) \
    ::dbsim::informImpl(::dbsim::detail::vformat(__VA_ARGS__))

/** panic() unless the condition holds. */
#define panic_if(cond, ...) \
    do { \
        if (cond) { \
            panic(__VA_ARGS__); \
        } \
    } while (0)

/** fatal() unless the condition holds. */
#define fatal_if(cond, ...) \
    do { \
        if (cond) { \
            fatal(__VA_ARGS__); \
        } \
    } while (0)

#endif // DBSIM_COMMON_LOGGING_HH

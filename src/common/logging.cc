#include "logging.hh"

#include <cctype>
#include <cerrno>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <vector>

namespace dbsim {

namespace detail {

std::string
vformat(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    va_list ap2;
    va_copy(ap2, ap);
    int n = std::vsnprintf(nullptr, 0, fmt, ap);
    va_end(ap);
    if (n < 0) {
        va_end(ap2);
        return std::string(fmt);
    }
    std::vector<char> buf(static_cast<size_t>(n) + 1);
    std::vsnprintf(buf.data(), buf.size(), fmt, ap2);
    va_end(ap2);
    return std::string(buf.data(), static_cast<size_t>(n));
}

} // namespace detail

void
panicImpl(const char *file, int line, const std::string &msg)
{
    std::fprintf(stderr, "panic: %s (%s:%d)\n", msg.c_str(), file, line);
    std::abort();
}

void
fatalImpl(const char *file, int line, const std::string &msg)
{
    std::fprintf(stderr, "fatal: %s (%s:%d)\n", msg.c_str(), file, line);
    // fatal() can fire on an experiment-runner worker thread; running
    // static destructors there (std::exit) races with threads still
    // touching those objects. Flush and leave without them.
    std::fflush(nullptr);
    std::_Exit(1);
}

std::uint64_t
parseUintArg(const char *flag, const std::string &text, std::uint64_t max)
{
    char *end = nullptr;
    errno = 0;
    std::uint64_t v = std::strtoull(text.c_str(), &end, 10);
    // strtoull alone accepts "-1" (negated to 2^64 - 1), leading
    // whitespace and '+', and saturates on overflow.
    fatal_if(!std::isdigit(static_cast<unsigned char>(text[0])) ||
                 *end != '\0',
             "%s expects an unsigned integer, got '%s'", flag,
             text.c_str());
    fatal_if(errno == ERANGE || v > max,
             "%s expects an unsigned integer <= %llu, got '%s'", flag,
             static_cast<unsigned long long>(max), text.c_str());
    return v;
}

void
warnImpl(const std::string &msg)
{
    std::fprintf(stderr, "warn: %s\n", msg.c_str());
}

void
informImpl(const std::string &msg)
{
    std::fprintf(stderr, "info: %s\n", msg.c_str());
}

} // namespace dbsim

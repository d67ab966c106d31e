#include "common/log.h"

#include <cstdarg>
#include <cstdio>
#include <stdexcept>
#include <string>

namespace rome
{

namespace
{

std::string
vformat(const char* fmt, std::va_list args)
{
    std::va_list args2;
    va_copy(args2, args);
    const int needed = std::vsnprintf(nullptr, 0, fmt, args);
    if (needed < 0) {
        va_end(args2);
        return fmt;
    }
    std::string out(static_cast<std::size_t>(needed), '\0');
    std::vsnprintf(out.data(), out.size() + 1, fmt, args2);
    va_end(args2);
    return out;
}

void
emit(const char* prefix, const std::string& msg)
{
    std::fprintf(stderr, "%s: %s\n", prefix, msg.c_str());
    std::fflush(stderr);
}

} // namespace

void
panic(const char* fmt, ...)
{
    std::va_list args;
    va_start(args, fmt);
    const std::string msg = vformat(fmt, args);
    va_end(args);
    emit("panic", msg);
    // Throwing instead of abort() lets tests assert on panics; uncaught it
    // still terminates the process with the message above already printed.
    throw std::logic_error("panic: " + msg);
}

void
fatal(const char* fmt, ...)
{
    std::va_list args;
    va_start(args, fmt);
    const std::string msg = vformat(fmt, args);
    va_end(args);
    emit("fatal", msg);
    throw std::runtime_error("fatal: " + msg);
}

} // namespace rome

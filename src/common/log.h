/**
 * @file
 * Error reporting in the gem5 style: panic and fatal.
 *
 * panic()  — an internal invariant was violated (simulator bug); throws
 *            std::logic_error after printing.
 * fatal()  — the user asked for something unsatisfiable (bad config); throws
 *            std::runtime_error after printing.
 *
 * Both take printf-style format strings (compile-time checked).
 */

#ifndef ROME_COMMON_LOG_H
#define ROME_COMMON_LOG_H

namespace rome
{

/** Abort with a formatted message: an internal invariant failed. */
[[noreturn]] void panic(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Exit with a formatted message: unsatisfiable user configuration. */
[[noreturn]] void fatal(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

} // namespace rome

#endif // ROME_COMMON_LOG_H

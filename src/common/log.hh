/**
 * @file
 * Minimal logging and error-termination helpers, in the spirit of
 * gem5's logging.hh: panic() for internal invariant violations and
 * fatal() for user-caused conditions.
 */

#ifndef LLCF_COMMON_LOG_HH
#define LLCF_COMMON_LOG_HH

#include <cstdarg>
#include <cstdio>
#include <cstdlib>

namespace llcf {

/** printf-style warning to standard error. */
void warn(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/**
 * Report an internal invariant violation and abort.  Use for simulator
 * bugs, never for bad user input.
 */
[[noreturn]] void panic(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/**
 * Report an unrecoverable user-facing error (bad configuration,
 * impossible parameters) and exit(1).
 */
[[noreturn]] void fatal(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

} // namespace llcf

#endif // LLCF_COMMON_LOG_HH

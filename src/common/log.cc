#include "log.hh"

namespace llcf {

namespace {

void
vprint(const char *tag, const char *fmt, std::va_list args)
{
    std::fprintf(stderr, "%s: ", tag);
    std::vfprintf(stderr, fmt, args);
    std::fputc('\n', stderr);
}

} // namespace

void
warn(const char *fmt, ...)
{
    std::va_list args;
    va_start(args, fmt);
    vprint("warn", fmt, args);
    va_end(args);
}

void
panic(const char *fmt, ...)
{
    std::va_list args;
    va_start(args, fmt);
    vprint("panic", fmt, args);
    va_end(args);
    std::abort();
}

void
fatal(const char *fmt, ...)
{
    std::va_list args;
    va_start(args, fmt);
    vprint("fatal", fmt, args);
    va_end(args);
    std::exit(1);
}

} // namespace llcf

#include "options.hh"

#include <cctype>
#include <cerrno>
#include <cstdlib>

#include "common/log.hh"

namespace llcf {

std::uint64_t
parseU64(const char *name, const char *text)
{
    // strtoull alone would wrap "-1" to 2^64 - 1, skip leading blanks,
    // stop silently at trailing junk ("8x" -> 8, "abc" -> 0) and
    // saturate on overflow; each of those is rejected here.
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(text, &end, 0);
    if (!std::isdigit(static_cast<unsigned char>(text[0])) ||
        *end != '\0' || errno == ERANGE)
        fatal("%s: '%s' is not a whole unsigned number", name, text);
    return v;
}

std::uint64_t
envU64(const char *name, std::uint64_t def)
{
    const char *v = std::getenv(name);
    if (!v || !*v)
        return def;
    return parseU64(name, v);
}

bool
envBool(const char *name, bool def)
{
    const char *v = std::getenv(name);
    if (!v || !*v)
        return def;
    std::string s(v);
    return !(s == "0" || s == "false" || s == "no" || s == "off");
}

std::string
envString(const char *name, const std::string &def)
{
    const char *v = std::getenv(name);
    if (!v || !*v)
        return def;
    return v;
}

bool
fullScale()
{
    return envBool("LLCF_FULL_SCALE", false);
}

bool
countersEnabled()
{
    return envBool("LLCF_COUNTERS", false);
}

std::uint64_t
baseSeed()
{
    return envU64("LLCF_SEED", 42);
}

std::size_t
trialCount(std::size_t def)
{
    return static_cast<std::size_t>(envU64("LLCF_TRIALS", def));
}

} // namespace llcf

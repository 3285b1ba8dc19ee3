/**
 * @file
 * Self-eviction watchdog window bookkeeping (see watchdog.hh).
 */

#include "defense/watchdog.hh"

#include "common/log.hh"

namespace llcf {

void
SelfEvictionWatchdog::arm(unsigned core, std::vector<Addr> lines,
                          Cycles now)
{
    if (lines.empty())
        fatal("watchdog: armed with an empty working set");
    armed_ = true;
    core_ = core;
    lines_ = std::move(lines);
    nextProbe_ = now + cfg_.probePeriod;
    windowProbes_ = 0;
    windowMisses_ = 0;
}

bool
SelfEvictionWatchdog::observe(bool anomalous_miss, Cycles now)
{
    ++probes_;
    ++windowProbes_;
    if (anomalous_miss) {
        ++misses_;
        ++windowMisses_;
    }
    if (windowProbes_ < cfg_.window)
        return false;
    const bool fire =
        windowMisses_ >= cfg_.threshold && now >= cooldownUntil_;
    windowProbes_ = 0;
    windowMisses_ = 0;
    if (fire) {
        ++fires_;
        cooldownUntil_ = now + cfg_.cooldown;
    }
    return fire;
}

} // namespace llcf

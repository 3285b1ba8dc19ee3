/**
 * @file
 * Victim-side self-eviction watchdog (defense mechanism (c)).
 *
 * The defended workload registers its own working set and the machine
 * sweeps it with non-charged background probes on a fixed period.  A
 * probe that has to reach beyond the private caches means some other
 * tenant displaced the line — exactly the footprint a conflict-based
 * attack leaves while it primes and probes.  When the anomalous-miss
 * count inside a decision window crosses the threshold the watchdog
 * fires, and (per WatchdogConfig::action) requests an index-hash
 * re-key at the machine's next safe point.
 *
 * The object is deliberately a plain value type: the Machine holds it
 * by value and its whole state rides along in Machine::Snapshot, so
 * campaign forks resume watchdog windows bit-exactly.
 */

#ifndef LLCF_DEFENSE_WATCHDOG_HH
#define LLCF_DEFENSE_WATCHDOG_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "defense/defense.hh"

namespace llcf {

/** Periodic working-set monitor; see file comment. */
class SelfEvictionWatchdog
{
  public:
    SelfEvictionWatchdog() = default;

    explicit SelfEvictionWatchdog(const WatchdogConfig &cfg)
        : cfg_(cfg)
    {}

    /**
     * Arm over @p lines (physical line addresses) probed as @p core,
     * with the first sweep one period after @p now.  Re-arming resets
     * the window but keeps lifetime totals.
     */
    void arm(unsigned core, std::vector<Addr> lines, Cycles now);

    bool armed() const { return armed_; }
    unsigned core() const { return core_; }
    const std::vector<Addr> &lines() const { return lines_; }

    /** Absolute time of the next sweep (kNeverCycles until armed). */
    Cycles nextProbeAt() const { return armed_ ? nextProbe_ : kNeverCycles; }

    /** Schedule the following sweep after one finishes. */
    void scheduleNextProbe() { nextProbe_ += cfg_.probePeriod; }

    /**
     * Record one probe outcome at time @p now.  Returns true when
     * this observation closes a window over the threshold outside the
     * cooldown — i.e. the watchdog fires.
     */
    bool observe(bool anomalous_miss, Cycles now);

    // Lifetime totals (defense metrics).
    std::uint64_t probes() const { return probes_; }
    std::uint64_t misses() const { return misses_; }
    std::uint64_t fires() const { return fires_; }

  private:
    WatchdogConfig cfg_;

    bool armed_ = false;
    unsigned core_ = 0;
    std::vector<Addr> lines_;
    Cycles nextProbe_ = kNeverCycles;

    unsigned windowProbes_ = 0;
    unsigned windowMisses_ = 0;
    Cycles cooldownUntil_ = 0;

    std::uint64_t probes_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t fires_ = 0;
};

} // namespace llcf

#endif // LLCF_DEFENSE_WATCHDOG_HH

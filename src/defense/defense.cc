/**
 * @file
 * Defense configuration validation, keyed index-hash derivation and
 * the scenario-axis mapping (see defense.hh).
 */

#include "defense/defense.hh"

#include <bit>

#include "common/log.hh"
#include "common/rng.hh"
#include "sim/configs.hh"

namespace llcf {

void
DefenseConfig::check(unsigned llc_ways, unsigned sf_ways,
                     unsigned cores) const
{
    if (partition.llc || partition.sf) {
        if (partition.protectedWays == 0)
            fatal("defense: partition reserves zero ways");
        if (partition.llc && partition.protectedWays >= llc_ways)
            fatal("defense: LLC partition reserves all %u ways",
                  llc_ways);
        if (partition.sf && partition.protectedWays >= sf_ways)
            fatal("defense: SF partition reserves all %u ways", sf_ways);
        if (partition.protectedCore >= cores)
            fatal("defense: protected core %u out of range (%u cores)",
                  partition.protectedCore, cores);
    }
    if (watchdog.enabled) {
        if (watchdog.window == 0 || watchdog.probePeriod == 0)
            fatal("defense: watchdog window/period must be non-zero");
        if (watchdog.threshold == 0 ||
            watchdog.threshold > watchdog.window) {
            fatal("defense: watchdog threshold %u outside (0, %u]",
                  watchdog.threshold, watchdog.window);
        }
        if (watchdog.action == WatchdogAction::Rekey &&
            !randomize.enabled) {
            fatal("defense: watchdog rekey action requires index "
                  "randomization");
        }
    }
}

std::vector<Addr>
makeIndexMasks(unsigned idx_bits, std::uint64_t key)
{
    // 48-bit PA model: keyed bits live strictly above the page offset.
    constexpr Addr kFrameBits =
        ((1ULL << 48) - 1) & ~((1ULL << kPageBits) - 1);
    Rng rng(mix64(key ^ 0xdef0e11eULL));
    std::vector<Addr> masks(idx_bits);
    for (unsigned b = 0; b < idx_bits; ++b) {
        Addr mask = 1ULL << (kLineBits + b);
        if (kLineBits + b >= kPageBits)
            mask |= rng.next() & kFrameBits;
        masks[b] = mask;
    }
    return masks;
}

unsigned
keyedIndexOf(const std::vector<Addr> &masks, Addr line)
{
    unsigned idx = 0;
    for (std::size_t b = 0; b < masks.size(); ++b)
        idx |= (std::popcount(line & masks[b]) & 1u) << b;
    return idx;
}

void
DefenseSpec::applyTo(MachineConfig &cfg) const
{
    switch (kind) {
      case DefenseKind::None:
        return;
      case DefenseKind::KeyedRekey:
        cfg.defense.randomize.enabled = true;
        cfg.defense.randomize.rekeyInterval =
            rekeyIntervalMs > 0.0 ? msToCycles(rekeyIntervalMs) : 0;
        return;
      case DefenseKind::WayPart:
        cfg.defense.partition.llc = true;
        cfg.defense.partition.protectedWays = protectedWays;
        return;
      case DefenseKind::SfPart:
        cfg.defense.partition.sf = true;
        cfg.defense.partition.protectedWays = protectedWays;
        return;
      case DefenseKind::Watchdog:
        // The watchdog's response is a key rotation, so it implies
        // the keyed hash (with no timer of its own).
        cfg.defense.randomize.enabled = true;
        cfg.defense.watchdog.enabled = true;
        cfg.defense.watchdog.probePeriod =
            usToCycles(watchdogProbePeriodUs);
        cfg.defense.watchdog.window = watchdogWindow;
        cfg.defense.watchdog.threshold = watchdogThreshold;
        return;
    }
    panic("unknown defense kind %d", static_cast<int>(kind));
}

} // namespace llcf

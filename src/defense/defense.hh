/**
 * @file
 * Host-side defenses against the LLC/SF eviction attacks the rest of
 * the simulator implements (ROADMAP item 2: the defense scenario
 * axis).  Three mechanism families are modelled:
 *
 *  - Keyed index randomization (CEASER/ScatterCache style): the
 *    shared-structure set index becomes a keyed XOR-matrix hash (one
 *    parity mask per index bit), with an optional re-key interval
 *    that remaps every live LLC/SF line mid-run.  The keyed
 *    permutation acts on the page-uncontrolled index bits — the part
 *    of the mapping an attacker cannot learn from page offsets — so
 *    candidate-pool sizing is unchanged and a *static* key leaves the
 *    attack intact (the known CEASER-static weakness), while
 *    re-keying scrambles cross-page congruence and invalidates built
 *    eviction sets.
 *  - Way partitioning (Intel CAT style): per-domain allowed-way masks
 *    on the LLC and/or SF, enforced inside replacement victim
 *    selection so attacker fills can never evict the protected
 *    domain's ways.
 *  - A victim-side self-eviction watchdog: periodic probes of the
 *    victim's own working set count anomalous misses and can trigger
 *    a key rotation when the miss rate in a window crosses a
 *    threshold (see watchdog.hh).
 *
 * DefenseConfig is the machine-level knob block (a MachineConfig
 * member); DefenseSpec is the scenario-axis value that maps a named
 * defense cell onto a DefenseConfig.
 */

#ifndef LLCF_DEFENSE_DEFENSE_HH
#define LLCF_DEFENSE_DEFENSE_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace llcf {

/** Sentinel for "no scheduled defense event". */
inline constexpr Cycles kNeverCycles = ~static_cast<Cycles>(0);

/** What a fired watchdog does beyond counting. */
enum class WatchdogAction : std::uint8_t
{
    ReportOnly, //!< count the firing, take no action
    Rekey,      //!< request an index-hash re-key at the next safe point
};

/** Keyed index randomization + re-keying knobs. */
struct IndexRandomizationConfig
{
    bool enabled = false;

    /**
     * Cycles between automatic re-keys; 0 keeps the initial key for
     * the whole run (static-key CEASER).  Watchdog-triggered re-keys
     * are independent of this interval.
     */
    Cycles rekeyInterval = 0;

    /**
     * Stall charged per live line moved during a re-key — the cost of
     * the read-decrypt-rewrite pass relocating resident lines.
     */
    Cycles rekeyPerLineCost = 24;

    /** Mixed with the machine seed to derive the key stream. */
    std::uint64_t keySalt = 0x4cea5eULL;
};

/** CAT-style per-domain way masks on the shared structures. */
struct WayPartitionConfig
{
    bool llc = false; //!< partition the LLC ways
    bool sf = false;  //!< partition the SF ways

    /** Low ways reserved for the protected core's lines. */
    unsigned protectedWays = 2;

    /** Core whose lines fill the protected ways (the victim's). */
    unsigned protectedCore = 2;
};

/** Self-eviction watchdog knobs (mechanism lives in watchdog.hh). */
struct WatchdogConfig
{
    bool enabled = false;

    /** Cycles between working-set probe sweeps. */
    Cycles probePeriod = 50'000;

    /** Probes per decision window. */
    unsigned window = 48;

    /** Anomalous misses within a window that fire the watchdog. */
    unsigned threshold = 12;

    /** Minimum cycles between firings. */
    Cycles cooldown = 2'000'000;

    WatchdogAction action = WatchdogAction::Rekey;
};

/** Machine-level defense configuration (MachineConfig::defense). */
struct DefenseConfig
{
    IndexRandomizationConfig randomize;
    WayPartitionConfig partition;
    WatchdogConfig watchdog;

    /** True iff any mechanism is switched on. */
    bool
    any() const
    {
        return randomize.enabled || partition.llc || partition.sf ||
               watchdog.enabled;
    }

    /**
     * Validate against the machine shape; fatal on nonsense (e.g. a
     * partition reserving every way).  @p llc_ways / @p sf_ways are
     * the shared-structure associativities, @p cores the core count.
     */
    void check(unsigned llc_ways, unsigned sf_ways, unsigned cores) const;
};

/** Defense event totals a Machine reports (scenario metrics). */
struct DefenseStats
{
    std::uint64_t rekeys = 0;          //!< index-hash re-keys executed
    std::uint64_t rekeyLinesMoved = 0; //!< live lines remapped by them
    std::uint64_t wdProbes = 0;        //!< watchdog working-set probes
    std::uint64_t wdMisses = 0;        //!< anomalous misses among them
    std::uint64_t wdFires = 0;         //!< watchdog firings
};

/**
 * Derive the keyed set-index hash for one key epoch: one XOR mask per
 * set-index bit over @p idx_bits bits.  Every mask keeps its natural
 * index bit; masks for page-uncontrolled index bits additionally mix
 * keyed frame bits (>= kPageBits), so re-keying permutes how frames
 * land on the uncontrolled index space without disturbing the
 * page-offset structure attack code legitimately controls.
 */
std::vector<Addr> makeIndexMasks(unsigned idx_bits, std::uint64_t key);

/** Apply an XOR-matrix index hash to a line address. */
unsigned keyedIndexOf(const std::vector<Addr> &masks, Addr line);

// --------------------------------------------------- scenario axis

/** Defense mechanism deployed by a scenario cell. */
enum class DefenseKind : std::uint8_t
{
    None,       //!< undefended host (the existing cells)
    KeyedRekey, //!< keyed index hash, optionally re-keyed on a timer
    WayPart,    //!< CAT-style LLC way partition
    SfPart,     //!< SF way partition
    Watchdog,   //!< self-eviction watchdog triggering re-keys
};

/**
 * Scenario-axis value: which defense a cell deploys and its knobs.
 * applyTo() maps it onto the MachineConfig the cell builds, so every
 * stage (build/scan/e2e/campaign/calibrate) composes with every
 * defense without stage-specific plumbing.
 */
struct DefenseSpec
{
    DefenseKind kind = DefenseKind::None;

    /**
     * KeyedRekey: milliseconds between re-keys; 0 = static key.
     * (Virtual milliseconds at kCpuGhz, like every other knob.)
     */
    double rekeyIntervalMs = 0.0;

    /** WayPart/SfPart: ways reserved for the victim core. */
    unsigned protectedWays = 2;

    /** Watchdog: probe sweep period in virtual microseconds. */
    double watchdogProbePeriodUs = 25.0;

    /** Watchdog: probes per decision window. */
    unsigned watchdogWindow = 48;

    /** Watchdog: misses per window that trigger a re-key. */
    unsigned watchdogThreshold = 12;

    /**
     * Record defense metrics even when kind == None — set on the
     * undefended baseline cells of the defense suite so overhead
     * comparisons have a same-shaped reference row.
     */
    bool measure = false;

    /** True iff a mechanism is actually deployed. */
    bool active() const { return kind != DefenseKind::None; }

    /** True iff the trial should record defense metrics. */
    bool recordsMetrics() const { return active() || measure; }

    /** Fill @p cfg's defense block from this spec. */
    void applyTo(struct MachineConfig &cfg) const;
};

} // namespace llcf

#endif // LLCF_DEFENSE_DEFENSE_HH

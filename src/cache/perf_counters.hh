/**
 * @file
 * Allocation-free performance counters for the simulated memory
 * hierarchy.
 *
 * Counters exist at two levels and are plain structs of integers, so
 * recording one event is a single increment on the hot path and
 * snapshotting them is a struct copy:
 *
 *  - ArrayCounters: per CacheArray (hits / fills / evictions /
 *    invalidations / tag scans), maintained by the array itself.
 *  - PerfCounters: the machine-wide roll-up — per-structure
 *    ArrayCounters (L1/L2 summed over cores, LLC, SF), access and
 *    service-level totals, coherence downgrades and simulated cycles.
 *
 * All counts are *simulated* events, a deterministic function of the
 * access trace and seed: two runs of the same experiment produce the
 * same counters at any host parallelism, which is what lets CI gate on
 * them (bench_hotpath --smoke) instead of on noisy wall-clock numbers.
 */

#ifndef LLCF_CACHE_PERF_COUNTERS_HH
#define LLCF_CACHE_PERF_COUNTERS_HH

#include <cstdint>

namespace llcf {

/** Event counters of one cache structure (one CacheArray). */
struct ArrayCounters
{
    std::uint64_t hits = 0;          //!< replacement promotions (onHit)
    std::uint64_t fills = 0;         //!< lines inserted
    std::uint64_t evictions = 0;     //!< valid lines displaced by fills
    std::uint64_t invalidations = 0; //!< lines dropped by invalidate ops
    std::uint64_t tagScans = 0;      //!< tag-row lookups (findWay calls)

    ArrayCounters &
    operator+=(const ArrayCounters &o)
    {
        hits += o.hits;
        fills += o.fills;
        evictions += o.evictions;
        invalidations += o.invalidations;
        tagScans += o.tagScans;
        return *this;
    }

    /** Events counted since @p before, a snapshot of these counters. */
    ArrayCounters
    since(const ArrayCounters &before) const
    {
        return {hits - before.hits, fills - before.fills,
                evictions - before.evictions,
                invalidations - before.invalidations,
                tagScans - before.tagScans};
    }

    /** These counts repeated @p n times. */
    ArrayCounters
    times(std::uint64_t n) const
    {
        return {hits * n, fills * n, evictions * n, invalidations * n,
                tagScans * n};
    }
};

/** Number of HitLevel service classes (L1/L2/SF/LLC/DRAM). */
inline constexpr unsigned kHitLevelCount = 5;

/**
 * Machine-wide counter roll-up.  Snapshot via Machine::perfCounters();
 * deltas between snapshots attribute cost to a phase of an experiment.
 */
struct PerfCounters
{
    ArrayCounters l1;  //!< all cores' L1s combined
    ArrayCounters l2;  //!< all cores' L2s combined
    ArrayCounters llc;
    ArrayCounters sf;

    std::uint64_t accesses = 0; //!< demand loads + stores
    std::uint64_t hits = 0;     //!< accesses served above DRAM
    std::uint64_t misses = 0;   //!< accesses served from DRAM

    /** Accesses served per HitLevel (indexed by HitLevel). */
    std::uint64_t levelAccesses[kHitLevelCount] = {};

    /**
     * Pre-jitter dependent-access latency summed per HitLevel — the
     * "simulated cycles per structure" attribution (contention
     * multipliers included, jitter/interrupt cost excluded).
     */
    double levelCycles[kHitLevelCount] = {};

    /** E/M lines downgraded to Shared by another core's load. */
    std::uint64_t cohDowngrades = 0;

    /** Virtual clock consumed since machine construction. */
    std::uint64_t simCycles = 0;
};

} // namespace llcf

#endif // LLCF_CACHE_PERF_COUNTERS_HH

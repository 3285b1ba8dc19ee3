/**
 * @file
 * The simulated multi-core server: private L1/L2 per core, a sliced
 * non-inclusive LLC plus snoop filter (SF) shared by all cores, a
 * virtual clock, a contention/latency model, and lazily-replayed
 * background activity (tenant noise and victim access streams).
 *
 * Coherence model (paper Section 2.3, simplified but behaviour-
 * preserving):
 *  - A line in Exclusive/Modified state lives in exactly one core's
 *    L1/L2 and is tracked by an SF entry.
 *  - A line in Shared state is resident in the LLC (and possibly in
 *    private caches); it has no SF entry.
 *  - Evicting an SF entry back-invalidates the owner's private copies;
 *    the line is inserted into the LLC with the reuse-predictor
 *    probability, otherwise written back to memory.
 *  - Evicting an LLC line back-invalidates all private Shared copies.
 *  - A load that hits a private line of another core downgrades it to
 *    Shared: the line moves into the LLC and its SF entry is freed.
 *  - A store (RFO) obtains Modified ownership: LLC and remote copies
 *    are invalidated and an SF entry is allocated.
 *  - L1 is kept inclusive in L2; an L2 eviction of a private line
 *    frees its SF entry (stale-entry corner cases are simplified away;
 *    see DESIGN.md).
 *
 * Background activity is applied lazily per shared set: each LLC/SF
 * set keeps a last-sync timestamp, and the first access after time
 * advances replays the Poisson tenant noise and any registered victim
 * stream events that fell into the gap.  This makes a 57,344-set noisy
 * machine cheap while preserving per-set event ordering.
 *
 * On a silent machine (no noise, jitter, interrupts or defense) a
 * watched overlapped batch remembers its clean runs — private-cache
 * hits only, nothing replayed, no draw — as transitions between
 * images of its private rows.  A run from recorded rows is replayed
 * instead of simulated, and a cycle of them is fast-forwarded in O(1)
 * by skipRepeats (implemented in repeats.cc; DESIGN.md §14).
 */

#ifndef LLCF_SIM_MACHINE_HH
#define LLCF_SIM_MACHINE_HH

#include <cstring>
#include <memory>
#include <span>
#include <vector>

#include "cache/cache_array.hh"
#include "cache/slice_hash.hh"
#include "common/rng.hh"
#include "common/types.hh"
#include "defense/watchdog.hh"
#include "mem/address_space.hh"
#include "noise/profile.hh"
#include "sim/configs.hh"

namespace llcf {

/** Operation applied to every element of a batched access. */
enum class BatchOp : std::uint8_t {
    Load,      //!< plain demand load
    Store,     //!< store with RFO semantics
    TimedLoad, //!< fenced rdtscp-timed load
    ChaseLoad, //!< dependent pointer-chase load
    ProbeLoad, //!< non-promoting timed probe
    Flush,     //!< clflush from every cache level
};

/**
 * Shape of one batched access sweep.  A sequential batch is exactly
 * equivalent to issuing the scalar operation per element (same RNG
 * draws, same clock advance — the equivalence the harness tests
 * assert); an overlapped batch has MLP burst semantics and is only
 * meaningful for Load/Store/Flush.
 */
struct BatchSpec
{
    BatchOp op = BatchOp::Load;
    bool overlapped = false; //!< MLP burst instead of serialised ops
    int helper = -1;         //!< helper core repeating each load, or -1
};

/** Aggregate event counters, for tests and diagnostics. */
struct MachineStats
{
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    std::uint64_t l1Hits = 0;
    std::uint64_t l2Hits = 0;
    std::uint64_t sfTransfers = 0;
    std::uint64_t llcHits = 0;
    std::uint64_t dramFills = 0;
    std::uint64_t noiseAccesses = 0;
    std::uint64_t streamAccesses = 0;
    std::uint64_t interrupts = 0;
};

/**
 * One registered background access stream (absolute-time events
 * replayed lazily per shared set).  Namespace-scope so a Machine
 * snapshot can carry the pending streams by value.
 */
struct MachineStream
{
    std::uint64_t id = 0;
    unsigned core = 0;
    Addr line = 0;
    bool isStore = false;
    bool pinned = false; //!< survives Machine::clearStreams()
    std::vector<Cycles> times;
    std::size_t cursor = 0;
};

/**
 * A simulated host.  All memory operations take physical line
 * addresses; callers translate via AddressSpace (attack code treats
 * the translated values as opaque pointers and never inspects PA
 * bits — see evset/ for the enforced discipline).
 */
class Machine
{
  public:
    /** Identifies a registered background access stream. */
    using StreamId = std::uint64_t;

    Machine(const MachineConfig &cfg, const NoiseProfile &noise,
            std::uint64_t seed);

    // ------------------------------------------------------ plumbing

    /** The configuration this machine was built from. */
    const MachineConfig &config() const { return cfg_; }

    /** The environment noise profile. */
    const NoiseProfile &noiseProfile() const { return noise_; }

    /** Event counters. */
    const MachineStats &stats() const { return stats_; }

    /**
     * Snapshot of the allocation-free hierarchy counters: per-structure
     * hits/fills/evictions (L1/L2 summed over cores), access and
     * service-level totals, coherence downgrades and simulated cycles.
     * Purely simulated events — deterministic for a fixed seed.
     */
    PerfCounters perfCounters() const;

    /** Backing physical frame allocator. */
    PageAllocator &allocator() { return allocator_; }

    /** Create a new process address space. */
    std::unique_ptr<AddressSpace> newAddressSpace();

    // --------------------------------------------------------- clock

    /** Current virtual time in cycles. */
    Cycles now() const { return clock_; }

    /** Spin the clock forward without memory activity. */
    void idle(Cycles dt) { clock_ += dt; }

    // ------------------------------------------------ memory ops
    // All operations advance the clock by the returned duration.

    /** One load; returns its latency. */
    Cycles load(unsigned core, Addr pa);

    /** One store (RFO semantics); returns its latency. */
    Cycles store(unsigned core, Addr pa);

    /**
     * One timed load (fenced rdtscp pair).  Returns the measured
     * latency including measurement overhead — the value an attacker
     * compares against kPrivateMissThreshold / kLlcMissThreshold.
     */
    Cycles timedLoad(unsigned core, Addr pa);

    /**
     * Dependent pointer-chase load (serialised, no MLP), as used by
     * sequential TestEviction implementations.  The chase overhead
     * includes the TLB-walk cost of page-granular random chains.
     */
    Cycles chaseLoad(unsigned core, Addr pa);

    /**
     * Timed probe that does not disturb LLC/SF replacement state on a
     * hit — the Prime+Scope "scope" primitive, whose whole point is
     * overcoming the observer effect of ordinary probes.
     */
    Cycles probeLoad(unsigned core, Addr pa);

    /**
     * Load on @p core while a helper core concurrently repeats the
     * access, leaving the line Shared and LLC-resident (the helper-
     * thread technique of Section 4.2).  Only the main core's time is
     * charged; the helper runs on its own core in parallel.
     */
    Cycles loadShared(unsigned core, unsigned helper, Addr pa);

    /**
     * Batched accesses: apply @p spec to every element of @p pas and
     * return the total duration.  This is the preferred hot-path entry
     * point — the TestEviction traversals, probe sweeps and monitors
     * all run on it — and the scalar operations above are equivalent
     * to a one-element batch.  Overlapped batches are chunked
     * internally so background activity interleaves realistically.
     */
    Cycles accessBatch(unsigned core, std::span<const Addr> pas,
                       const BatchSpec &spec);

    /** Flush one line from every cache level. */
    Cycles clflush(unsigned core, Addr pa);

    /**
     * Fast-forward exact repeats of the overlapped batch that just
     * ran: advance the machine as if accessBatch(@p core, @p pas,
     * @p spec) ran @p n more times, in O(1), and return @p n.  The
     * Parallel monitor calls this after every undetected probe and
     * between its prime passes (DESIGN.md §14).
     *
     * It engages only on a silent machine (zero noise rate, jitter
     * and interrupt rate, no defense) for a single-chunk overlapped
     * Load/Store batch without a helper core, once this call has
     * started watching the batch (one watched batch per op: Load and
     * Store).  A watched batch records each clean run — served only
     * from L1/L2, no stream event replayed, no @c rng_ draw — as a
     * transition from the core's L1/L2 rows of the batch's sets to
     * the rows it left; accessBatch replays a run from recorded rows
     * instead of simulating it.  The skip chains transitions from the
     * current rows back to the same rows (a cycle of p <=
     * kRepeatMaxPeriod runs) and takes whole cycles only, so the rows
     * end as they are now.  The caller may charge every skipped run
     * the duration of the run that just ended: the skip engages only
     * at the clock where the batch's last run ended and over a cycle
     * whose runs all had that duration.  The repeats skipped all
     * start strictly before @p until and before the next stream event
     * due in any shared set the batch syncs, and number at most
     * @p limit.
     *
     * A call that cannot skip returns 0; if @p pas is not the batch
     * being watched it starts watching it (and drops the transitions
     * of the batch watched before).
     */
    std::uint64_t skipRepeats(unsigned core, std::span<const Addr> pas,
                              const BatchSpec &spec, Cycles until,
                              std::uint64_t limit = ~std::uint64_t{0});

    // ------------------------------------------- background streams

    /**
     * Register a timed access stream (e.g. the victim's secret-
     * dependent code fetches).  @p times are absolute cycle stamps,
     * sorted ascending; each is applied as one access by @p core to
     * @p pa when the containing set is next synchronised.  A
     * @p pinned stream (co-tenant offered load) survives
     * clearStreams().
     */
    StreamId addStream(unsigned core, Addr pa, std::vector<Cycles> times,
                       bool is_store = false, bool pinned = false);

    /** Remove a stream; pending events are dropped. */
    void removeStream(StreamId id);

    /** Remove all non-pinned streams. */
    void clearStreams();

    // ------------------------------------------------------ defenses
    // Configured via MachineConfig::defense; everything below is
    // inert (and free on the hot path) when no defense is enabled.

    /** True iff the keyed set-index hash is active. */
    bool indexRandomized() const { return !indexMasks_.empty(); }

    /**
     * Re-key the index hash immediately: draw the next key, remap
     * every live LLC/SF line to its set under the new key (evicting
     * through the ordinary paths on conflicts) and charge the
     * per-line remap stall.  Interval- and watchdog-triggered re-keys
     * run through this at operation boundaries — never inside an
     * access, where resolved set ids are live.
     * @pre DefenseConfig::randomize.enabled
     */
    void rekeyNow();

    /**
     * Arm the self-eviction watchdog over the defended workload's
     * working set (physical line addresses, probed as @p core).
     * @pre DefenseConfig::watchdog.enabled
     */
    void armWatchdog(unsigned core, std::vector<Addr> lines);

    /** Defense event totals (re-keys, watchdog probes/fires). */
    DefenseStats defenseStats() const;

    // --------------------------------- introspection (ground truth)
    // For tests and validation only; attack code must not use these.

    /** LLC/SF slice of a physical address. */
    unsigned sliceOf(Addr pa) const;

    /** Flat shared (LLC/SF) set id of a physical address. */
    unsigned sharedSetOf(Addr pa) const;

    /** L2 set index of a physical address. */
    unsigned l2SetOf(Addr pa) const;

    /** True iff the line is in @p core's L1. */
    bool inL1(unsigned core, Addr pa) const;

    /** True iff the line is in @p core's L2. */
    bool inL2(unsigned core, Addr pa) const;

    /** True iff the line is LLC-resident. */
    bool inLlc(Addr pa) const;

    /** True iff the line has an SF entry. */
    bool inSf(Addr pa) const;

    /** Total shared sets (slices x sets per slice). */
    unsigned totalSharedSets() const { return llc_.geometry().totalSets(); }

    // ------------------------------------------------ fork snapshots

    /**
     * Value snapshot of the whole simulated machine — cache planes,
     * clock, RNGs, frame allocator, background-replay state and
     * counters.  Campaigns warm one world, snapshot it, and fork every
     * victim trial from the copy instead of rebuilding (the machine
     * itself is non-copyable because the SoA planes alias, so state is
     * captured by value and restored in place).  Config and noise
     * profile are not captured: a snapshot may only be restored onto
     * the machine that took it (or an identically-configured clone).
     */
    struct Snapshot
    {
        Rng rng;
        Rng jitterRng;
        // 1-frame placeholder until snapshot() copies the real pool
        // (PageAllocator rejects an empty pool by design).  The copy
        // holds only the frames handed out so far, not the pool
        // (DESIGN.md §15).
        PageAllocator allocator{1, Rng{}};
        unsigned nextAsid = 0;
        std::vector<CacheArrayState> l1;
        std::vector<CacheArrayState> l2;
        CacheArrayState llc;
        CacheArrayState sf;
        unsigned privateHitStreak = 0;
        Cycles clock = 0;
        std::vector<Cycles> lastSync;
        std::vector<std::uint8_t> hasStream;
        std::vector<std::vector<std::size_t>> setStreams;
        std::vector<MachineStream> streams;
        StreamId nextStreamId = 1;
        Addr noiseCounter = 0;
        bool quiescent = false;
        MachineStats stats;
        PerfCounters perf;
        // Defense state (inert defaults when no defense is on).
        std::vector<Addr> indexMasks;
        Rng rekeyRng;
        Cycles nextRekey = kNeverCycles;
        bool rekeyPending = false;
        std::uint64_t rekeys = 0;
        std::uint64_t rekeyLinesMoved = 0;
        SelfEvictionWatchdog watchdog;
    };

    /** Capture the current simulated state. */
    Snapshot snapshot() const;

    /** Restore a state captured on an identically-configured machine. */
    void restore(const Snapshot &s);

  private:
    /** Owner id used for synthetic other-tenant lines. */
    static constexpr std::uint8_t kNoiseOwner = 0xff;

    /** Tag space for synthetic other-tenant lines. */
    static constexpr Addr kNoiseBase = 1ULL << 62;

    using Stream = MachineStream;

    struct AccessOutcome
    {
        double latency = 0.0; //!< raw dependent-access latency
        HitLevel level = HitLevel::L1;
    };

    // Core access path; mutates all cache state, no clock change.
    // With probe=true, LLC/SF hits do not update replacement state.
    AccessOutcome accessLine(unsigned core, Addr line, bool is_store,
                             bool probe = false);

    /**
     * Host-cache prefetch of the state the next batch element will
     * touch (shared-structure records, sync stamp, private sets).
     * Purely a host-side hint issued by the batch loops; simulated
     * behaviour is untouched.
     */
    void
    prefetchLine(unsigned core, Addr pa)
    {
        // Small machines' tables live in the host's caches already;
        // the hash + hint work would be pure overhead there.  The
        // same holds while a sweep is running entirely out of the
        // private caches — the streak heuristic backs off then and
        // re-arms on the first shared-structure access.
        if (!prefetchRecords_ || privateHitStreak_ > 64)
            return;
        const Addr line = lineAlign(pa);
        const unsigned s = sharedSetOf(line);
        // Both planes: a miss only reads the tag rows, but fills,
        // hits and invalidates follow into the metadata rows, and a
        // sweep that stalls there gives back the tag-plane win.
        sf_.prefetchSet(s);
        llc_.prefetchSet(s);
        sf_.prefetchSetMeta(s);
        llc_.prefetchSetMeta(s);
        __builtin_prefetch(&lastSync_[s]);
        const unsigned l2s = cfg_.l2.setIndex(line);
        l2_[core].prefetchSet(l2s);
        l2_[core].prefetchSetMeta(l2s);
    }

    /** Count one serviced access and build its outcome. */
    AccessOutcome
    serve(HitLevel level)
    {
        const double lat = effLatency(level);
        const unsigned idx = static_cast<unsigned>(level);
        ++perf_.levelAccesses[idx];
        perf_.levelCycles[idx] += lat;
        if (level == HitLevel::L1 || level == HitLevel::L2)
            ++privateHitStreak_;
        else
            privateHitStreak_ = 0;
        return {lat, level};
    }

    /** Chunk size for long MLP bursts so background events interleave. */
    static constexpr std::size_t kBurstChunk = 128;

    /** Shared implementation of the overlapped-burst operations. */
    Cycles overlappedAccess(unsigned core, std::span<const Addr> pas,
                            bool is_store, int helper);

    /** Largest distinct L1, L2 or shared set count a watch covers. */
    static constexpr unsigned kRepeatMaxSets = 4;

    /**
     * Longest cycle of transitions skipRepeats chains.  A batch longer
     * than the L1's ways rotates its lines through the L1's ways, so
     * its rows come back only every few runs (2 on Skylake-SP and the
     * tiny config, 3 on Ice Lake-SP); the private hits repeat every
     * run.
     */
    static constexpr unsigned kRepeatMaxPeriod = 4;

    /** Clean transitions one watch remembers (replaced oldest first). */
    static constexpr unsigned kRepeatTable = 8;

    /**
     * What one clean run of a watched batch did: served from L1/L2
     * only, no stream event replayed, no rng_ draw.  Such a run is a
     * pure function of the core's L1/L2 rows of the batch's sets, so
     * it is keyed by the rows it began from (DESIGN.md §14).
     */
    struct RepeatTransition
    {
        Cycles duration = 0;
        std::uint64_t loads = 0, stores = 0, l1Hits = 0, l2Hits = 0;
        ArrayCounters l1, l2; //!< the core's L1/L2 counter deltas
    };

    /**
     * One watched overlapped batch (see skipRepeats): its identity,
     * the sets it touches, and a table of clean transitions, each a
     * start image and an end image of the watched L1 rows then L2
     * rows.  The buffers grow only when a watch is armed; recording,
     * replaying and skipping allocate nothing.
     */
    struct RepeatWatch
    {
        bool armed = false; //!< runs of lines[0, count) are watched
        unsigned core = 0;
        std::size_t count = 0;
        std::vector<Addr> lines; //!< kBurstChunk entries
        unsigned l1Sets[kRepeatMaxSets] = {};
        unsigned l2Sets[kRepeatMaxSets] = {};
        unsigned sharedSets[kRepeatMaxSets] = {};
        unsigned nL1 = 0, nL2 = 0, nShared = 0;
        std::size_t imageWords = 0; //!< words in one image of the rows
        /** Image 0 is scratch for the current rows, then per table
         *  entry e its start (1 + 2e) and end (2 + 2e) images. */
        std::vector<std::uint64_t> rows;
        RepeatTransition table[kRepeatTable];
        unsigned size = 0; //!< valid table entries
        unsigned next = 0; //!< entry the next clean run records into
        Cycles lastEnd = kNeverCycles; //!< clock the last run ended at
        Cycles lastDuration = 0;       //!< and that run's duration

        std::uint64_t *image(unsigned i)
        {
            return rows.data() + i * imageWords;
        }

        const std::uint64_t *image(unsigned i) const
        {
            return rows.data() + i * imageWords;
        }

        /** True iff images @p a and @p b are equal. */
        bool
        same(const std::uint64_t *a, const std::uint64_t *b) const
        {
            return std::memcmp(a, b, imageWords * sizeof(*a)) == 0;
        }

        /** The table entry that starts from @p img, or -1. */
        int
        find(const std::uint64_t *img) const
        {
            for (unsigned e = 0; e < size; ++e) {
                if (same(image(1 + 2 * e), img))
                    return static_cast<int>(e);
            }
            return -1;
        }
    };

    /** Watch @p pas with @p w (left unarmed when too wide to watch). */
    void watchRepeats(RepeatWatch &w, unsigned core,
                      std::span<const Addr> pas);

    /** The watch recording runs of this batch, or null. */
    RepeatWatch *watchOf(unsigned core, std::span<const Addr> pas,
                         BatchOp op);

    /** Save @p w's watched L1/L2 rows into @p out. */
    void saveWatchedRows(const RepeatWatch &w, std::uint64_t *out) const;

    /** Overwrite @p w's watched L1/L2 rows with the image @p img. */
    void loadWatchedRows(const RepeatWatch &w, const std::uint64_t *img);

    /** First stream event pending in a shared set @p w syncs. */
    Cycles nextWatchedEvent(const RepeatWatch &w) const;

    /**
     * Largest k <= @p k for which adding @p t's private hits k times
     * in one step lands perf_.levelCycles on the bits k separate runs
     * give (0 if none does).
     */
    std::uint64_t exactRepeats(const RepeatTransition &t,
                               std::uint64_t k) const;

    /**
     * Advance everything but the rows and the clock as @p runs runs of
     * @p w's batch would, whose transitions are @p k times those summed
     * in @p t and the last of which starts at @p last_start: counters,
     * the private-hit streak and the synced sets' lastSync_.
     */
    void replayRuns(const RepeatWatch &w, const RepeatTransition &t,
                    std::uint64_t k, std::uint64_t runs,
                    Cycles last_start);

    /** overlappedAccess of @p w's batch, replayed from its table when
     *  it holds the current rows, else simulated and recorded. */
    Cycles watchedAccess(RepeatWatch &w, std::span<const Addr> pas,
                         bool is_store);

    /** Shared implementation of the overlapped flush sweep. */
    Cycles overlappedFlush(unsigned core, std::span<const Addr> pas);

    /** Drop @p line from every structure (no clock change). */
    void
    flushLineNow(Addr line)
    {
        flushLineNowAt(line, sharedSetOf(line));
    }

    /**
     * flushLineNow with the shared set precomputed by the caller (the
     * tiled flush sweep maps a whole tile ahead of simulating it).
     * @pre line is line-aligned and s == sharedSetOf(line).
     */
    void flushLineNowAt(Addr line, unsigned s);

    /** Apply background noise + streams to shared set @p s up to now. */
    void syncSharedSet(unsigned s);

    /** Recompute the quiescent flag (see the member below). */
    void
    updateQuiescent()
    {
        quiescent_ = noisePerCycle_ == 0.0 && streams_.empty();
    }

    /** One synthetic other-tenant access to shared set @p s. */
    void noiseTouch(unsigned s);

    /** Insert a line into the LLC at set @p s, handling evictions. */
    void llcInsert(unsigned s, const CacheLine &line);

    /** Allocate an SF entry at set @p s, handling evictions. */
    void sfAllocate(unsigned s, const CacheLine &entry);

    /** Remove a line from @p core's L1/L2 (no SF/LLC bookkeeping). */
    void dropPrivate(unsigned core, Addr line);

    /** Remove Shared copies of @p line from every core's L1/L2. */
    void dropAllPrivate(Addr line);

    /** Fill @p line into @p core's L2 then L1, handling L2 evictions. */
    void fillPrivate(unsigned core, Addr line, CohState coh);

    /** Upgrade a Shared line to Modified ownership by @p core. */
    void upgradeToModified(unsigned core, Addr line);

    /** Latency with contention multiplier applied. */
    double effLatency(HitLevel level) const;

    /** Throughput cost with contention multiplier applied. */
    double effThroughput(HitLevel level) const;

    /** Add jitter and possible interrupt cost, then advance clock. */
    Cycles finishOp(double duration);

    // ------------------------------------------- defense internals

    /**
     * Run due defense work — interval re-keys, pending watchdog-
     * triggered re-keys, watchdog sweeps.  Called from finishOp, i.e.
     * at operation boundaries only: a re-key changes the set mapping,
     * so it must never run inside accessLine where resolved set ids
     * are live.
     */
    void defenseTick();

    /** One watchdog sweep over the armed working set. */
    void runWatchdogProbe();

    /** Move every live LLC/SF line to its set under the current key. */
    void remapSharedStructures();

    /** Rebuild the per-set stream-replay index after a re-key. */
    void rebuildStreamIndex();

    MachineConfig cfg_;
    NoiseProfile noise_;

    Rng rng_;       //!< machine-internal randomness (replacement, noise)
    Rng jitterRng_; //!< timing jitter, decoupled from state randomness

    PageAllocator allocator_;
    unsigned nextAsid_ = 0;

    OpaqueSliceHash sliceHash_; //!< by value: slice() inlines per access

    std::vector<CacheArray> l1_; //!< per core
    std::vector<CacheArray> l2_; //!< per core

    /**
     * Interleaved LLC + SF structure-of-arrays planes ([sf | llc] per
     * flat set in each plane): the two structures share the set space
     * and the hot path always probes them back to back, so
     * co-locating their tag rows makes one host fetch cover both
     * probes — and flushLineNowAt scans the combined row in a single
     * fused pass.  Metadata rows are interleaved the same way in
     * their own plane so probes that miss never pull them in.
     * Declared before llc_/sf_ so the planes outlive and pre-exist
     * them.
     */
    std::vector<Addr> sharedTags_;
    std::vector<std::uint64_t> sharedMeta_;
    CacheArray llc_;
    CacheArray sf_;

    /** Shared tables big enough that batch prefetch hints pay off. */
    bool prefetchRecords_ = false;

    /** Consecutive accesses served from private caches (host-side
     *  prefetch back-off heuristic; no simulated meaning). */
    unsigned privateHitStreak_ = 0;

    Cycles clock_ = 0;

    // Lazy background replay state.
    std::vector<Cycles> lastSync_;        //!< per shared set
    std::vector<std::uint8_t> hasStream_; //!< per shared set
    /** Stream indices per shared set, indexed like hasStream_.  A
     *  dense vector rather than a hash map so replay visits streams
     *  in registration order, independent of any hash function. */
    std::vector<std::vector<std::size_t>> setStreams_;
    std::vector<Stream> streams_;
    StreamId nextStreamId_ = 1;
    Addr noiseCounter_ = 0;
    double noisePerCycle_ = 0.0;

    /**
     * True iff background replay can have no observable effect: the
     * noise rate is zero and no streams are registered.  Stream
     * replay ignores the per-set sync stamp (events fire on absolute
     * time), so with this set syncSharedSet is a provable no-op and
     * private-cache hits skip the slice hash entirely.
     */
    bool quiescent_ = false;

    /**
     * Zero noise rate, jitter and interrupt rate and no defense: the
     * only machines skipRepeats engages on (fixed at construction).
     */
    bool silent_ = false;

    MachineStats stats_;

    /**
     * Machine-level perf counter state (service-level tallies and
     * coherence downgrades); per-structure counts live in the
     * CacheArrays and are merged by perfCounters().
     */
    PerfCounters perf_;

    // ------------------------------------------------ defense state
    // All inert (empty masks, kNeverCycles timers) when cfg_.defense
    // is off, so the undefended hot path pays one compare in finishOp
    // and one empty() test in sharedSetOf.

    std::vector<Addr> indexMasks_; //!< keyed index hash; empty = natural
    Rng rekeyRng_;                    //!< key stream for (re)keying
    Cycles nextRekey_ = kNeverCycles; //!< next interval-triggered re-key
    bool rekeyPending_ = false; //!< watchdog requested a re-key
    bool inDefenseTick_ = false; //!< defenseTick re-entry guard
    Cycles nextDefenseEvent_ = kNeverCycles; //!< min of defense timers
    std::uint64_t rekeys_ = 0;
    std::uint64_t rekeyLinesMoved_ = 0;
    bool llcPartitioned_ = false;
    bool sfPartitioned_ = false;
    std::uint64_t llcProtectedMask_ = 0; //!< victim-domain LLC ways
    std::uint64_t llcOtherMask_ = 0;     //!< everyone else's LLC ways
    std::uint64_t sfProtectedMask_ = 0;  //!< victim-domain SF ways
    std::uint64_t sfOtherMask_ = 0;      //!< everyone else's SF ways
    SelfEvictionWatchdog watchdog_;

    /** Watched batches, [0] Load and [1] Store (host-side only; kept
     *  last so the access path's members stay packed together). */
    RepeatWatch repeats_[2];
};

} // namespace llcf

#endif // LLCF_SIM_MACHINE_HH

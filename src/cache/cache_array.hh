/**
 * @file
 * Storage array for one cache structure: lines, per-set replacement
 * state, fill/evict/invalidate operations.
 *
 * The array is geometry-agnostic about indexing: callers (the Machine)
 * compute a flat set id (slice * sets_per_slice + set_index) and the
 * array manages ways within that set.  Lines carry a coherence state so
 * the snoop filter / LLC interplay of Section 2.3 of the paper can be
 * modelled: Exclusive/Modified lines live in private caches and are
 * tracked by the SF; Shared lines are tracked by (and resident in)
 * the LLC.
 *
 * Hot-path layout (structure-of-arrays): per-set state is split into
 * two planes instead of one interleaved record —
 *
 *  - the *tag plane*: one contiguous row of <= W 8-byte tag words per
 *    set, padded to a multiple of kTagLane with a sentinel no
 *    line-aligned address can equal, so findWay is one branch-free
 *    vectorized equality scan (tag_scan.hh) with no validity test;
 *  - the *metadata plane*: the coherence/owner bytes and the
 *    replacement state, touched only on hits, fills and invalidates.
 *
 * The split is the classic AoS→SoA fix: a probe that misses — the
 * dominant outcome in flush sweeps and eviction tests — now reads
 * nothing but densely packed tags, so every fetched host cache line is
 * all useful data, and two structures sharing a set space (LLC + SF)
 * can interleave their tag rows so one fetch covers both probes.
 * Replacement decisions dispatch through the compile-time policy
 * switch (withReplOps) rather than virtual calls, and the per-access
 * operations are defined inline here so the Machine's access loop
 * compiles into one flat function.  Every simulated event is counted
 * in an allocation-free ArrayCounters (see perf_counters.hh).
 */

#ifndef LLCF_CACHE_CACHE_ARRAY_HH
#define LLCF_CACHE_CACHE_ARRAY_HH

#include <bit>
#include <cstring>
#include <optional>
#include <vector>

#include "cache/geometry.hh"
#include "cache/perf_counters.hh"
#include "cache/replacement.hh"
#include "cache/tag_scan.hh"
#include "common/rng.hh"
#include "common/types.hh"

namespace llcf {

/** MESI-style coherence state of a cached line. */
enum class CohState : std::uint8_t {
    Invalid = 0,
    Exclusive, //!< private to one core, tracked by the SF
    Modified,  //!< private dirty, tracked by the SF
    Shared,    //!< present in the LLC (possibly also in private caches)
};

/** One cache line's bookkeeping. */
struct CacheLine
{
    Addr lineAddr = 0;                  //!< line-aligned physical address
    CohState coh = CohState::Invalid;
    std::uint8_t owner = 0;             //!< owning core for private lines

    bool valid() const { return coh != CohState::Invalid; }
};

/** Result of filling a line into a set. */
struct FillResult
{
    unsigned way = 0;          //!< way the new line landed in
    bool evicted = false;      //!< true iff a valid line was displaced
    CacheLine victim;          //!< the displaced line, if any
};

/**
 * Value snapshot of one CacheArray's simulated state.  Rows are stored
 * densely (no host-alignment stride, no interleaving), so the same
 * snapshot logic covers self-owned arrays and arrays placed inside a
 * shared external plane — restoring writes each row back through the
 * array's own placement arithmetic.
 */
struct CacheArrayState
{
    std::vector<Addr> tags;          //!< totalSets x tagRowWords words
    std::vector<std::uint64_t> meta; //!< totalSets x meta-row words
    ArrayCounters counters;
};

/**
 * A flat array of cache sets with pluggable replacement, stored as two
 * structure-of-arrays planes (tags / metadata).  A 57,344-set LLC
 * costs ~10 MB and a lookup is one vectorized scan of one padded tag
 * row.
 */
class CacheArray
{
  public:
    /**
     * @param geom Geometry (ways x sets x slices).
     * @param repl Replacement policy kind for every set.
     */
    CacheArray(const CacheGeometry &geom, ReplKind repl);

    /**
     * Place this array's per-set rows inside caller-owned planes
     * instead of self-owned storage: set @p s's tag row lives at
     * @p tag_base + s * @p tag_stride_words + @p tag_offset_words, and
     * its metadata row at @p meta_base + s * @p meta_stride_words +
     * @p meta_offset_words (both in 8-byte words).  Lets two
     * structures that share a set space (the LLC and SF) interleave
     * their rows per plane so one host cache fetch covers both — the
     * miss path, the flush path and the SF-eviction path all probe the
     * two structures at the same flat set back to back.  Both planes
     * must hold sets * stride words and outlive the array.
     */
    CacheArray(const CacheGeometry &geom, ReplKind repl, Addr *tag_base,
               std::size_t tag_stride_words, std::size_t tag_offset_words,
               std::uint64_t *meta_base, std::size_t meta_stride_words,
               std::size_t meta_offset_words);

    /** Padded tag-row words one set occupies for @p geom. */
    static std::size_t
    tagWordsFor(const CacheGeometry &geom)
    {
        return (geom.ways + kTagLane - 1) / kTagLane * kTagLane;
    }

    /** Metadata-row words one set occupies for @p geom under @p repl. */
    static std::size_t metaWordsFor(const CacheGeometry &geom,
                                    ReplKind repl);

    // Copying would leave the copy's plane bases aliasing (and later
    // dangling into) the source's buffers; moves transfer the buffers
    // and stay safe.
    CacheArray(const CacheArray &) = delete;
    CacheArray &operator=(const CacheArray &) = delete;
    CacheArray(CacheArray &&) = default;
    CacheArray &operator=(CacheArray &&) = default;

    /** The geometry this array was built with. */
    const CacheGeometry &geometry() const { return geom_; }

    /** Replacement policy kind. */
    ReplKind replKind() const { return kind_; }

    /** Simulated event counters since construction / resetCounters. */
    const ArrayCounters &counters() const { return counters_; }

    /** Zero the event counters (cache contents are untouched). */
    void resetCounters() { counters_ = ArrayCounters{}; }

    /** Add events simulated in bulk (the Machine's repeat skip). */
    void addCounters(const ArrayCounters &c) { counters_ += c; }

    /** 8-byte words in one set's image (tag row + metadata row). */
    std::size_t rowWords() const { return paddedWays_ + metaWords_; }

    /** Copy @p set's tag and metadata rows into @p out (rowWords()). */
    void
    saveRow(unsigned set, std::uint64_t *out) const
    {
        std::memcpy(out, tagsOf(set), paddedWays_ * sizeof(Addr));
        std::memcpy(out + paddedWays_, metaOf(set),
                    metaWords_ * sizeof(std::uint64_t));
    }

    /** Overwrite @p set's rows with the image saveRow() wrote. */
    void
    loadRow(unsigned set, const std::uint64_t *img)
    {
        std::memcpy(tagsOf(set), img, paddedWays_ * sizeof(Addr));
        std::memcpy(metaOf(set), img + paddedWays_,
                    metaWords_ * sizeof(std::uint64_t));
    }

    /** Flat set id from slice and per-slice index. */
    unsigned
    flatSet(unsigned slice, unsigned index) const
    {
        return slice * geom_.sets + index;
    }

    /**
     * Read-only view of @p set's padded tag row (tagRowWords() words;
     * padding holds the sentinel).  For callers that fuse scans over
     * interleaved rows (the Machine's shared flush probe) and for
     * host-side prefetch; simulated state must be mutated through the
     * operations below only.
     */
    const Addr *tagRow(unsigned set) const { return tagsOf(set); }

    /** Words in one padded tag row (ways rounded up to kTagLane). */
    unsigned tagRowWords() const { return paddedWays_; }

    /**
     * Hint the host to pull @p set's tag row into its caches.  The
     * batched access path prefetches the next elements' rows while the
     * current element is simulated — at Skylake scale the planes live
     * in multi-megabyte tables and the dependent lookups are
     * host-memory-latency-bound, so the overlap is where the batch
     * API's throughput comes from.  No simulated effect whatsoever.
     */
    void
    prefetchSet(unsigned set) const
    {
        const Addr *tags = tagsOf(set);
        for (unsigned b = 0;; b += 8) {
            __builtin_prefetch(tags + b);
            if (b + 8 >= paddedWays_)
                break;
        }
    }

    /**
     * Hint the host to pull @p set's metadata row too — worth it on
     * fill/hit-heavy sweeps; the tag-only prefetch above suffices for
     * miss-dominated probes.  No simulated effect.
     */
    void
    prefetchSetMeta(unsigned set) const
    {
        const std::uint8_t *meta = metaOf(set);
        for (std::size_t b = 0;; b += 64) {
            __builtin_prefetch(meta + b);
            if (b + 64 >= metaWords_ * 8)
                break;
        }
    }

    /**
     * Find the way holding @p line_addr in @p set.
     * @return way index, or std::nullopt on miss.
     */
    std::optional<unsigned>
    findWay(unsigned set, Addr line_addr) const
    {
        ++counters_.tagScans;
        // Invalid ways and row padding hold kInvalidTag, which no
        // line-aligned address equals, so no validity check is needed
        // and a match is always a real way.  Rows of one vector group
        // (small hit-heavy L1s) scan scalar: the splat/mask overhead
        // only amortises over multiple groups.  Both kernels return
        // identical slots, so the choice is invisible to simulation.
        const int slot =
            paddedWays_ <= kTagLane
                ? tagScanFindScalar(tagsOf(set), paddedWays_, line_addr)
                : tagScanFind(tagsOf(set), paddedWays_, line_addr);
        if (slot < 0)
            return std::nullopt;
        return static_cast<unsigned>(slot);
    }

    /** Read a line's bookkeeping. @pre way < ways */
    CacheLine
    line(unsigned set, unsigned way) const
    {
        const std::uint8_t *meta = metaOf(set);
        const CohState coh = static_cast<CohState>(meta[way]);
        return CacheLine{coh == CohState::Invalid ? 0 : tagsOf(set)[way],
                         coh, meta[geom_.ways + way]};
    }

    /** Promote @p way on a hit (replacement update only). */
    void
    onHit(unsigned set, unsigned way)
    {
        ++counters_.hits;
        withReplOps(kind_, [&](auto ops) {
            ops.onHit(replStateIn(metaOf(set)), geom_.ways, way);
        });
    }

    /**
     * Insert @p new_line into @p set, filling an invalid way if one
     * exists, otherwise evicting the policy's victim.
     */
    FillResult
    fill(unsigned set, const CacheLine &new_line, Rng &rng)
    {
        std::uint8_t *meta = metaOf(set);
        ++counters_.fills;
        return withReplOps(kind_, [&](auto ops) {
            std::uint8_t *st = replStateIn(meta);
            FillResult res;
            const std::uint64_t invalid = invalidWays(meta);
            if (invalid != 0) {
                const unsigned w =
                    static_cast<unsigned>(std::countr_zero(invalid));
                writeLine(set, w, new_line);
                res.way = w;
                ops.onFill(st, geom_.ways, w);
                return res;
            }

            // All ways valid: evict the policy victim (fused
            // victim-choice + fill-update, one state pass).
            const unsigned vic = ops.victimAndFill(st, geom_.ways, rng);
            res.way = vic;
            res.evicted = true;
            res.victim = line(set, vic);
            ++counters_.evictions;
            writeLine(set, vic, new_line);
            return res;
        });
    }

    /**
     * fill() restricted to the set bits of @p allowed — the CAT-style
     * partitioned fill: the new line lands in an invalid allowed way
     * if one exists, otherwise in the policy's masked victim, so lines
     * outside the mask are never displaced.  A set can hold invalid
     * ways while every *allowed* way is full, so the invalid-way scan
     * is restricted to the mask.
     * @pre allowed selects at least one way below ways (checked).
     */
    FillResult
    fillMasked(unsigned set, const CacheLine &new_line, Rng &rng,
               std::uint64_t allowed)
    {
        std::uint8_t *meta = metaOf(set);
        ++counters_.fills;
        return withReplOps(kind_, [&](auto ops) {
            std::uint8_t *st = replStateIn(meta);
            FillResult res;
            const std::uint64_t invalid = invalidWays(meta) & allowed;
            if (invalid != 0) {
                const unsigned w =
                    static_cast<unsigned>(std::countr_zero(invalid));
                writeLine(set, w, new_line);
                res.way = w;
                ops.onFill(st, geom_.ways, w);
                return res;
            }

            const unsigned vic =
                ops.victimMasked(st, geom_.ways, allowed, rng);
            if (vic >= geom_.ways || !(allowed >> vic & 1))
                panic("fillMasked: victim %u outside allowed mask", vic);
            ops.onFill(st, geom_.ways, vic);
            res.way = vic;
            res.evicted = true;
            res.victim = line(set, vic);
            ++counters_.evictions;
            writeLine(set, vic, new_line);
            return res;
        });
    }

    /** Invalidate a specific way. */
    void
    invalidateWay(unsigned set, unsigned way)
    {
        std::uint8_t *meta = metaOf(set);
        if (static_cast<CohState>(meta[way]) != CohState::Invalid)
            ++counters_.invalidations;
        tagsOf(set)[way] = kInvalidTag;
        meta[way] = static_cast<std::uint8_t>(CohState::Invalid);
        meta[geom_.ways + way] = 0;
    }

    /**
     * Invalidate @p line_addr if present.
     * @return the invalidated line, or std::nullopt if absent.
     */
    std::optional<CacheLine>
    invalidateLine(unsigned set, Addr line_addr)
    {
        auto way = findWay(set, line_addr);
        if (!way)
            return std::nullopt;
        CacheLine victim = line(set, *way);
        invalidateWay(set, *way);
        return victim;
    }

    /** Update a resident line's coherence state / owner in place. */
    void setLineState(unsigned set, unsigned way, CohState coh,
                      std::uint8_t owner);

    /** Number of valid lines in a set. */
    unsigned
    validCount(unsigned set) const
    {
        return geom_.ways -
               static_cast<unsigned>(std::popcount(invalidWays(metaOf(set))));
    }

    /** Invalidate every line and reset replacement state. */
    void flushAll();

    /** Copy out every set's tag/meta row plus the event counters. */
    CacheArrayState saveState() const;

    /**
     * Restore a state captured by saveState() on an array of the same
     * geometry and policy.  Fatal on a shape mismatch.
     */
    void restoreState(const CacheArrayState &state);

  private:
    /**
     * Tag stored in invalid ways and in row padding.  Real tags are
     * line-aligned (low kLineBits bits clear), so an odd value can
     * never match one and findWay needs no separate validity test.
     */
    static constexpr Addr kInvalidTag = 0x1;

    // ----------------------------------------------------- SoA planes
    //
    // Tag plane: per set, tagWordsFor() 8-byte tag words (ways rounded
    // up to kTagLane; padding = kInvalidTag) so the scan kernels can
    // consume whole vector groups with no tail loop.
    //
    // Meta plane: per set, metaWordsFor() words holding
    //
    //   [ coh: ways ][ owner: ways ][ repl state: stateBytes(ways) ]
    //   [ tail to the word ]
    //
    // accessed through char pointers (always aliasing-legal).  The hot
    // kernels load and store whole 8-byte words of byte lanes at any
    // alignment, and every word they touch lies inside the row:
    //
    //  - invalidWays() reads ceil(ways / 8) words from byte 0; lanes
    //    past the coherence bytes are owner bytes, masked off;
    //  - LruOps::onHit reads and writes ceil(ways / 8) words of age
    //    lanes; LruOps::stateBytes() is that many whole words, and
    //    the lanes past `ways` are written back unchanged.
    //
    // So a set's row changes only where its simulated state does, and
    // snapshots and the repeat watch's row images stay exact.  No
    // valid count is stored: validCount() counts the ways that
    // invalidWays() does not flag.  Probes
    // that miss never touch this plane — that is the point of the
    // split: the arrays are multi-megabyte at Skylake scale, the
    // access pattern is random, and host cache misses, not
    // instructions, bound the simulation there, so a probe should
    // fetch nothing but tags.

    Addr *
    tagsOf(unsigned set)
    {
        return tagBase_ + static_cast<std::size_t>(set) * tagStride_ +
               tagOffset_;
    }

    const Addr *
    tagsOf(unsigned set) const
    {
        return tagBase_ + static_cast<std::size_t>(set) * tagStride_ +
               tagOffset_;
    }

    std::uint8_t *
    metaOf(unsigned set)
    {
        return reinterpret_cast<std::uint8_t *>(
            metaBase_ + static_cast<std::size_t>(set) * metaStride_ +
            metaOffset_);
    }

    const std::uint8_t *
    metaOf(unsigned set) const
    {
        return reinterpret_cast<const std::uint8_t *>(
            metaBase_ + static_cast<std::size_t>(set) * metaStride_ +
            metaOffset_);
    }

    /**
     * Bit w set iff way w of the row is Invalid: its coherence byte is
     * 0.  Scans the coherence bytes 8 lanes per word; the last word's
     * upper lanes are owner bytes, which the mask to ways drops.
     */
    std::uint64_t
    invalidWays(const std::uint8_t *meta) const
    {
        std::uint64_t invalid = 0;
        for (unsigned b = 0; b < geom_.ways; b += 8) {
            const std::uint64_t coh = loadLanes(meta + b);
            // High bit of a lane set iff the lane is 0 (exact, no
            // borrow: the low 7 bits are summed apart from bit 7).
            const std::uint64_t zero =
                ~(((coh & ~kLaneHigh) + ~kLaneHigh) | coh) & kLaneHigh;
            // Gather the 8 lane flags into 8 adjacent bits.
            invalid |= ((zero >> 7) * 0x0102040810204080ULL >> 56) << b;
        }
        return invalid & waysMask_;
    }

    /** Replacement state inside a set's metadata row. */
    std::uint8_t *
    replStateIn(std::uint8_t *meta)
    {
        return meta + replOffset_;
    }

    void
    writeLine(unsigned set, unsigned way, const CacheLine &l)
    {
        tagsOf(set)[way] = l.lineAddr;
        std::uint8_t *meta = metaOf(set);
        meta[way] = static_cast<std::uint8_t>(l.coh);
        meta[geom_.ways + way] = l.owner;
    }

    /** Reset one set's tags, metadata and replacement state. */
    void resetSet(unsigned set);

    /** Shared init tail of the two constructors. */
    void initPlanes();

    CacheGeometry geom_;
    ReplKind kind_;
    unsigned replOffset_;   //!< repl-state byte index within meta row
    std::uint64_t waysMask_; //!< bits [0, ways) set
    unsigned paddedWays_;   //!< tag-row words (ways padded to kTagLane)
    std::size_t metaWords_; //!< meta-row 8-byte words

    std::vector<Addr> ownTags_;          //!< self-owned tag plane
    std::vector<std::uint64_t> ownMeta_; //!< self-owned meta plane
    Addr *tagBase_ = nullptr;            //!< tag plane (own or external)
    std::size_t tagStride_ = 0;          //!< words between sets' tag rows
    std::size_t tagOffset_ = 0;          //!< this array's tag-row offset
    std::uint64_t *metaBase_ = nullptr;  //!< meta plane (own or external)
    std::size_t metaStride_ = 0;         //!< words between sets' meta rows
    std::size_t metaOffset_ = 0;         //!< this array's meta-row offset

    // findWay is logically const but counts its scans; the counters
    // are observability state, not simulated cache state.
    mutable ArrayCounters counters_;
};

} // namespace llcf

#endif // LLCF_CACHE_CACHE_ARRAY_HH

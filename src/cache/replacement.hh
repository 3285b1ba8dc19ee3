/**
 * @file
 * Replacement policies for set-associative caches.
 *
 * Policies are stateless strategies operating on a small per-set byte
 * buffer owned by the cache array, so a machine with tens of thousands
 * of sets stays compact.  The paper's Parallel Probing claims
 * independence from the replacement policy; having LRU / Tree-PLRU /
 * SRRIP / Random selectable per structure lets the ablation benches
 * test that claim.
 *
 * The *Ops structs (LruOps, TreePlruOps, SrripOps, RandomOps) hold
 * the policy logic as inline static functions.  withReplOps()
 * dispatches over a ReplKind tag at compile time per call site, so the
 * cache array's hot path (CacheArray::onHit / fill) runs the policy
 * update fully inlined — one predictable switch instead of a virtual
 * call per access.  Tests that want runtime polymorphism (reference
 * models, property tests) wrap the same ops in the virtual ReplPolicy
 * classes of tests/repl_policy.hh; nothing in the library needs them.
 */

#ifndef LLCF_CACHE_REPLACEMENT_HH
#define LLCF_CACHE_REPLACEMENT_HH

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>

#include "common/log.hh"
#include "common/rng.hh"

namespace llcf {

/** Selectable replacement policy kinds. */
enum class ReplKind { LRU, TreePLRU, SRRIP, Random };

/** Human-readable policy name. */
const char *replKindName(ReplKind kind);

/** All selectable policy kinds, for ablation sweeps. */
inline constexpr ReplKind kAllReplKinds[] = {
    ReplKind::LRU, ReplKind::TreePLRU, ReplKind::SRRIP, ReplKind::Random};

// --------------------------------------------------------- policy ops
//
// Each ops struct provides the same five static operations on a
// per-set state buffer:
//
//   stateBytes(ways)          bytes of per-set state required
//   reset(st, ways)           initialise to the cold baseline
//   onHit(st, ways, way)      update on a hit
//   onFill(st, ways, way)     update when a new line fills @p way
//   victim(st, ways, rng)     choose the victim (all ways valid)
//
// plus victimMasked(st, ways, allowed, rng): the victim restricted to
// the set bits of an allowed-way mask — the hook CAT-style way
// partitioning uses so one domain's fills can never evict another
// domain's ways.  Preconditions: every allowed way is valid and the
// mask selects at least one way below `ways`.

// ------------------------------------------------ byte-lane word kernels
//
// Per-set metadata is a row of bytes, one per way.  The hot updates
// treat it 8 lanes at a time: one unaligned 64-bit load, a few
// branch-free lane operations, one store.  Lane i of a loaded word is
// byte i of the row (little-endian hosts only).

static_assert(std::endian::native == std::endian::little,
              "byte-lane kernels map row byte i to word lane i");

inline constexpr std::uint64_t kLaneLow = 0x0101010101010101ULL;
inline constexpr std::uint64_t kLaneHigh = 0x8080808080808080ULL;

/** The 8 bytes at @p p as one word of lanes (any alignment). */
inline std::uint64_t
loadLanes(const std::uint8_t *p)
{
    std::uint64_t w;
    std::memcpy(&w, p, sizeof w);
    return w;
}

/** Store the lanes of @p w to the 8 bytes at @p p (any alignment). */
inline void
storeLanes(std::uint8_t *p, std::uint64_t w)
{
    std::memcpy(p, &w, sizeof w);
}

/** Lanes [0, n) of a word set to 0xff, the rest 0.  @pre 1 <= n */
inline std::uint64_t
laneMask(unsigned n)
{
    return ~std::uint64_t{0} >> (64 - 8 * std::min(n, 8u));
}

/** True LRU via per-way age counters (0 = MRU). */
struct LruOps
{
    static constexpr ReplKind kKind = ReplKind::LRU;

    /**
     * One age byte per way, rounded up to whole 8-byte words so the
     * lane kernel's loads and stores stay inside the state.  The
     * lanes past @p ways are never read as ages nor written.
     */
    static std::size_t
    stateBytes(unsigned ways)
    {
        return (ways + 7) / 8 * 8;
    }

    static void
    reset(std::uint8_t *st, unsigned ways)
    {
        for (unsigned w = 0; w < ways; ++w)
            st[w] = static_cast<std::uint8_t>(ways - 1 - w);
    }

    /**
     * Every age below the touched way's gains one, 8 ways per word;
     * then the touched way becomes MRU.  Ages are a permutation of
     * [0, ways) with ways < 128, so `(age | 0x80) - old` never
     * borrows across a lane and its high bit is set iff age >= old.
     */
    static void
    onHit(std::uint8_t *st, unsigned ways, unsigned way)
    {
        const std::uint64_t old = st[way] * kLaneLow;
        for (unsigned b = 0; b < ways; b += 8) {
            const std::uint64_t age = loadLanes(st + b);
            const std::uint64_t below =
                ~((age | kLaneHigh) - old) & kLaneHigh & laneMask(ways - b);
            storeLanes(st + b, age + (below >> 7));
        }
        st[way] = 0;
    }

    static void
    onFill(std::uint8_t *st, unsigned ways, unsigned way)
    {
        onHit(st, ways, way);
    }

    static unsigned
    victim(const std::uint8_t *st, unsigned ways, Rng &rng)
    {
        (void)rng;
        unsigned vic = 0;
        std::uint8_t oldest = 0;
        for (unsigned w = 0; w < ways; ++w) {
            if (st[w] >= oldest) {
                oldest = st[w];
                vic = w;
            }
        }
        return vic;
    }

    /** Fused victim() + onFill(); one dispatch for the fill path. */
    static unsigned
    victimAndFill(std::uint8_t *st, unsigned ways, Rng &rng)
    {
        const unsigned vic = victim(st, ways, rng);
        onFill(st, ways, vic);
        return vic;
    }

    /**
     * Oldest way within @p allowed, with the same >=-tie-break toward
     * the highest way as victim().
     */
    static unsigned
    victimMasked(std::uint8_t *st, unsigned ways, std::uint64_t allowed,
                 Rng &rng)
    {
        (void)rng;
        unsigned vic = 0;
        int oldest = -1;
        for (unsigned w = 0; w < ways; ++w) {
            if (!(allowed >> w & 1))
                continue;
            if (static_cast<int>(st[w]) >= oldest) {
                oldest = st[w];
                vic = w;
            }
        }
        return vic;
    }
};

/** Tree pseudo-LRU over the next power-of-two of ways. */
struct TreePlruOps
{
    static constexpr ReplKind kKind = ReplKind::TreePLRU;

    static unsigned
    leaves(unsigned ways)
    {
        unsigned n = 1;
        while (n < ways)
            n <<= 1;
        return n;
    }

    static std::size_t
    stateBytes(unsigned ways)
    {
        // One byte per node slot of a full binary tree; index 0 unused.
        return leaves(ways);
    }

    static void
    reset(std::uint8_t *st, unsigned ways)
    {
        const unsigned n = leaves(ways);
        for (unsigned i = 0; i < n; ++i)
            st[i] = 0;
    }

    static void
    onHit(std::uint8_t *st, unsigned ways, unsigned way)
    {
        // Walk root to leaf, pointing each node away from the touched
        // way.
        const unsigned n = leaves(ways);
        unsigned node = 1;
        unsigned lo = 0, hi = n;
        while (node < n) {
            unsigned mid = (lo + hi) / 2;
            if (way < mid) {
                st[node] = 1; // point at the right (other) side
                node = node * 2;
                hi = mid;
            } else {
                st[node] = 0;
                node = node * 2 + 1;
                lo = mid;
            }
        }
    }

    static void
    onFill(std::uint8_t *st, unsigned ways, unsigned way)
    {
        onHit(st, ways, way);
    }

    static unsigned
    victim(const std::uint8_t *st, unsigned ways, Rng &rng)
    {
        (void)rng;
        const unsigned n = leaves(ways);
        unsigned node = 1;
        unsigned lo = 0, hi = n;
        while (node < n) {
            unsigned mid = (lo + hi) / 2;
            if (st[node]) {
                node = node * 2 + 1;
                lo = mid;
            } else {
                node = node * 2;
                hi = mid;
            }
        }
        // With non-power-of-two ways the walk can land past the last
        // way; clamp (the tree bits still age sensibly).
        return lo < ways ? lo : ways - 1;
    }

    /**
     * Fused victim() + onFill(): the fill walk retraces the victim
     * walk exactly, flipping every visited node to point away from
     * the chosen leaf — so one descent can read the direction and
     * write its complement.  Only exact for power-of-two ways (the
     * non-pow2 clamp makes the touch path diverge); callers fall back
     * otherwise.
     */
    static unsigned
    victimAndFill(std::uint8_t *st, unsigned ways, Rng &rng)
    {
        if (!isPow2(ways)) {
            const unsigned vic = victim(st, ways, rng);
            onFill(st, ways, vic);
            return vic;
        }
        const unsigned n = leaves(ways);
        unsigned node = 1;
        unsigned lo = 0, hi = n;
        while (node < n) {
            const unsigned mid = (lo + hi) / 2;
            const std::uint8_t d = st[node];
            st[node] = d ? 0 : 1;
            if (d) {
                node = node * 2 + 1;
                lo = mid;
            } else {
                node = node * 2;
                hi = mid;
            }
        }
        return lo;
    }

    /**
     * Victim constrained to @p allowed: the descent follows each
     * node's pointer unless the pointed-to subtree contains no
     * allowed way, in which case it takes the other side.  Every
     * entered subtree contains an allowed way, so the final leaf is
     * always allowed (including the non-power-of-two tail, whose
     * phantom leaves never carry allowed bits).
     */
    static unsigned
    victimMasked(std::uint8_t *st, unsigned ways, std::uint64_t allowed,
                 Rng &rng)
    {
        (void)rng;
        const unsigned n = leaves(ways);
        const auto range_allowed = [&](unsigned lo, unsigned hi) {
            if (lo >= ways)
                return std::uint64_t{0};
            if (hi > ways)
                hi = ways;
            const std::uint64_t span =
                hi - lo >= 64 ? ~std::uint64_t{0}
                              : (std::uint64_t{1} << (hi - lo)) - 1;
            return allowed & (span << lo);
        };
        unsigned node = 1;
        unsigned lo = 0, hi = n;
        while (node < n) {
            const unsigned mid = (lo + hi) / 2;
            bool right = st[node] != 0;
            if (right && range_allowed(mid, hi) == 0)
                right = false;
            else if (!right && range_allowed(lo, mid) == 0)
                right = true;
            if (right) {
                node = node * 2 + 1;
                lo = mid;
            } else {
                node = node * 2;
                hi = mid;
            }
        }
        return lo;
    }

  private:
    static bool
    isPow2(unsigned v)
    {
        return v != 0 && (v & (v - 1)) == 0;
    }
};

/** Static RRIP with 2-bit re-reference prediction values. */
struct SrripOps
{
    static constexpr ReplKind kKind = ReplKind::SRRIP;
    static constexpr std::uint8_t kMaxRrpv = 3;

    static std::size_t
    stateBytes(unsigned ways)
    {
        return ways; // one RRPV byte per way
    }

    static void
    reset(std::uint8_t *st, unsigned ways)
    {
        for (unsigned w = 0; w < ways; ++w)
            st[w] = kMaxRrpv;
    }

    static void
    onHit(std::uint8_t *st, unsigned ways, unsigned way)
    {
        (void)ways;
        st[way] = 0; // hit promotion
    }

    static void
    onFill(std::uint8_t *st, unsigned ways, unsigned way)
    {
        (void)ways;
        st[way] = kMaxRrpv - 1; // long re-reference interval on insert
    }

    static unsigned
    victim(std::uint8_t *st, unsigned ways, Rng &rng)
    {
        (void)rng;
        for (;;) {
            for (unsigned w = 0; w < ways; ++w) {
                if (st[w] >= kMaxRrpv)
                    return w;
            }
            for (unsigned w = 0; w < ways; ++w)
                ++st[w];
        }
    }

    /** Fused victim() + onFill(); identical outcome, one dispatch. */
    static unsigned
    victimAndFill(std::uint8_t *st, unsigned ways, Rng &rng)
    {
        const unsigned vic = victim(st, ways, rng);
        st[vic] = kMaxRrpv - 1;
        return vic;
    }

    /**
     * First allowed way at max RRPV, aging only the allowed ways so
     * the other partition's re-reference state is untouched.
     */
    static unsigned
    victimMasked(std::uint8_t *st, unsigned ways, std::uint64_t allowed,
                 Rng &rng)
    {
        (void)rng;
        for (;;) {
            for (unsigned w = 0; w < ways; ++w) {
                if ((allowed >> w & 1) && st[w] >= kMaxRrpv)
                    return w;
            }
            for (unsigned w = 0; w < ways; ++w) {
                if (allowed >> w & 1)
                    ++st[w];
            }
        }
    }
};

/** Uniform random victim selection (no per-set state). */
struct RandomOps
{
    static constexpr ReplKind kKind = ReplKind::Random;

    static std::size_t
    stateBytes(unsigned ways)
    {
        (void)ways;
        return 0;
    }

    static void
    reset(std::uint8_t *st, unsigned ways)
    {
        (void)st;
        (void)ways;
    }

    static void
    onHit(std::uint8_t *st, unsigned ways, unsigned way)
    {
        (void)st;
        (void)ways;
        (void)way;
    }

    static void
    onFill(std::uint8_t *st, unsigned ways, unsigned way)
    {
        (void)st;
        (void)ways;
        (void)way;
    }

    static unsigned
    victim(const std::uint8_t *st, unsigned ways, Rng &rng)
    {
        (void)st;
        return static_cast<unsigned>(rng.nextBelow(ways));
    }

    /** Fused victim() + onFill(); state-free either way. */
    static unsigned
    victimAndFill(std::uint8_t *st, unsigned ways, Rng &rng)
    {
        return victim(st, ways, rng);
    }

    /** Uniform choice among the allowed ways. */
    static unsigned
    victimMasked(std::uint8_t *st, unsigned ways, std::uint64_t allowed,
                 Rng &rng)
    {
        (void)st;
        const std::uint64_t in_range =
            ways >= 64 ? allowed
                       : allowed & ((std::uint64_t{1} << ways) - 1);
        auto k = rng.nextBelow(
            static_cast<std::uint64_t>(std::popcount(in_range)));
        for (unsigned w = 0; w < ways; ++w) {
            if (!(allowed >> w & 1))
                continue;
            if (k == 0)
                return w;
            --k;
        }
        return ways - 1;
    }
};

/**
 * Invoke @p fn with the ops struct for @p kind.  The switch is the
 * whole dispatch cost: inside @p fn the policy operations are ordinary
 * inlineable static calls, which is what lets CacheArray's per-access
 * path run without virtual dispatch.
 */
template <typename Fn>
inline decltype(auto)
withReplOps(ReplKind kind, Fn &&fn)
{
    switch (kind) {
      case ReplKind::LRU:
        return fn(LruOps{});
      case ReplKind::TreePLRU:
        return fn(TreePlruOps{});
      case ReplKind::SRRIP:
        return fn(SrripOps{});
      case ReplKind::Random:
        return fn(RandomOps{});
    }
    panic("unknown replacement kind");
}

} // namespace llcf

#endif // LLCF_CACHE_REPLACEMENT_HH

/**
 * @file
 * Randomized differential validation of the SoA CacheArray against a
 * deliberately naive array-of-structures reference model.
 *
 * The production array (cache_array.hh) stores each set as two planes
 * — a padded sentinel tag row and a packed metadata row — and runs
 * replacement through the compile-time ops switch with a fused
 * victim-and-fill step.  The oracle here is the layout a first
 * implementation would use: one CacheLine record per way plus the
 * virtual ReplPolicy wrappers; no padding, no sentinels, no fusion.
 * Long seeded random traces of lookups, fills, invalidates, state
 * updates and flushes are applied to both, comparing lookup results,
 * fill placements, victims and full per-set state step for step — any
 * bug in the SoA plane arithmetic (offsets, sentinel handling,
 * shared-plane interleaving, replacement-state aliasing) shows up as
 * a divergence.  A second driver runs the LLC+SF interleaved-plane
 * placement the Machine uses against two independent oracles, and the
 * Tree-PLRU non-power-of-two clamp is pinned on the repl-state plane.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <optional>
#include <vector>

#include "cache/cache_array.hh"
#include "common/types.hh"
#include "repl_policy.hh"

namespace llcf {
namespace {

/**
 * Array-of-structures reference cache: the simplest possible correct
 * implementation of CacheArray's contract, kept independent of its
 * layout so the two can only agree by computing the same thing.
 * Mirrors the production counter discipline (tagScans in findWay,
 * hits in onHit, fills/evictions in fill, invalidations on
 * valid-line drops) so counters can be compared too.
 */
class AosCacheArray
{
  public:
    AosCacheArray(const CacheGeometry &geom, ReplKind repl)
        : geom_(geom), policy_(makeReplPolicy(repl)),
          stateBytes_(policy_->stateBytes(geom.ways)),
          lines_(static_cast<std::size_t>(geom.totalSets()) * geom.ways),
          state_(static_cast<std::size_t>(geom.totalSets()) *
                 (stateBytes_ > 0 ? stateBytes_ : 1))
    {
        for (unsigned s = 0; s < geom.totalSets(); ++s)
            policy_->reset(stateOf(s), geom_.ways);
    }

    std::optional<unsigned>
    findWay(unsigned set, Addr line_addr) const
    {
        ++counters_.tagScans;
        for (unsigned w = 0; w < geom_.ways; ++w) {
            const CacheLine &l = lineAt(set, w);
            if (l.valid() && l.lineAddr == line_addr)
                return w;
        }
        return std::nullopt;
    }

    CacheLine line(unsigned set, unsigned way) const
    {
        return lineAt(set, way);
    }

    void
    onHit(unsigned set, unsigned way)
    {
        ++counters_.hits;
        policy_->onHit(stateOf(set), geom_.ways, way);
    }

    FillResult
    fill(unsigned set, const CacheLine &new_line, Rng &rng)
    {
        ++counters_.fills;
        std::uint8_t *st = stateOf(set);
        for (unsigned w = 0; w < geom_.ways; ++w) {
            if (!lineAt(set, w).valid()) {
                lineAt(set, w) = new_line;
                policy_->onFill(st, geom_.ways, w);
                return FillResult{w, false, CacheLine{}};
            }
        }
        const unsigned vic = policy_->victim(st, geom_.ways, rng);
        FillResult res{vic, true, lineAt(set, vic)};
        ++counters_.evictions;
        lineAt(set, vic) = new_line;
        policy_->onFill(st, geom_.ways, vic);
        return res;
    }

    void
    invalidateWay(unsigned set, unsigned way)
    {
        if (lineAt(set, way).valid())
            ++counters_.invalidations;
        lineAt(set, way) = CacheLine{};
    }

    std::optional<CacheLine>
    invalidateLine(unsigned set, Addr line_addr)
    {
        auto way = findWay(set, line_addr);
        if (!way)
            return std::nullopt;
        CacheLine victim = lineAt(set, *way);
        invalidateWay(set, *way);
        return victim;
    }

    void
    setLineState(unsigned set, unsigned way, CohState coh,
                 std::uint8_t owner)
    {
        CacheLine &l = lineAt(set, way);
        l.coh = coh;
        l.owner = owner;
    }

    unsigned
    validCount(unsigned set) const
    {
        unsigned n = 0;
        for (unsigned w = 0; w < geom_.ways; ++w)
            n += lineAt(set, w).valid() ? 1 : 0;
        return n;
    }

    void
    flushAll()
    {
        for (unsigned s = 0; s < geom_.totalSets(); ++s) {
            for (unsigned w = 0; w < geom_.ways; ++w)
                lineAt(s, w) = CacheLine{};
            policy_->reset(stateOf(s), geom_.ways);
        }
    }

    const ArrayCounters &counters() const { return counters_; }

  private:
    CacheLine &
    lineAt(unsigned set, unsigned way)
    {
        return lines_[static_cast<std::size_t>(set) * geom_.ways + way];
    }

    const CacheLine &
    lineAt(unsigned set, unsigned way) const
    {
        return lines_[static_cast<std::size_t>(set) * geom_.ways + way];
    }

    std::uint8_t *
    stateOf(unsigned set)
    {
        return state_.data() +
               static_cast<std::size_t>(set) * stateBytes_;
    }

    CacheGeometry geom_;
    std::unique_ptr<ReplPolicy> policy_;
    std::size_t stateBytes_;
    std::vector<CacheLine> lines_;
    std::vector<std::uint8_t> state_;
    mutable ArrayCounters counters_;
};

bool
sameLine(const CacheLine &a, const CacheLine &b)
{
    return a.lineAddr == b.lineAddr && a.coh == b.coh &&
           a.owner == b.owner;
}

void
expectSameCounters(const ArrayCounters &soa, const ArrayCounters &aos)
{
    EXPECT_EQ(soa.hits, aos.hits);
    EXPECT_EQ(soa.fills, aos.fills);
    EXPECT_EQ(soa.evictions, aos.evictions);
    EXPECT_EQ(soa.invalidations, aos.invalidations);
    EXPECT_EQ(soa.tagScans, aos.tagScans);
}

/** Compare every set's every way and valid count. */
void
expectSameState(const CacheArray &soa, const AosCacheArray &aos,
                const CacheGeometry &geom)
{
    for (unsigned s = 0; s < geom.totalSets(); ++s) {
        ASSERT_EQ(soa.validCount(s), aos.validCount(s)) << "set " << s;
        for (unsigned w = 0; w < geom.ways; ++w) {
            ASSERT_TRUE(sameLine(soa.line(s, w), aos.line(s, w)))
                << "set " << s << " way " << w;
        }
    }
}

/**
 * Drive one random operation against both models and fail on any
 * divergence.  The trace generator and both victim RNGs are seeded
 * identically, so every policy decision — including Random's draws —
 * must land on the same way.
 */
void
randomStep(CacheArray &soa, AosCacheArray &aos,
           const CacheGeometry &geom, Rng &trace, Rng &soa_rng,
           Rng &aos_rng)
{
    const unsigned op = static_cast<unsigned>(trace.nextBelow(100));
    const unsigned set =
        static_cast<unsigned>(trace.nextBelow(geom.totalSets()));
    // A small tag universe keeps hit / conflict / absent cases all
    // frequent.
    const Addr tag = (1 + trace.nextBelow(3 * geom.ways)) << kLineBits;

    if (op < 55) {
        // Access: hit-promote or miss-fill, like the Machine's lookup.
        const auto ws = soa.findWay(set, tag);
        const auto wa = aos.findWay(set, tag);
        ASSERT_EQ(ws.has_value(), wa.has_value());
        if (ws) {
            ASSERT_EQ(*ws, *wa);
            soa.onHit(set, *ws);
            aos.onHit(set, *wa);
        } else {
            const CacheLine nl{
                tag,
                static_cast<CohState>(1 + trace.nextBelow(3)),
                static_cast<std::uint8_t>(trace.nextBelow(4))};
            const FillResult rs = soa.fill(set, nl, soa_rng);
            const FillResult ra = aos.fill(set, nl, aos_rng);
            ASSERT_EQ(rs.way, ra.way);
            ASSERT_EQ(rs.evicted, ra.evicted);
            if (rs.evicted) {
                ASSERT_TRUE(sameLine(rs.victim, ra.victim));
            }
        }
    } else if (op < 75) {
        // Targeted invalidation (the flush path).
        const auto vs = soa.invalidateLine(set, tag);
        const auto va = aos.invalidateLine(set, tag);
        ASSERT_EQ(vs.has_value(), va.has_value());
        if (vs) {
            ASSERT_TRUE(sameLine(*vs, *va));
        }
    } else if (op < 90) {
        // Way-directed invalidation (the back-invalidate path).
        const unsigned way =
            static_cast<unsigned>(trace.nextBelow(geom.ways));
        ASSERT_TRUE(sameLine(soa.line(set, way), aos.line(set, way)));
        soa.invalidateWay(set, way);
        aos.invalidateWay(set, way);
    } else {
        // Coherence transition on a resident line, if present.
        const auto ws = soa.findWay(set, tag);
        const auto wa = aos.findWay(set, tag);
        ASSERT_EQ(ws.has_value(), wa.has_value());
        if (ws) {
            const CohState coh =
                static_cast<CohState>(1 + trace.nextBelow(3));
            const auto owner =
                static_cast<std::uint8_t>(trace.nextBelow(4));
            soa.setLineState(set, *ws, coh, owner);
            aos.setLineState(set, *wa, coh, owner);
        }
    }
}

/** Geometries covering power-of-two and the paper's non-pow2 ways. */
const CacheGeometry kGeoms[] = {
    {4, 16, 2},  // pow2 ways, sliced
    {5, 8, 2},   // tiny SF shape: non-pow2, clamped Tree-PLRU
    {11, 16, 1}, // Skylake LLC ways
    {12, 8, 2},  // Skylake SF / Ice Lake LLC ways
    {20, 4, 1},  // Ice Lake L2 ways (> 2 vector groups + tail)
};

TEST(ReferenceModel, RandomTracesMatchAos)
{
    for (const CacheGeometry &geom : kGeoms) {
        for (ReplKind repl : kAllReplKinds) {
            CacheArray soa(geom, repl);
            AosCacheArray aos(geom, repl);
            const std::uint64_t seed =
                0x5eedULL ^ (geom.ways * 131u) ^
                (static_cast<unsigned>(repl) << 8);
            Rng trace(seed), soa_rng(seed * 3), aos_rng(seed * 3);
            for (int step = 0; step < 100000; ++step) {
                randomStep(soa, aos, geom, trace, soa_rng, aos_rng);
                if (step % 20000 == 19999)
                    expectSameState(soa, aos, geom);
                if (HasFatalFailure()) {
                    FAIL() << "diverged: ways " << geom.ways
                           << " repl " << replKindName(repl)
                           << " step " << step;
                }
            }
            soa.flushAll();
            aos.flushAll();
            expectSameState(soa, aos, geom);
            expectSameCounters(soa.counters(), aos.counters());
        }
    }
}

TEST(ReferenceModel, InterleavedSharedPlanesMatchAos)
{
    // The Machine's LLC+SF placement: both arrays' rows interleaved
    // [sf | llc] inside shared tag and meta planes.  Each array must
    // behave exactly as if it owned its storage.
    const CacheGeometry llc{4, 16, 2};
    const CacheGeometry sf{5, 16, 2};
    for (ReplKind repl : kAllReplKinds) {
        const std::size_t tag_words =
            CacheArray::tagWordsFor(sf) + CacheArray::tagWordsFor(llc);
        const std::size_t tag_stride = hostLineAlignWords(tag_words);
        const std::size_t meta_stride =
            CacheArray::metaWordsFor(sf, repl) +
            CacheArray::metaWordsFor(llc, repl);
        std::vector<Addr> tags(sf.totalSets() * tag_stride +
                                   kLineBytes / sizeof(Addr),
                               0);
        std::vector<std::uint64_t> meta(sf.totalSets() * meta_stride,
                                        0);
        CacheArray llc_arr(llc, repl, hostLineAlignPtr(tags.data()),
                           tag_stride, CacheArray::tagWordsFor(sf),
                           meta.data(), meta_stride,
                           CacheArray::metaWordsFor(sf, repl));
        CacheArray sf_arr(sf, repl, hostLineAlignPtr(tags.data()),
                          tag_stride, 0, meta.data(), meta_stride, 0);
        AosCacheArray llc_ref(llc, repl), sf_ref(sf, repl);

        const std::uint64_t seed = 0xabcdULL + static_cast<unsigned>(repl);
        Rng trace(seed);
        Rng llc_rng(seed * 5), llc_ref_rng(seed * 5);
        Rng sf_rng(seed * 7), sf_ref_rng(seed * 7);
        for (int step = 0; step < 100000; ++step) {
            // Alternate structures from one trace so their rows churn
            // side by side within the shared strides.
            if (trace.nextBool(0.5))
                randomStep(llc_arr, llc_ref, llc, trace, llc_rng,
                           llc_ref_rng);
            else
                randomStep(sf_arr, sf_ref, sf, trace, sf_rng,
                           sf_ref_rng);
            if (HasFatalFailure()) {
                FAIL() << "diverged: repl " << replKindName(repl)
                       << " step " << step;
            }
        }
        expectSameState(llc_arr, llc_ref, llc);
        expectSameState(sf_arr, sf_ref, sf);
        expectSameCounters(llc_arr.counters(), llc_ref.counters());
        expectSameCounters(sf_arr.counters(), sf_ref.counters());
    }
}

// --------------------------------------- Tree-PLRU non-pow2 regression

TEST(TreePlruClamp, VictimStaysInRangeForNonPow2Ways)
{
    // The tree descends over the next power of two of ways; with
    // non-pow2 ways the walk can land past the last way and must
    // clamp to ways - 1.  Exercise every reachable tree state.
    Rng rng(99);
    for (unsigned ways : {3u, 5u, 6u, 7u, 11u, 12u, 20u}) {
        std::vector<std::uint8_t> st(TreePlruOps::stateBytes(ways));
        TreePlruOps::reset(st.data(), ways);
        for (int step = 0; step < 20000; ++step) {
            const unsigned touched =
                static_cast<unsigned>(rng.nextBelow(ways));
            TreePlruOps::onHit(st.data(), ways, touched);
            const unsigned vic =
                TreePlruOps::victim(st.data(), ways, rng);
            ASSERT_LT(vic, ways) << "ways " << ways;
        }
        // Steer every node toward the high side: the raw walk lands on
        // leaf leaves(ways) - 1 >= ways, the case the clamp exists for.
        for (auto &b : st)
            b = 1;
        EXPECT_EQ(TreePlruOps::victim(st.data(), ways, rng), ways - 1)
            << "ways " << ways;
    }
}

TEST(TreePlruClamp, FusedVictimAndFillMatchesUnfused)
{
    // CacheArray's fill path uses the fused victimAndFill; it must
    // equal victim() + onFill() for every ways count — fused descent
    // for powers of two, the clamped fallback otherwise.
    Rng rng(7);
    for (unsigned ways : {2u, 3u, 4u, 5u, 7u, 8u, 11u, 12u, 16u, 20u}) {
        std::vector<std::uint8_t> fused(TreePlruOps::stateBytes(ways));
        TreePlruOps::reset(fused.data(), ways);
        std::vector<std::uint8_t> unfused = fused;
        for (int step = 0; step < 20000; ++step) {
            if (rng.nextBool(0.3)) {
                const unsigned touched =
                    static_cast<unsigned>(rng.nextBelow(ways));
                TreePlruOps::onHit(fused.data(), ways, touched);
                TreePlruOps::onHit(unfused.data(), ways, touched);
            }
            const unsigned a =
                TreePlruOps::victimAndFill(fused.data(), ways, rng);
            const unsigned b =
                TreePlruOps::victim(unfused.data(), ways, rng);
            TreePlruOps::onFill(unfused.data(), ways, b);
            ASSERT_EQ(a, b) << "ways " << ways << " step " << step;
            ASSERT_LT(a, ways) << "ways " << ways;
            ASSERT_EQ(std::memcmp(fused.data(), unfused.data(),
                                  fused.size()),
                      0)
                << "ways " << ways << " step " << step;
        }
    }
}

TEST(TreePlruClamp, CacheArrayFillsStayInRangeOnNonPow2Ways)
{
    // End to end on the repl-state plane: a 5-way Tree-PLRU array
    // (the tiny SF shape) must keep every fill inside its ways and
    // its valid counts exact while thrashing one set.
    const CacheGeometry geom{5, 8, 1};
    CacheArray arr(geom, ReplKind::TreePLRU);
    Rng rng(13);
    for (unsigned i = 0; i < 500; ++i) {
        const Addr tag = static_cast<Addr>(1 + i) << kLineBits;
        const FillResult fr =
            arr.fill(3, CacheLine{tag, CohState::Shared, 0}, rng);
        EXPECT_LT(fr.way, geom.ways);
        EXPECT_EQ(fr.evicted, i >= geom.ways);
        EXPECT_EQ(arr.validCount(3),
                  std::min(i + 1, geom.ways));
        // The just-filled line must be findable where fill says it is.
        const auto w = arr.findWay(3, tag);
        ASSERT_TRUE(w.has_value());
        EXPECT_EQ(*w, fr.way);
    }
}

} // namespace
} // namespace llcf

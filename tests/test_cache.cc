/**
 * @file
 * Unit and property tests for the cache substrate: geometry maths
 * (uncertainty, index extraction), replacement policies (LRU order,
 * PLRU/ SRRIP behaviour, parameterised recency properties), slice
 * hashes, and the cache array's fill/evict/invalidate mechanics.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "cache/cache_array.hh"
#include "cache/geometry.hh"
#include "cache/replacement.hh"
#include "cache/slice_hash.hh"
#include "repl_policy.hh"

namespace llcf {
namespace {

// ------------------------------------------------------------ geometry

TEST(Geometry, SkylakeUncertaintyMatchesPaper)
{
    // Section 2.2.1: a 28-slice Skylake-SP has U_LLC = 2^5 * 28 = 896
    // and U_L2 = 2^4 = 16.
    CacheGeometry llc{11, 2048, 28};
    CacheGeometry l2{16, 1024, 1};
    EXPECT_EQ(llc.uncontrolledIndexBits(), 5u);
    EXPECT_EQ(llc.uncertainty(), 896u);
    EXPECT_EQ(l2.uncontrolledIndexBits(), 4u);
    EXPECT_EQ(l2.uncertainty(), 16u);
}

TEST(Geometry, SetIndexUsesExpectedBits)
{
    CacheGeometry l2{16, 1024, 1};
    // L2 set index is PA bits 15..6 (Figure 1).
    EXPECT_EQ(l2.setIndex(0x0), 0u);
    EXPECT_EQ(l2.setIndex(1ull << 6), 1u);
    EXPECT_EQ(l2.setIndex(1ull << 15), 512u);
    EXPECT_EQ(l2.setIndex(1ull << 16), 0u); // above the index bits
}

TEST(Geometry, L2IndexBitsAreSubsetOfLlcIndexBits)
{
    // The property candidate filtering relies on (Section 5.1): same
    // LLC set index => same L2 set index.
    CacheGeometry llc{11, 2048, 28};
    CacheGeometry l2{16, 1024, 1};
    Rng rng(9);
    for (int i = 0; i < 2000; ++i) {
        Addr a = lineAlign(rng.next() & ((1ull << 40) - 1));
        Addr b = lineAlign(rng.next() & ((1ull << 40) - 1));
        if (llc.setIndex(a) == llc.setIndex(b)) {
            EXPECT_EQ(l2.setIndex(a), l2.setIndex(b));
        }
    }
}

TEST(Geometry, TotalsAndCapacity)
{
    CacheGeometry g{12, 2048, 28};
    EXPECT_EQ(g.totalSets(), 2048u * 28);
    EXPECT_EQ(g.lineCapacity(), 12ull * 2048 * 28);
}

// -------------------------------------------------------- replacement

class ReplacementTest : public ::testing::TestWithParam<ReplKind>
{
};

TEST_P(ReplacementTest, VictimIsValidWay)
{
    auto policy = makeReplPolicy(GetParam());
    const unsigned ways = 8;
    std::vector<std::uint8_t> st(policy->stateBytes(ways), 0);
    policy->reset(st.data(), ways);
    Rng rng(1);
    for (int i = 0; i < 200; ++i) {
        unsigned v = policy->victim(st.data(), ways, rng);
        ASSERT_LT(v, ways);
        policy->onFill(st.data(), ways, v);
    }
}

TEST_P(ReplacementTest, MostRecentlyUsedIsNotImmediateVictim)
{
    // Recency property all non-random policies share: right after a
    // hit, the touched way must not be the next victim (ways >= 2).
    if (GetParam() == ReplKind::Random)
        GTEST_SKIP() << "random victims have no recency guarantee";
    auto policy = makeReplPolicy(GetParam());
    const unsigned ways = 8;
    std::vector<std::uint8_t> st(policy->stateBytes(ways), 0);
    policy->reset(st.data(), ways);
    Rng rng(2);
    // Warm every way.
    for (unsigned w = 0; w < ways; ++w)
        policy->onFill(st.data(), ways, w);
    for (unsigned touch = 0; touch < ways; ++touch) {
        policy->onHit(st.data(), ways, touch);
        EXPECT_NE(policy->victim(st.data(), ways, rng), touch);
    }
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, ReplacementTest,
                         ::testing::Values(ReplKind::LRU,
                                           ReplKind::TreePLRU,
                                           ReplKind::SRRIP,
                                           ReplKind::Random),
                         [](const auto &info) {
                             return replKindName(info.param);
                         });

TEST(Lru, ExactEvictionOrder)
{
    LruPolicy lru;
    const unsigned ways = 4;
    std::vector<std::uint8_t> st(lru.stateBytes(ways), 0);
    lru.reset(st.data(), ways);
    Rng rng(3);
    // Fill 0,1,2,3 in order; victim should then be 0, and after
    // touching 0, victim should be 1.
    for (unsigned w = 0; w < ways; ++w)
        lru.onFill(st.data(), ways, w);
    EXPECT_EQ(lru.victim(st.data(), ways, rng), 0u);
    lru.onHit(st.data(), ways, 0);
    EXPECT_EQ(lru.victim(st.data(), ways, rng), 1u);
    lru.onHit(st.data(), ways, 1);
    EXPECT_EQ(lru.victim(st.data(), ways, rng), 2u);
}

TEST(Srrip, InsertedLineEvictedBeforePromotedLine)
{
    SrripPolicy srrip;
    const unsigned ways = 4;
    std::vector<std::uint8_t> st(srrip.stateBytes(ways), 0);
    srrip.reset(st.data(), ways);
    Rng rng(4);
    for (unsigned w = 0; w < ways; ++w)
        srrip.onFill(st.data(), ways, w);
    // Promote ways 1..3; way 0 stays at insertion RRPV and must be
    // the victim.
    for (unsigned w = 1; w < ways; ++w)
        srrip.onHit(st.data(), ways, w);
    EXPECT_EQ(srrip.victim(st.data(), ways, rng), 0u);
}

TEST(ReplFactory, NamesRoundTrip)
{
    for (ReplKind k : {ReplKind::LRU, ReplKind::TreePLRU, ReplKind::SRRIP,
                       ReplKind::Random}) {
        auto p = makeReplPolicy(k);
        EXPECT_EQ(p->kind(), k);
        EXPECT_STRNE(replKindName(k), "?");
    }
}

// --------------------------------------------------------- slice hash

TEST(SliceHash, OpaqueCoversAllSlicesRoughlyUniformly)
{
    OpaqueSliceHash hash(28, 0x1234);
    std::map<unsigned, unsigned> counts;
    Rng rng(5);
    const int n = 28000;
    for (int i = 0; i < n; ++i)
        counts[hash.slice(lineAlign(rng.next()))]++;
    ASSERT_EQ(counts.size(), 28u);
    for (auto [slice, count] : counts)
        EXPECT_NEAR(count, n / 28, n / 28 * 0.25) << "slice " << slice;
}

TEST(SliceHash, DeterministicAndSaltDependent)
{
    OpaqueSliceHash a(28, 1), b(28, 1), c(28, 2);
    bool differs = false;
    Rng rng(6);
    for (int i = 0; i < 100; ++i) {
        Addr pa = lineAlign(rng.next());
        EXPECT_EQ(a.slice(pa), b.slice(pa));
        differs |= a.slice(pa) != c.slice(pa);
    }
    EXPECT_TRUE(differs);
}

TEST(SliceHash, PageOffsetDoesNotDetermineSlice)
{
    // Partial control of low PA bits must not narrow the slice
    // (Section 2.2.1's "complex addressing" property).
    OpaqueSliceHash hash(28, 99);
    std::set<unsigned> slices;
    for (Addr frame = 0; frame < 256; ++frame)
        slices.insert(hash.slice((frame << kPageBits) | 0x440));
    EXPECT_GT(slices.size(), 20u);
}

TEST(SliceHash, XorMatrixParityAndSliceCount)
{
    // One mask per slice bit; parity of the masked PA selects it.
    XorMatrixSliceHash hash({0x1111111111111140ull,
                             0x2222222222222280ull});
    EXPECT_EQ(hash.slices(), 4u);
    for (Addr pa : {0x0ull, 0x40ull, 0x80ull, 0xc0ull, 0x1234000ull}) {
        unsigned s = hash.slice(pa);
        EXPECT_LT(s, 4u);
        unsigned bit0 = __builtin_popcountll(pa &
                        0x1111111111111140ull) & 1;
        unsigned bit1 = __builtin_popcountll(pa &
                        0x2222222222222280ull) & 1;
        EXPECT_EQ(s, bit0 | (bit1 << 1));
    }
}

// -------------------------------------------------------- cache array

TEST(CacheArray, FillsInvalidWaysFirst)
{
    CacheArray arr(CacheGeometry{4, 8, 1}, ReplKind::LRU);
    Rng rng(7);
    for (unsigned i = 0; i < 4; ++i) {
        FillResult fr = arr.fill(0, CacheLine{0x1000ull + i * 0x4000,
                                 CohState::Shared, 0}, rng);
        EXPECT_FALSE(fr.evicted) << "way " << i;
    }
    EXPECT_EQ(arr.validCount(0), 4u);
    FillResult fr = arr.fill(0, CacheLine{0x9000, CohState::Shared, 0},
                             rng);
    EXPECT_TRUE(fr.evicted);
    EXPECT_EQ(arr.validCount(0), 4u);
}

TEST(CacheArray, LruEvictionOrderThroughFills)
{
    CacheArray arr(CacheGeometry{2, 8, 1}, ReplKind::LRU);
    Rng rng(8);
    arr.fill(3, CacheLine{0x10c0, CohState::Shared, 0}, rng);
    arr.fill(3, CacheLine{0x20c0, CohState::Shared, 0}, rng);
    // Next fill evicts the oldest (0x10c0).
    FillResult fr = arr.fill(3, CacheLine{0x30c0, CohState::Shared, 0},
                             rng);
    ASSERT_TRUE(fr.evicted);
    EXPECT_EQ(fr.victim.lineAddr, 0x10c0u);
    // Touch 0x20c0, then the next eviction must be 0x30c0.
    auto way = arr.findWay(3, 0x20c0);
    ASSERT_TRUE(way.has_value());
    arr.onHit(3, *way);
    fr = arr.fill(3, CacheLine{0x40c0, CohState::Shared, 0}, rng);
    ASSERT_TRUE(fr.evicted);
    EXPECT_EQ(fr.victim.lineAddr, 0x30c0u);
}

TEST(CacheArray, FindInvalidateRoundTrip)
{
    CacheArray arr(CacheGeometry{4, 8, 2}, ReplKind::LRU);
    Rng rng(9);
    const unsigned set = arr.flatSet(1, 5);
    arr.fill(set, CacheLine{0xabc140, CohState::Exclusive, 2}, rng);
    auto way = arr.findWay(set, 0xabc140);
    ASSERT_TRUE(way.has_value());
    EXPECT_EQ(arr.line(set, *way).coh, CohState::Exclusive);
    EXPECT_EQ(arr.line(set, *way).owner, 2);

    auto victim = arr.invalidateLine(set, 0xabc140);
    ASSERT_TRUE(victim.has_value());
    EXPECT_EQ(victim->lineAddr, 0xabc140u);
    EXPECT_FALSE(arr.findWay(set, 0xabc140).has_value());
    EXPECT_FALSE(arr.invalidateLine(set, 0xabc140).has_value());
}

TEST(CacheArray, SetLineStateUpdatesInPlace)
{
    CacheArray arr(CacheGeometry{2, 4, 1}, ReplKind::LRU);
    Rng rng(10);
    arr.fill(0, CacheLine{0x40, CohState::Exclusive, 0}, rng);
    auto way = arr.findWay(0, 0x40);
    ASSERT_TRUE(way.has_value());
    arr.setLineState(0, *way, CohState::Shared, 1);
    EXPECT_EQ(arr.line(0, *way).coh, CohState::Shared);
    EXPECT_EQ(arr.line(0, *way).owner, 1);
}

TEST(CacheArray, FlushAllInvalidatesEverything)
{
    CacheArray arr(CacheGeometry{4, 8, 1}, ReplKind::LRU);
    Rng rng(11);
    for (unsigned s = 0; s < 8; ++s)
        arr.fill(s, CacheLine{(0x100ull + s) << kLineBits,
                 CohState::Shared, 0}, rng);
    arr.flushAll();
    for (unsigned s = 0; s < 8; ++s)
        EXPECT_EQ(arr.validCount(s), 0u);
}

} // namespace
} // namespace llcf

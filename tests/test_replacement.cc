/**
 * @file
 * Property tests for the four ReplPolicy kinds: exact LRU eviction
 * order against a reference recency model, Tree-PLRU tree invariants
 * (touched-way protection, full-coverage victim cycling), SRRIP
 * promotion/aging semantics, and Random's statelessness plus
 * determinism under a fixed seed.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <set>
#include <vector>

#include "common/rng.hh"
#include "repl_policy.hh"

namespace llcf {
namespace {

const unsigned kWayCounts[] = {2, 4, 8, 11, 12, 16};

std::vector<std::uint8_t>
freshState(const ReplPolicy &p, unsigned ways)
{
    std::vector<std::uint8_t> st(std::max<std::size_t>(
        p.stateBytes(ways), 1));
    p.reset(st.data(), ways);
    return st;
}

// ----------------------------------------------------------------- LRU

TEST(LruPolicy, MatchesReferenceRecencyModel)
{
    LruPolicy p;
    Rng rng(42), vic_rng(43);
    for (unsigned ways : kWayCounts) {
        auto st = freshState(p, ways);
        // Reference model: recency list, most recent at the front.
        // reset() seeds ages as way 0 = LRU ... way (ways-1) = MRU.
        std::list<unsigned> order;
        for (unsigned w = 0; w < ways; ++w)
            order.push_front(w);

        for (int step = 0; step < 2000; ++step) {
            const unsigned expected = order.back();
            EXPECT_EQ(p.victim(st.data(), ways, vic_rng), expected)
                << ways << " ways, step " << step;
            if (rng.nextBool(0.5)) {
                // Hit a random way.
                const unsigned w = static_cast<unsigned>(
                    rng.nextBelow(ways));
                p.onHit(st.data(), ways, w);
                order.remove(w);
                order.push_front(w);
            } else {
                // Fill the victim way, as the cache array does.
                p.onFill(st.data(), ways, expected);
                order.remove(expected);
                order.push_front(expected);
            }
        }
    }
}

// ----------------------------------------------------------- Tree-PLRU

TEST(TreePlruPolicy, VictimNeverEqualsJustTouchedWayForPow2)
{
    // Full binary tree: after touching a way, every node on its path
    // points away, so the victim walk must diverge.  (With non-pow2
    // ways the out-of-range clamp can land back on the touched way —
    // a documented simplification; see NonPow2VictimStaysInRange.)
    TreePlruPolicy p;
    Rng rng(7), vic_rng(8);
    for (unsigned ways : {2u, 4u, 8u, 16u}) {
        auto st = freshState(p, ways);
        for (int step = 0; step < 2000; ++step) {
            const unsigned w = static_cast<unsigned>(
                rng.nextBelow(ways));
            p.onHit(st.data(), ways, w);
            EXPECT_NE(p.victim(st.data(), ways, vic_rng), w)
                << ways << " ways, step " << step;
        }
    }
}

TEST(TreePlruPolicy, FillVictimCycleCoversAllWaysForPow2)
{
    // For power-of-two associativity, W consecutive victim+fill pairs
    // must touch every way exactly once, from any reachable state —
    // the pseudo-LRU full-coverage guarantee.
    TreePlruPolicy p;
    Rng rng(11), vic_rng(12);
    for (unsigned ways : {2u, 4u, 8u, 16u}) {
        auto st = freshState(p, ways);
        for (int round = 0; round < 50; ++round) {
            // Scramble into an arbitrary reachable state.
            for (int i = 0; i < 5; ++i) {
                p.onHit(st.data(), ways,
                        static_cast<unsigned>(rng.nextBelow(ways)));
            }
            std::set<unsigned> seen;
            for (unsigned i = 0; i < ways; ++i) {
                const unsigned v = p.victim(st.data(), ways, vic_rng);
                ASSERT_LT(v, ways);
                EXPECT_TRUE(seen.insert(v).second)
                    << ways << " ways: way " << v << " evicted twice "
                    << "within one generation";
                p.onFill(st.data(), ways, v);
            }
            EXPECT_EQ(seen.size(), ways);
        }
    }
}

TEST(TreePlruPolicy, NonPow2VictimStaysInRange)
{
    TreePlruPolicy p;
    Rng rng(13), vic_rng(14);
    for (unsigned ways : {3u, 11u, 12u}) {
        auto st = freshState(p, ways);
        for (int step = 0; step < 2000; ++step) {
            const unsigned v = p.victim(st.data(), ways, vic_rng);
            EXPECT_LT(v, ways);
            p.onFill(st.data(), ways,
                     static_cast<unsigned>(rng.nextBelow(ways)));
        }
    }
}

// --------------------------------------------------------------- SRRIP

TEST(SrripPolicy, ColdSetEvictsLowestIndexAndFillsProtect)
{
    SrripPolicy p;
    Rng vic_rng(21);
    const unsigned ways = 8;
    auto st = freshState(p, ways);
    // All ways start at RRPV max: way 0 is the first victim.
    EXPECT_EQ(p.victim(st.data(), ways, vic_rng), 0u);
    // A fill inserts with a long re-reference interval (max-1), so a
    // freshly filled way is not the next victim while aged ways exist.
    p.onFill(st.data(), ways, 0);
    EXPECT_EQ(p.victim(st.data(), ways, vic_rng), 1u);
}

TEST(SrripPolicy, HitPromotionOutlivesOneAgingRound)
{
    SrripPolicy p;
    Rng vic_rng(22);
    const unsigned ways = 4;
    auto st = freshState(p, ways);
    for (unsigned w = 0; w < ways; ++w)
        p.onFill(st.data(), ways, w); // all at RRPV 2
    p.onHit(st.data(), ways, 2);      // way 2 promoted to RRPV 0

    // Aging raises everyone until some way reaches max; way 2 stays
    // below max through that round, so it is not the victim.
    const unsigned v = p.victim(st.data(), ways, vic_rng);
    EXPECT_NE(v, 2u);
    EXPECT_EQ(v, 0u); // ties broken by lowest index

    // Evicting + refilling the victims repeatedly must eventually
    // come back to way 2 (no starvation).
    std::set<unsigned> evicted{v};
    p.onFill(st.data(), ways, v);
    for (int i = 0; i < 16 && evicted.size() < ways; ++i) {
        const unsigned next = p.victim(st.data(), ways, vic_rng);
        evicted.insert(next);
        p.onFill(st.data(), ways, next);
    }
    EXPECT_EQ(evicted.size(), ways);
}

TEST(SrripPolicy, AgingTerminates)
{
    // victim() must return even when every way was just promoted.
    SrripPolicy p;
    Rng vic_rng(23);
    const unsigned ways = 12;
    auto st = freshState(p, ways);
    for (unsigned w = 0; w < ways; ++w) {
        p.onFill(st.data(), ways, w);
        p.onHit(st.data(), ways, w);
    }
    EXPECT_LT(p.victim(st.data(), ways, vic_rng), ways);
}

// -------------------------------------------------------------- Random

TEST(RandomPolicy, StatelessAndSeedDeterministic)
{
    RandomPolicy p;
    EXPECT_EQ(p.stateBytes(16), 0u);

    for (unsigned ways : kWayCounts) {
        Rng a(777), b(777), c(778);
        auto st = freshState(p, ways);
        bool diverged = false;
        for (int i = 0; i < 200; ++i) {
            const unsigned va = p.victim(st.data(), ways, a);
            const unsigned vb = p.victim(st.data(), ways, b);
            const unsigned vc = p.victim(st.data(), ways, c);
            EXPECT_EQ(va, vb) << "same seed must replay identically";
            diverged |= va != vc;
        }
        if (ways > 1) {
            EXPECT_TRUE(diverged) << "distinct seeds should differ";
        }
    }
}

TEST(RandomPolicy, RoughlyUniformVictims)
{
    RandomPolicy p;
    const unsigned ways = 8;
    Rng rng(31415);
    auto st = freshState(p, ways);
    std::vector<unsigned> counts(ways, 0);
    const int n = 8000;
    for (int i = 0; i < n; ++i)
        counts[p.victim(st.data(), ways, rng)]++;
    for (unsigned w = 0; w < ways; ++w) {
        EXPECT_NEAR(counts[w], n / ways, n / ways * 0.25)
            << "way " << w;
    }
}

// -------------------------------------------------------------- common

TEST(ReplPolicy, FactoryRoundTripsKind)
{
    for (ReplKind kind : kAllReplKinds) {
        auto p = makeReplPolicy(kind);
        ASSERT_NE(p, nullptr);
        EXPECT_EQ(p->kind(), kind);
    }
}

TEST(ReplPolicy, ParseNamesRoundTrip)
{
    for (ReplKind kind : kAllReplKinds) {
        ReplKind parsed;
        ASSERT_TRUE(parseReplKind(replKindName(kind), parsed));
        EXPECT_EQ(parsed, kind);
    }
    ReplKind out;
    EXPECT_TRUE(parseReplKind("treeplru", out));
    EXPECT_EQ(out, ReplKind::TreePLRU);
    EXPECT_FALSE(parseReplKind("mru", out));
    EXPECT_FALSE(parseReplKind("", out));
}

} // namespace
} // namespace llcf

/**
 * @file
 * Tests for the eviction-set toolkit below the pruning algorithms:
 * the TestEviction primitives (exactness at the W-threshold, noise
 * susceptibility), candidate pools, offset shifting, and L2-driven
 * candidate filtering.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "evset/candidate.hh"
#include "evset/filter.hh"
#include "noise/profile.hh"

namespace llcf {
namespace {

NoiseProfile
silent()
{
    NoiseProfile p = quiescentLocal();
    p.accessesPerSetPerMs = 0.0;
    p.latencyJitter = 0.0;
    p.interruptRate = 0.0;
    return p;
}

class EvsetPrimitiveTest : public ::testing::Test
{
  protected:
    EvsetPrimitiveTest()
        : machine_(tinyTest(), silent(), 21),
          session_(machine_, AttackerConfig{}),
          pool_(session_, CandidatePool::requiredPages(machine_))
    {
    }

    /** Candidates arranged so positions [at, at+k) are congruent
     *  with the returned target and nothing before them is. */
    std::pair<Addr, std::vector<Addr>>
    arranged(unsigned line_index, std::size_t at, std::size_t k)
    {
        auto cands = pool_.candidatesAt(line_index);
        const Addr ta = cands.back();
        cands.pop_back();
        const unsigned target = machine_.sharedSetOf(ta);
        std::vector<Addr> cong, non;
        for (Addr a : cands) {
            (machine_.sharedSetOf(a) == target ? cong : non)
                .push_back(a);
        }
        EXPECT_GE(cong.size(), k);
        EXPECT_GE(non.size(), at);
        std::vector<Addr> arr(non.begin(), non.begin() + at);
        arr.insert(arr.end(), cong.begin(), cong.begin() + k);
        arr.insert(arr.end(), non.begin() + at, non.end());
        return {ta, arr};
    }

    Machine machine_;
    AttackSession session_;
    CandidatePool pool_;
};

TEST_F(EvsetPrimitiveTest, LlcTestExactAtThreshold)
{
    const unsigned w = machine_.config().llc.ways;
    auto [ta, arr] = arranged(3, 40, w);
    // One fewer than W congruent: never evicts; exactly W: evicts.
    EXPECT_FALSE(session_.testEvictionLlcParallel(ta, arr, 40 + w - 1));
    EXPECT_TRUE(session_.testEvictionLlcParallel(ta, arr, 40 + w));
    // Monotone beyond the threshold.
    EXPECT_TRUE(session_.testEvictionLlcParallel(ta, arr, arr.size()));
    // Stable under repetition (the regression that motivated the
    // flush-then-access discipline).
    for (int r = 0; r < 5; ++r) {
        EXPECT_TRUE(session_.testEvictionLlcParallel(ta, arr, 40 + w));
        EXPECT_FALSE(session_.testEvictionLlcParallel(ta, arr,
                                                      40 + w - 1));
    }
}

TEST_F(EvsetPrimitiveTest, SfTestRequiresSfWays)
{
    const unsigned w_sf = machine_.config().sf.ways;
    auto [ta, arr] = arranged(5, 30, w_sf);
    std::vector<Addr> exact(arr.begin() + 30, arr.begin() + 30 + w_sf);
    EXPECT_TRUE(session_.testEvictionSfParallel(ta, exact,
                                                exact.size()));
    std::vector<Addr> short_set(exact.begin(), exact.end() - 1);
    EXPECT_FALSE(session_.testEvictionSfParallel(ta, short_set,
                                                 short_set.size()));
}

TEST_F(EvsetPrimitiveTest, CloudNoiseCausesFalsePositives)
{
    // Under heavy tenant noise, near-tipping-point tests must show a
    // non-trivial false-positive rate (the paper's Section 4.3).  The
    // tiny machine's tests are ~30x shorter than full-scale ones, so
    // the rate is amplified to keep the trial count manageable.
    Machine noisy(tinyTest(), customCloud(400.0), 23);
    AttackSession s(noisy, AttackerConfig{});
    CandidatePool pool(s, CandidatePool::requiredPages(noisy));
    auto cands = pool.candidatesAt(2);
    const Addr ta = cands.back();
    cands.pop_back();
    const unsigned target = noisy.sharedSetOf(ta);
    std::vector<Addr> cong, non;
    for (Addr a : cands)
        (noisy.sharedSetOf(a) == target ? cong : non).push_back(a);
    const unsigned w = noisy.config().llc.ways;
    ASSERT_GE(cong.size(), w);
    std::vector<Addr> arr(non.begin(), non.end());
    arr.insert(arr.begin() + 60, cong.begin(), cong.begin() + w);

    int fp = 0;
    const int trials = 150;
    for (int i = 0; i < trials; ++i) {
        if (s.testEvictionLlcParallel(ta, arr, 60 + w - 1))
            ++fp;
    }
    EXPECT_GT(fp, 0);
    EXPECT_LT(fp, trials / 2);
}

TEST_F(EvsetPrimitiveTest, TestCountTracksInvocations)
{
    auto [ta, arr] = arranged(1, 10, machine_.config().llc.ways);
    const auto before = session_.testCount();
    session_.testEvictionLlcParallel(ta, arr, 20);
    session_.testEvictionL2Parallel(ta, arr, 20);
    EXPECT_EQ(session_.testCount(), before + 2);
}

TEST(CandidatePool, SizingMatchesPaperFormula)
{
    Machine m(skylakeSp(28), silent(), 25);
    // 3 * U * W = 3 * 896 * 12 = 32,256 for a 28-slice Skylake-SP.
    EXPECT_EQ(CandidatePool::requiredPages(m), 32256u);
}

TEST(CandidatePool, CandidatesHaveRequestedOffsetAndAreUnique)
{
    Machine m(tinyTest(), silent(), 27);
    AttackSession s(m, AttackerConfig{});
    CandidatePool pool(s, 64);
    for (unsigned li : {0u, 17u, 63u}) {
        auto cands = pool.candidatesAt(li);
        ASSERT_EQ(cands.size(), 64u);
        std::sort(cands.begin(), cands.end());
        EXPECT_EQ(std::unique(cands.begin(), cands.end()), cands.end());
        for (Addr a : pool.candidatesAt(li))
            EXPECT_EQ(pageLineIndex(a), li);
    }
}

TEST(CandidatePool, EveryTargetSetIsCoveredWithMargin)
{
    // With 3*U*W pages, every SF set reachable at an offset should
    // have at least W congruent candidates (whp).
    Machine m(tinyTest(), silent(), 29);
    AttackSession s(m, AttackerConfig{});
    CandidatePool pool(s, CandidatePool::requiredPages(m));
    auto cands = pool.candidatesAt(9);
    std::map<unsigned, unsigned> per_set;
    for (Addr a : cands)
        per_set[m.sharedSetOf(a)]++;
    EXPECT_EQ(per_set.size(), m.config().sf.uncertainty());
    for (auto [set, count] : per_set)
        EXPECT_GE(count, m.config().sf.ways) << "set " << set;
}

TEST(CandidatePool, ShiftPreservesPageAndChangesOffset)
{
    Machine m(tinyTest(), silent(), 31);
    AttackSession s(m, AttackerConfig{});
    CandidatePool pool(s, 16);
    auto at0 = pool.candidatesAt(0);
    auto at9 = CandidatePool::shiftToLineIndex(at0, 9);
    ASSERT_EQ(at9.size(), at0.size());
    for (std::size_t i = 0; i < at0.size(); ++i) {
        EXPECT_EQ(at9[i] & ~static_cast<Addr>(kPageBytes - 1),
                  at0[i] & ~static_cast<Addr>(kPageBytes - 1));
        EXPECT_EQ(pageLineIndex(at9[i]), 9u);
    }
}

TEST(CandidatePool, ShiftPreservesL2Congruence)
{
    // The Section 5.3.1 property: same-page shifts keep L2 classes.
    Machine m(tinyTest(), silent(), 33);
    AttackSession s(m, AttackerConfig{});
    CandidatePool pool(s, 128);
    auto at0 = pool.candidatesAt(0);
    auto at5 = CandidatePool::shiftToLineIndex(at0, 5);
    for (std::size_t i = 0; i < at0.size(); ++i) {
        for (std::size_t j = i + 1; j < at0.size(); ++j) {
            const bool cong0 = m.l2SetOf(at0[i]) == m.l2SetOf(at0[j]);
            const bool cong5 = m.l2SetOf(at5[i]) == m.l2SetOf(at5[j]);
            EXPECT_EQ(cong0, cong5);
        }
    }
}

class FilterTest : public ::testing::Test
{
  protected:
    FilterTest()
        : machine_(tinyTest(), silent(), 35),
          session_(machine_, AttackerConfig{}),
          pool_(session_, CandidatePool::requiredPages(machine_)),
          filter_(session_)
    {
    }

    Machine machine_;
    AttackSession session_;
    CandidatePool pool_;
    CandidateFilter filter_;
};

TEST_F(FilterTest, L2EvictionSetIsCongruent)
{
    auto cands = pool_.candidatesAt(4);
    const Addr ta = cands.back();
    cands.pop_back();
    auto evset = filter_.buildL2EvictionSet(
        ta, cands, machine_.now() + secToCycles(5.0));
    ASSERT_TRUE(evset.has_value());
    EXPECT_EQ(evset->size(), machine_.config().l2.ways);
    for (Addr a : *evset)
        EXPECT_EQ(machine_.l2SetOf(a), machine_.l2SetOf(ta));
}

TEST_F(FilterTest, FilterKeepsExactlyTheL2Class)
{
    auto cands = pool_.candidatesAt(4);
    const Addr ta = cands.back();
    cands.pop_back();
    auto evset = filter_.buildL2EvictionSet(
        ta, cands, machine_.now() + secToCycles(5.0));
    ASSERT_TRUE(evset.has_value());
    auto kept = filter_.filter(*evset, cands);
    // Everything kept must be L2-congruent with ta; nearly all
    // L2-congruent candidates must be kept.
    unsigned cong_total = 0;
    for (Addr a : cands)
        cong_total += machine_.l2SetOf(a) == machine_.l2SetOf(ta);
    for (Addr a : kept)
        EXPECT_EQ(machine_.l2SetOf(a), machine_.l2SetOf(ta));
    EXPECT_GE(kept.size(), cong_total * 9 / 10);
    // Filtering shrinks the pool by roughly U_L2.
    EXPECT_LT(kept.size(), cands.size() / (machine_.config()
              .l2.uncertainty()) * 2 + machine_.config().l2.ways);
}

TEST_F(FilterTest, PartitionCoversPoolWithDisjointClasses)
{
    auto cands = pool_.candidatesAt(6);
    const std::size_t total = cands.size();
    auto classes = filter_.partition(std::move(cands),
                                     machine_.now() +
                                     secToCycles(20.0));
    EXPECT_EQ(classes.size(), machine_.config().l2.uncertainty());
    std::set<Addr> seen;
    std::size_t members = 0;
    for (const auto &cls : classes) {
        for (Addr a : cls.members) {
            EXPECT_TRUE(seen.insert(a).second) << "overlapping classes";
            ++members;
            EXPECT_EQ(machine_.l2SetOf(a),
                      machine_.l2SetOf(cls.members.front()));
        }
    }
    EXPECT_GE(members, total * 9 / 10);
}

TEST_F(FilterTest, ShiftClassesKeepsStructure)
{
    auto classes = filter_.partition(pool_.candidatesAt(0),
                                     machine_.now() +
                                     secToCycles(20.0));
    ASSERT_FALSE(classes.empty());
    auto shifted = CandidateFilter::shiftClasses(classes, 11);
    ASSERT_EQ(shifted.size(), classes.size());
    for (std::size_t c = 0; c < classes.size(); ++c) {
        ASSERT_EQ(shifted[c].members.size(), classes[c].members.size());
        for (Addr a : shifted[c].members)
            EXPECT_EQ(pageLineIndex(a), 11u);
        // Still one L2 class.
        for (Addr a : shifted[c].members)
            EXPECT_EQ(machine_.l2SetOf(a),
                      machine_.l2SetOf(shifted[c].members.front()));
    }
}

} // namespace
} // namespace llcf

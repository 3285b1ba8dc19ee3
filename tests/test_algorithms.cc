/**
 * @file
 * Tests for the pruning algorithms and the construction pipeline:
 * a parameterised sweep proving every algorithm produces minimal,
 * ground-truth-congruent eviction sets (with and without filtering),
 * deadline handling, noise resilience ordering, SF extension, and
 * the bulk builders for PageOffset / WholeSys campaigns.
 */

#include <gtest/gtest.h>

#include <set>

#include "evset/builder.hh"
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

struct AlgoCase
{
    PruneAlgo algo;
    bool filter;
};

std::string
algoCaseName(const ::testing::TestParamInfo<AlgoCase> &info)
{
    return std::string(pruneAlgoName(info.param.algo)) +
           (info.param.filter ? "Filtered" : "Raw");
}

class PruneAlgoTest : public ::testing::TestWithParam<AlgoCase>
{
};

TEST_P(PruneAlgoTest, BuildsValidMinimalSfEvictionSet)
{
    Machine m(tinyTest(), silent(), 43);
    AttackerConfig cfg;
    cfg.seed = 43;
    AttackSession s(m, cfg);
    CandidatePool pool(s, CandidatePool::requiredPages(m));
    auto cands = pool.candidatesAt(12);
    const Addr ta = cands.front();
    cands.erase(cands.begin());

    EvictionSetBuilder builder(s, GetParam().algo, GetParam().filter);
    auto out = builder.buildForTarget(ta, cands);
    ASSERT_TRUE(out.success);
    EXPECT_TRUE(out.groundTruthValid);
    EXPECT_EQ(out.evset.llcSet.size(), m.config().llc.ways);
    EXPECT_EQ(out.evset.sfSet.size(), m.config().sf.ways);
    // Minimal: every member congruent, no duplicates.
    std::set<Addr> uniq(out.evset.sfSet.begin(), out.evset.sfSet.end());
    EXPECT_EQ(uniq.size(), out.evset.sfSet.size());
    for (Addr a : out.evset.sfSet)
        EXPECT_EQ(m.sharedSetOf(a), m.sharedSetOf(ta));
    EXPECT_GT(out.elapsed, 0u);
    EXPECT_GE(out.attempts, 1u);
}

TEST_P(PruneAlgoTest, SucceedsUnderModerateNoise)
{
    // A mildly noisy environment (about a tenth of Cloud Run) should
    // not break any algorithm given the retry budget.
    Machine m(tinyTest(), customCloud(1.0), 47);
    AttackerConfig cfg;
    cfg.seed = 47;
    AttackSession s(m, cfg);
    CandidatePool pool(s, CandidatePool::requiredPages(m));
    auto cands = pool.candidatesAt(3);
    const Addr ta = cands.front();
    cands.erase(cands.begin());
    EvictionSetBuilder builder(s, GetParam().algo, GetParam().filter);
    auto out = builder.buildForTarget(ta, cands);
    EXPECT_TRUE(out.success);
    EXPECT_TRUE(out.groundTruthValid);
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgos, PruneAlgoTest,
    ::testing::Values(AlgoCase{PruneAlgo::Gt, false},
                      AlgoCase{PruneAlgo::GtOp, false},
                      AlgoCase{PruneAlgo::Ps, false},
                      AlgoCase{PruneAlgo::PsOp, false},
                      AlgoCase{PruneAlgo::BinS, false},
                      AlgoCase{PruneAlgo::Gt, true},
                      AlgoCase{PruneAlgo::GtOp, true},
                      AlgoCase{PruneAlgo::Ps, true},
                      AlgoCase{PruneAlgo::PsOp, true},
                      AlgoCase{PruneAlgo::BinS, true}),
    algoCaseName);

TEST(PruneAlgos, FailsCleanlyWithoutEnoughCongruentCandidates)
{
    Machine m(tinyTest(), silent(), 53);
    AttackSession s(m, AttackerConfig{});
    CandidatePool pool(s, CandidatePool::requiredPages(m));
    auto cands = pool.candidatesAt(7);
    const Addr ta = cands.front();
    // Strip out all but W-1 congruent candidates.
    const unsigned target = m.sharedSetOf(ta);
    std::vector<Addr> starved;
    unsigned kept_cong = 0;
    for (std::size_t i = 1; i < cands.size(); ++i) {
        if (m.sharedSetOf(cands[i]) == target) {
            if (kept_cong + 1 >= m.config().llc.ways)
                continue;
            ++kept_cong;
        }
        starved.push_back(cands[i]);
    }
    for (auto algo : {PruneAlgo::Gt, PruneAlgo::BinS}) {
        auto pruner = makePruner(algo);
        auto pr = pruner->prune(s, ta, starved, m.config().llc.ways,
                                m.now() + msToCycles(50.0));
        EXPECT_FALSE(pr.success) << pruneAlgoName(algo);
    }
}

TEST(PruneAlgos, DeadlineIsHonoured)
{
    Machine m(tinyTest(), silent(), 59);
    AttackSession s(m, AttackerConfig{});
    CandidatePool pool(s, CandidatePool::requiredPages(m));
    auto cands = pool.candidatesAt(8);
    const Addr ta = cands.front();
    cands.erase(cands.begin());
    auto pruner = makePruner(PruneAlgo::BinS);
    // An absurdly tight deadline: must fail, and must not run long.
    const Cycles start = m.now();
    auto pr = pruner->prune(s, ta, cands, m.config().llc.ways,
                            start + 100);
    EXPECT_FALSE(pr.success);
    EXPECT_LT(m.now() - start, msToCycles(5.0));
}

TEST(PruneAlgos, FactoryKindsRoundTrip)
{
    for (auto algo : {PruneAlgo::Gt, PruneAlgo::GtOp, PruneAlgo::Ps,
                      PruneAlgo::PsOp, PruneAlgo::BinS}) {
        EXPECT_EQ(makePruner(algo)->kind(), algo);
        EXPECT_STRNE(pruneAlgoName(algo), "?");
    }
}

TEST(Verify, AcceptsRealAndRejectsFakeEvictionSets)
{
    Machine m(tinyTest(), silent(), 61);
    AttackSession s(m, AttackerConfig{});
    CandidatePool pool(s, CandidatePool::requiredPages(m));
    auto cands = pool.candidatesAt(10);
    const Addr ta = cands.front();
    const unsigned target = m.sharedSetOf(ta);
    std::vector<Addr> real, fake;
    for (std::size_t i = 1; i < cands.size(); ++i) {
        if (m.sharedSetOf(cands[i]) == target) {
            if (real.size() < m.config().llc.ways)
                real.push_back(cands[i]);
        } else if (fake.size() < m.config().llc.ways) {
            fake.push_back(cands[i]);
        }
    }
    ASSERT_EQ(real.size(), m.config().llc.ways);
    EXPECT_TRUE(verifyEvictionSet(s, ta, real));
    EXPECT_FALSE(verifyEvictionSet(s, ta, fake));
}

TEST(Builder, PageOffsetCampaignCoversAllSets)
{
    Machine m(tinyTest(), silent(), 67);
    AttackerConfig cfg;
    cfg.seed = 67;
    cfg.evsetBudget = msToCycles(100.0);
    AttackSession s(m, cfg);
    CandidatePool pool(s, CandidatePool::requiredPages(m));
    EvictionSetBuilder builder(s, PruneAlgo::BinS, true);
    auto out = builder.buildAtLineIndex(pool, 14);
    EXPECT_EQ(out.expectedSets, m.config().sf.uncertainty());
    EXPECT_GE(out.successRate(), 0.85);
    // Every returned set valid and distinct targets map to distinct
    // shared sets.
    std::set<unsigned> sets;
    for (const auto &e : out.evsets)
        sets.insert(m.sharedSetOf(e.target));
    EXPECT_EQ(sets.size(), static_cast<std::size_t>(out.validSets));
}

TEST(Builder, WholeSystemSubsetCampaign)
{
    Machine m(tinyTest(), silent(), 71);
    AttackerConfig cfg;
    cfg.seed = 71;
    cfg.evsetBudget = msToCycles(100.0);
    AttackSession s(m, cfg);
    CandidatePool pool(s, CandidatePool::requiredPages(m));
    EvictionSetBuilder builder(s, PruneAlgo::BinS, true);
    auto out = builder.buildWholeSystem(pool, {0, 13, 40});
    EXPECT_EQ(out.expectedSets, m.config().sf.uncertainty() * 3);
    EXPECT_GE(out.successRate(), 0.8);
    // Offsets must match the requested line indices.
    for (const auto &e : out.evsets) {
        const unsigned li = pageLineIndex(e.target);
        EXPECT_TRUE(li == 0 || li == 13 || li == 40);
    }
}

TEST(Builder, UnfilteredBulkAlsoWorks)
{
    Machine m(tinyTest(), silent(), 73);
    AttackerConfig cfg;
    cfg.seed = 73;
    cfg.evsetBudget = msToCycles(200.0);
    AttackSession s(m, cfg);
    CandidatePool pool(s, CandidatePool::requiredPages(m));
    EvictionSetBuilder builder(s, PruneAlgo::GtOp, false);
    auto out = builder.buildAtLineIndex(pool, 2);
    EXPECT_GE(out.successRate(), 0.8);
}

} // namespace
} // namespace llcf

/**
 * @file
 * The victim-conformance suite: every registered victim family must
 * honour the Execution ground-truth contract the attack layers score
 * against.  Parameterized over VictimFamily so adding a family to
 * makeVictim() automatically subjects it to the same pins:
 *
 *  - iterationStarts strictly monotone, sized bits.size() + 1;
 *  - targetAccesses consistent with the per-window ground-truth bits;
 *  - request quotas clip serveRequests to short (possibly empty)
 *    vectors instead of crashing;
 *  - expectedAccessFrequencyHz within a band of the measured rate;
 *  - identical seeds produce byte-identical executions (the
 *    determinism contract the bench gates rely on);
 *  - key rotation advances epochs exactly every rotateKeys requests.
 */

#include <gtest/gtest.h>

#include "noise/profile.hh"
#include "victim/aes_victim.hh"
#include "victim/victim.hh"

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

/** Every family makeVictim() can construct — keep in sync with the
 *  VictimFamily enum; the suite instantiates once per entry. */
constexpr VictimFamily kAllFamilies[] = {VictimFamily::EcdsaLadder,
                                         VictimFamily::AesTable};

class VictimConformance
    : public ::testing::TestWithParam<VictimFamily>
{
  protected:
    VictimConformance() : machine_(tinyTest(), silent(), 811)
    {
        cfg_.family = GetParam();
        victim_ = makeVictim(machine_, cfg_);
    }

    std::unique_ptr<Victim> freshVictim(std::uint64_t machine_seed,
                                        const VictimConfig &cfg)
    {
        machines_.push_back(std::make_unique<Machine>(
            tinyTest(), silent(), machine_seed));
        return makeVictim(*machines_.back(), cfg);
    }

    Machine machine_;
    VictimConfig cfg_;
    std::unique_ptr<Victim> victim_;
    std::vector<std::unique_ptr<Machine>> machines_;
};

TEST_P(VictimConformance, ReportsItsOwnFamily)
{
    EXPECT_EQ(victim_->family(), GetParam());
    EXPECT_STRNE(victimFamilyName(victim_->family()), "?");
}

TEST_P(VictimConformance, LayoutMatchesConfig)
{
    EXPECT_EQ(pageLineIndex(victim_->targetLinePa()),
              cfg_.targetLineIndex);
    for (Addr d : victim_->decoyPas())
        EXPECT_NE(lineAlign(d), lineAlign(victim_->targetLinePa()));
}

TEST_P(VictimConformance, IterationStartsStrictlyMonotone)
{
    const auto exec = victim_->triggerRequest(machine_.now() + 1000);
    ASSERT_FALSE(exec.bits.empty());
    ASSERT_EQ(exec.iterationStarts.size(), exec.bits.size() + 1);
    for (std::size_t i = 0; i + 1 < exec.iterationStarts.size(); ++i)
        ASSERT_LT(exec.iterationStarts[i], exec.iterationStarts[i + 1])
            << "window " << i;
    EXPECT_EQ(exec.iterationStarts.front(), exec.ladderStart);
    EXPECT_EQ(exec.iterationStarts.back(), exec.ladderEnd);
    EXPECT_LE(exec.requestStart, exec.ladderStart);
    EXPECT_LE(exec.ladderEnd, exec.requestEnd);
}

TEST_P(VictimConformance, TargetAccessesMatchGroundTruthBits)
{
    const auto exec = victim_->triggerRequest(machine_.now() + 1000);
    std::size_t ai = 0;
    for (std::size_t i = 0; i < exec.bits.size(); ++i) {
        const Cycles start = exec.iterationStarts[i];
        const Cycles end = exec.iterationStarts[i + 1];
        unsigned count = 0;
        while (ai < exec.targetAccesses.size() &&
               exec.targetAccesses[ai] < end) {
            ASSERT_GE(exec.targetAccesses[ai], start);
            ++count;
            ++ai;
        }
        switch (victim_->family()) {
          case VictimFamily::EcdsaLadder:
            // Boundary fetch every iteration, midpoint fetch for the
            // monitored bit value (Figure 8).
            EXPECT_EQ(count, exec.bits[i] == 0 ? 2u : 1u)
                << "iteration " << i;
            break;
          case VictimFamily::AesTable:
            // Line-granular leakage: the bit says exactly whether the
            // monitored T-table line was touched in this window.
            EXPECT_EQ(count > 0, exec.bits[i] != 0) << "window " << i;
            break;
        }
    }
    // No target access may fall outside the windowed ladder region.
    for (; ai < exec.targetAccesses.size(); ++ai)
        EXPECT_EQ(exec.targetAccesses[ai], exec.ladderEnd);
}

TEST_P(VictimConformance, QuotaClipsToShortVectors)
{
    VictimConfig limited = cfg_;
    limited.requestQuota = 2;
    auto v = freshVictim(813, limited);
    EXPECT_EQ(v->remainingQuota(), 2u);
    const auto first = v->serveRequests(machines_.back()->now(), 5);
    EXPECT_EQ(first.size(), 2u);
    EXPECT_EQ(v->remainingQuota(), 0u);
    const auto second = v->serveRequests(machines_.back()->now(), 1);
    EXPECT_TRUE(second.empty());
}

TEST_P(VictimConformance, AccessFrequencyWithinExpectedBand)
{
    const auto exec = victim_->triggerRequest(machine_.now() + 1000);
    const double ladder_sec =
        cyclesToSec(exec.ladderEnd - exec.ladderStart);
    ASSERT_GT(ladder_sec, 0.0);
    const double measured =
        static_cast<double>(exec.targetAccesses.size()) / ladder_sec;
    const double expected = victim_->expectedAccessFrequencyHz();
    ASSERT_GT(expected, 0.0);
    // The estimate feeds the scanner's PSD band; the ECDSA ladder
    // averages 1.5 target fetches per iteration against the 2/iter
    // peak estimate, so the band is generous on the low side while
    // still catching an off-by-octave estimate.
    EXPECT_GT(measured, 0.6 * expected);
    EXPECT_LT(measured, 1.4 * expected);
}

TEST_P(VictimConformance, IdenticalSeedsProduceIdenticalExecutions)
{
    auto a = freshVictim(821, cfg_);
    auto b = freshVictim(821, cfg_);
    const auto ea = a->serveRequests(1000, 2);
    const auto eb = b->serveRequests(1000, 2);
    ASSERT_EQ(ea.size(), eb.size());
    for (std::size_t i = 0; i < ea.size(); ++i) {
        EXPECT_EQ(ea[i].requestStart, eb[i].requestStart);
        EXPECT_EQ(ea[i].ladderStart, eb[i].ladderStart);
        EXPECT_EQ(ea[i].ladderEnd, eb[i].ladderEnd);
        EXPECT_EQ(ea[i].requestEnd, eb[i].requestEnd);
        EXPECT_EQ(ea[i].iterationStarts, eb[i].iterationStarts);
        EXPECT_EQ(ea[i].bits, eb[i].bits);
        EXPECT_EQ(ea[i].targetAccesses, eb[i].targetAccesses);
        EXPECT_EQ(ea[i].keyEpoch, eb[i].keyEpoch);
        EXPECT_EQ(ea[i].plaintexts, eb[i].plaintexts);
        EXPECT_EQ(ea[i].nonce, eb[i].nonce);
    }
}

TEST_P(VictimConformance, DifferentSeedsProduceDifferentSecrets)
{
    VictimConfig other = cfg_;
    other.seed = cfg_.seed + 1;
    auto a = freshVictim(823, cfg_);
    auto b = freshVictim(823, other);
    const auto ea = a->triggerRequest(1000);
    const auto eb = b->triggerRequest(1000);
    EXPECT_NE(ea.bits, eb.bits);
}

TEST_P(VictimConformance, KeyRotationAdvancesEpochs)
{
    VictimConfig rot = cfg_;
    rot.rotateKeys = 2;
    auto v = freshVictim(827, rot);
    const auto execs = v->serveRequests(1000, 5);
    ASSERT_EQ(execs.size(), 5u);
    for (std::size_t i = 0; i < execs.size(); ++i)
        EXPECT_EQ(execs[i].keyEpoch, static_cast<unsigned>(i / 2))
            << "request " << i;
    EXPECT_EQ(v->keyEpoch(), 2u);
}

TEST_P(VictimConformance, OpenLoopArrivalsCountAndQueue)
{
    VictimConfig open = cfg_;
    open.arrival.kind = ArrivalKind::Poisson;
    open.arrival.ratePerSec = 500.0;
    auto v = freshVictim(829, open);
    const auto execs = v->serveRequests(1000, 4);
    ASSERT_EQ(execs.size(), 4u);
    EXPECT_EQ(v->arrivalCount(), 4u);
    EXPECT_GE(v->meanQueueDelayCycles(), 0.0);
    // Requests never overlap even when arrivals queue behind service.
    for (std::size_t i = 0; i + 1 < execs.size(); ++i)
        EXPECT_GE(execs[i + 1].requestStart, execs[i].requestEnd);
}

INSTANTIATE_TEST_SUITE_P(
    AllFamilies, VictimConformance,
    ::testing::ValuesIn(kAllFamilies),
    [](const ::testing::TestParamInfo<VictimFamily> &info) {
        return std::string(victimFamilyName(info.param));
    });

// ------------------------------------------------- AES-specific pins

TEST(AesVictimConformance, PlaintextsAccompanyEveryWindow)
{
    Machine m(tinyTest(), silent(), 831);
    VictimConfig cfg;
    cfg.family = VictimFamily::AesTable;
    auto v = makeVictim(m, cfg);
    const auto exec = v->triggerRequest(m.now() + 1000);
    EXPECT_EQ(exec.plaintexts.size(), exec.bits.size());
    EXPECT_EQ(exec.bits.size(), kAesEncryptions);
}

TEST(AesVictimConformance, GroundTruthBitsMatchTableLookups)
{
    Machine m(tinyTest(), silent(), 833);
    VictimConfig cfg;
    cfg.family = VictimFamily::AesTable;
    auto v = makeVictim(m, cfg);
    const auto &aesv = static_cast<const AesTableVictim &>(*v);
    const auto exec = v->triggerRequest(m.now() + 1000);
    // Re-encrypt the attacker-known plaintexts with the ground-truth
    // key: window i's bit must say whether any of the 9 traced rounds
    // touched the monitored line of the monitored table.
    const Aes128 aes(aesv.keyBytes());
    for (std::size_t i = 0; i < exec.plaintexts.size(); ++i) {
        std::vector<Aes128::TableLookup> lookups;
        aes.encryptTrace(exec.plaintexts[i], lookups);
        bool touched = false;
        for (const auto &l : lookups) {
            touched |= l.table == aesv.monitoredTable() &&
                       (l.index >> 4) == aesv.monitoredLine();
        }
        EXPECT_EQ(exec.bits[i] != 0, touched) << "window " << i;
    }
}

} // namespace
} // namespace llcf

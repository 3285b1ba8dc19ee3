/**
 * @file
 * Tests for the victim service: layout and ground truth, the
 * Figure 8 access pattern (boundary fetch every iteration, midpoint
 * fetch for the monitored bit value), request timing / duty cycle,
 * and stream registration with the machine.
 */

#include <gtest/gtest.h>

#include <limits>

#include "noise/profile.hh"
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

class VictimTest : public ::testing::Test
{
  protected:
    VictimTest() : machine_(tinyTest(), silent(), 81)
    {
        cfg_.iterationJitter = 0.0; // deterministic timing for tests
        victim_ = std::make_unique<EcdsaLadderVictim>(machine_, cfg_);
    }

    Machine machine_;
    VictimConfig cfg_;
    std::unique_ptr<EcdsaLadderVictim> victim_;
};

TEST_F(VictimTest, TargetLineHasConfiguredOffset)
{
    EXPECT_EQ(pageLineIndex(victim_->targetLinePa()),
              cfg_.targetLineIndex);
    EXPECT_EQ(victim_->decoyPas().size(), kVictimDecoyLines);
    for (Addr d : victim_->decoyPas())
        EXPECT_NE(lineAlign(d), lineAlign(victim_->targetLinePa()));
}

TEST_F(VictimTest, SignatureVerifiesAndBitsMatchNonce)
{
    auto exec = victim_->triggerRequest(machine_.now() + 1000);
    Ecdsa verifier(Rng(1));
    // The signature must verify against the victim's public key for
    // the signed message (reconstruct the digest from the counter).
    EXPECT_FALSE(exec.record.signature.r.isZero());
    ASSERT_EQ(exec.bits.size(), exec.record.nonce.bitLength() - 1);
}

TEST_F(VictimTest, AccessPatternFollowsFigure8)
{
    auto exec = victim_->triggerRequest(machine_.now() + 1000);
    // iterationStarts has one extra entry (the ladder end).
    ASSERT_EQ(exec.iterationStarts.size(), exec.bits.size() + 1);
    // Count accesses per iteration: 2 when bit==0 (midpointOnZero),
    // 1 when bit==1.
    std::size_t ai = 0;
    for (std::size_t i = 0; i < exec.bits.size(); ++i) {
        const Cycles start = exec.iterationStarts[i];
        const Cycles end = exec.iterationStarts[i + 1];
        unsigned count = 0;
        while (ai < exec.targetAccesses.size() &&
               exec.targetAccesses[ai] < end) {
            EXPECT_GE(exec.targetAccesses[ai], start);
            ++count;
            ++ai;
        }
        EXPECT_EQ(count, exec.bits[i] == 0 ? 2u : 1u)
            << "iteration " << i;
    }
    // One access remains: the closing boundary fetch at ladder exit,
    // matching the extra iterationStarts entry.
    ASSERT_EQ(ai + 1, exec.targetAccesses.size());
    EXPECT_EQ(exec.targetAccesses.back(), exec.ladderEnd);
}

TEST_F(VictimTest, MidpointConventionFlips)
{
    VictimConfig alt = cfg_;
    alt.midpointOnZero = false;
    Machine m2(tinyTest(), silent(), 83);
    EcdsaLadderVictim v2(m2, alt);
    auto exec = v2.triggerRequest(m2.now() + 1000);
    // Now bit==1 iterations get two accesses.
    std::size_t ones = 0, twos = 0;
    std::size_t ai = 0;
    for (std::size_t i = 0; i < exec.bits.size(); ++i) {
        const Cycles end = exec.iterationStarts[i + 1];
        unsigned count = 0;
        while (ai < exec.targetAccesses.size() &&
               exec.targetAccesses[ai] < end) {
            ++count;
            ++ai;
        }
        if (exec.bits[i] == 1) {
            EXPECT_EQ(count, 2u);
            ++twos;
        } else {
            EXPECT_EQ(count, 1u);
            ++ones;
        }
    }
    EXPECT_GT(ones, 0u);
    EXPECT_GT(twos, 0u);
}

TEST_F(VictimTest, IterationDurationMatchesConfig)
{
    auto exec = victim_->triggerRequest(machine_.now());
    for (std::size_t i = 0; i + 1 < exec.iterationStarts.size(); ++i) {
        const Cycles d = exec.iterationStarts[i + 1] -
                         exec.iterationStarts[i];
        EXPECT_EQ(d, cfg_.iterationCycles);
    }
}

TEST_F(VictimTest, DutyCycleShapesRequestWindow)
{
    auto exec = victim_->triggerRequest(machine_.now());
    const double ladder = static_cast<double>(exec.ladderEnd -
                                              exec.ladderStart);
    const double request = static_cast<double>(exec.requestEnd -
                                               exec.requestStart);
    EXPECT_NEAR(ladder / request, cfg_.dutyCycle, 0.03);
}

TEST_F(VictimTest, ExpectedFrequencyMatchesPaper)
{
    // One access per half iteration: 2 GHz / 4850 ~ 0.41 MHz.
    VictimConfig paper;
    paper.iterationCycles = 9700;
    Machine m2(tinyTest(), silent(), 85);
    EcdsaLadderVictim v2(m2, paper);
    EXPECT_NEAR(v2.expectedAccessFrequencyHz(), 0.41e6, 0.02e6);
}

TEST_F(VictimTest, StreamsDriveSfActivity)
{
    auto exec = victim_->triggerRequest(machine_.now() + 500);
    // Let the whole request elapse, touching the target set to sync.
    machine_.idle(exec.requestEnd - machine_.now() + 1000);
    machine_.load(0, victim_->targetLinePa());
    // All scheduled accesses must have been applied.
    EXPECT_GE(machine_.stats().streamAccesses,
              exec.targetAccesses.size());
}

TEST_F(VictimTest, ServeRequestsAreSequentialAndComplete)
{
    auto execs = victim_->serveRequests(machine_.now() + 100, 3);
    ASSERT_EQ(execs.size(), 3u);
    for (std::size_t i = 0; i + 1 < execs.size(); ++i)
        EXPECT_GE(execs[i + 1].requestStart, execs[i].requestEnd);
    for (const auto &e : execs) {
        EXPECT_GT(e.bits.size(), 500u); // ~569 ladder iterations
        EXPECT_LT(e.bits.size(), 575u);
    }
}

TEST_F(VictimTest, NoncesDifferAcrossRequests)
{
    auto execs = victim_->serveRequests(machine_.now(), 2);
    EXPECT_NE(execs[0].record.nonce, execs[1].record.nonce);
    EXPECT_NE(execs[0].bits, execs[1].bits);
}

TEST(VictimConfigDeathTest, RejectsOutOfRangeDutyCycle)
{
    // A dutyCycle outside (0, 1] used to slip through construction
    // and poison every derived duration (division by <= 0 yields inf
    // or negative request windows); the constructor now rejects it.
    Machine m(tinyTest(), silent(), 91);
    VictimConfig bad;
    bad.dutyCycle = 0.0;
    EXPECT_DEATH(EcdsaLadderVictim(m, bad), "dutyCycle");
    bad.dutyCycle = -0.25;
    EXPECT_DEATH(EcdsaLadderVictim(m, bad), "dutyCycle");
    bad.dutyCycle = 1.5;
    EXPECT_DEATH(EcdsaLadderVictim(m, bad), "dutyCycle");
    bad.dutyCycle = std::numeric_limits<double>::quiet_NaN();
    EXPECT_DEATH(EcdsaLadderVictim(m, bad), "dutyCycle");
}

TEST(VictimConfigDeathTest, RejectsDegenerateTimingFields)
{
    Machine m(tinyTest(), silent(), 93);
    VictimConfig bad;
    bad.iterationCycles = 0;
    EXPECT_DEATH(EcdsaLadderVictim(m, bad), "iterationCycles");
    bad = VictimConfig{};
    bad.iterationJitter = 1.0;
    EXPECT_DEATH(EcdsaLadderVictim(m, bad), "iterationJitter");
    bad.iterationJitter = -0.1;
    EXPECT_DEATH(EcdsaLadderVictim(m, bad), "iterationJitter");
    bad = VictimConfig{};
    bad.core = 255;
    EXPECT_DEATH(EcdsaLadderVictim(m, bad), "core");
    bad = VictimConfig{};
    bad.targetLineIndex = kLinesPerPage;
    EXPECT_DEATH(EcdsaLadderVictim(m, bad), "line index");
}

TEST_F(VictimTest, RequestQuotaExhaustsToEmpty)
{
    VictimConfig limited = cfg_;
    limited.requestQuota = 2;
    Machine m2(tinyTest(), silent(), 87);
    EcdsaLadderVictim v2(m2, limited);
    EXPECT_EQ(v2.remainingQuota(), 2u);

    auto first = v2.serveRequests(m2.now(), 5);
    EXPECT_EQ(first.size(), 2u); // clipped at the quota
    EXPECT_EQ(v2.remainingQuota(), 0u);

    auto second = v2.serveRequests(m2.now(), 1);
    EXPECT_TRUE(second.empty()); // exhausted: no execution at all

    // Unlimited victims never clip.
    EXPECT_EQ(victim_->remainingQuota(), ~0ULL);
}

} // namespace
} // namespace llcf

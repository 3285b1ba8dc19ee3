/**
 * @file
 * Tests for the victim service: layout and ground truth (key and
 * nonce draws against the reference Ecdsa signer), the Figure 8
 * access pattern (boundary fetch every iteration, midpoint
 * fetch for the monitored bit value), request timing / duty cycle,
 * and stream registration with the machine.
 */

#include <gtest/gtest.h>

#include <string>

#include "crypto/ecdsa.hh"
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

TEST(VictimDifferential, SecretsMatchTheReferenceSigner)
{
    // The victim draws d and each nonce from the reference signer's
    // stream instead of signing.  It must reproduce, over key
    // rotations, exactly what the full Ecdsa engine on that stream
    // produces: the private key, the nonce and the ladder's bits.
    // (The reference redraws a nonce whose ladder hits the point at
    // infinity or whose r or s is 0; at ~2^-570 per signature no
    // seed here reaches that branch.)
    for (std::uint64_t seed : {99u, 7u, 1234u, 0xbeefu}) {
        SCOPED_TRACE(testing::Message() << "seed " << seed);
        Machine m(tinyTest(), silent(), 85);
        VictimConfig cfg;
        cfg.seed = seed;
        cfg.rotateKeys = 2;
        EcdsaLadderVictim victim(m, cfg);
        Ecdsa reference(Rng(mix64(seed ^ 0xec2a)));
        EcdsaKeyPair key = reference.generateKey();
        EXPECT_EQ(victim.privateKey().toHex(), key.d.toHex());
        const Sha256Digest digest = sha256(std::string("request"));
        for (unsigned i = 0; i < 6; ++i) {
            const auto exec = victim.triggerRequest(m.now() + 1000);
            m.clearStreams();
            if (i > 0 && i % cfg.rotateKeys == 0)
                key = reference.generateKey();
            const SigningRecord rec =
                reference.signWithTrace(digest, key.d);
            EXPECT_EQ(victim.privateKey().toHex(), key.d.toHex())
                << "request " << i;
            EXPECT_EQ(exec.keyEpoch, i / cfg.rotateKeys);
            EXPECT_EQ(exec.nonce.toHex(), rec.nonce.toHex())
                << "request " << i;
            EXPECT_EQ(exec.bits, rec.ladderBits) << "request " << i;
        }
    }
}

TEST_F(VictimTest, AccessPatternFollowsFigure8)
{
    auto exec = victim_->triggerRequest(machine_.now() + 1000);
    // iterationStarts has one extra entry (the ladder end).
    ASSERT_EQ(exec.iterationStarts.size(), exec.bits.size() + 1);
    // Count accesses per iteration: 2 when bit==0 (the midpoint
    // fetch), 1 when bit==1.
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

TEST_F(VictimTest, IterationDurationMatchesConfig)
{
    auto exec = victim_->triggerRequest(machine_.now());
    for (std::size_t i = 0; i + 1 < exec.iterationStarts.size(); ++i) {
        const Cycles d = exec.iterationStarts[i + 1] -
                         exec.iterationStarts[i];
        EXPECT_EQ(d, kVictimIterationCycles);
    }
}

TEST_F(VictimTest, DutyCycleShapesRequestWindow)
{
    auto exec = victim_->triggerRequest(machine_.now());
    const double ladder = static_cast<double>(exec.ladderEnd -
                                              exec.ladderStart);
    const double request = static_cast<double>(exec.requestEnd -
                                               exec.requestStart);
    EXPECT_NEAR(ladder / request, kVictimDutyCycle, 0.03);
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
    std::vector<Victim::Execution> execs;
    ASSERT_EQ(victim_->serveRequests(machine_.now() + 100, 3, &execs), 3u);
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
    std::vector<Victim::Execution> execs;
    ASSERT_EQ(victim_->serveRequests(machine_.now(), 2, &execs), 2u);
    EXPECT_NE(execs[0].nonce, execs[1].nonce);
    EXPECT_NE(execs[0].bits, execs[1].bits);
}

TEST(VictimConfigDeathTest, RejectsDegenerateTimingFields)
{
    Machine m(tinyTest(), silent(), 93);
    VictimConfig bad;
    bad.iterationJitter = 1.0;
    EXPECT_DEATH(EcdsaLadderVictim(m, bad), "iterationJitter");
    bad.iterationJitter = -0.1;
    EXPECT_DEATH(EcdsaLadderVictim(m, bad), "iterationJitter");
    // A host without the victim's core.
    MachineConfig two_cores = tinyTest();
    two_cores.cores = kVictimCore;
    Machine small(two_cores, silent(), 93);
    EXPECT_DEATH(EcdsaLadderVictim(small, VictimConfig{}), "core");
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

    EXPECT_EQ(v2.serveRequests(m2.now(), 5), 2u); // clipped at the quota
    EXPECT_EQ(v2.remainingQuota(), 0u);

    // Exhausted: no request at all.
    EXPECT_EQ(v2.serveRequests(m2.now(), 1), 0u);
    EXPECT_FALSE(v2.serveRequest(m2.now()).has_value());

    // Unlimited victims never clip.
    EXPECT_EQ(victim_->remainingQuota(), ~0ULL);
}

} // namespace
} // namespace llcf

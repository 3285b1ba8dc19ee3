/**
 * @file
 * The victim-conformance suite: every registered victim family must
 * honour the Execution ground-truth contract the attack layers score
 * against.  Parameterized over VictimFamily so adding a family to
 * makeVictim() automatically subjects it to the same pins:
 *
 *  - iterationStarts strictly monotone, sized bits.size() + 1;
 *  - targetAccesses consistent with the per-window ground-truth bits;
 *  - request quotas clip serveRequests to fewer (possibly no)
 *    requests instead of crashing;
 *  - identical seeds produce byte-identical executions (the
 *    determinism contract the bench gates rely on);
 *  - key rotation advances epochs exactly every rotateKeys requests;
 *  - golden hashes pin every Execution field and registered stream
 *    of each family's closed-loop, open-loop and rotating requests.
 */

#include <gtest/gtest.h>

#include <optional>
#include <vector>

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

/** Field-by-field equality of two requests' ground truth. */
void
expectSameExecution(const Victim::Execution &a, const Victim::Execution &b)
{
    EXPECT_EQ(a.requestStart, b.requestStart);
    EXPECT_EQ(a.ladderStart, b.ladderStart);
    EXPECT_EQ(a.ladderEnd, b.ladderEnd);
    EXPECT_EQ(a.requestEnd, b.requestEnd);
    EXPECT_EQ(a.iterationStarts, b.iterationStarts);
    EXPECT_EQ(a.bits, b.bits);
    EXPECT_EQ(a.targetAccesses, b.targetAccesses);
    EXPECT_EQ(a.keyEpoch, b.keyEpoch);
    EXPECT_EQ(a.plaintexts, b.plaintexts);
    EXPECT_EQ(a.nonce, b.nonce);
}

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
    // makeVictim builds the class of the configured family.
    EXPECT_EQ(dynamic_cast<const AesTableVictim *>(victim_.get()) !=
                  nullptr,
              GetParam() == VictimFamily::AesTable);
    EXPECT_STRNE(victimFamilyName(GetParam()), "?");
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
        switch (GetParam()) {
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
    EXPECT_EQ(v->serveRequests(machines_.back()->now(), 5), 2u);
    EXPECT_EQ(v->remainingQuota(), 0u);
    EXPECT_EQ(v->serveRequests(machines_.back()->now(), 1), 0u);
    EXPECT_FALSE(v->serveRequest(machines_.back()->now()).has_value());
}

TEST_P(VictimConformance, IdenticalSeedsProduceIdenticalExecutions)
{
    auto a = freshVictim(821, cfg_);
    auto b = freshVictim(821, cfg_);
    std::vector<Victim::Execution> ea, eb;
    a->serveRequests(1000, 2, &ea);
    b->serveRequests(1000, 2, &eb);
    ASSERT_EQ(ea.size(), 2u);
    ASSERT_EQ(ea.size(), eb.size());
    for (std::size_t i = 0; i < ea.size(); ++i)
        expectSameExecution(ea[i], eb[i]);
}

// Step 2 serves a batch of requests and keeps only their access
// streams; Step 3 then serves one request for its ground truth.  That
// must leave the same streams, generator states and Execution as
// serving both batches with every ground truth kept, for closed-loop,
// open-loop and quota-limited victims alike.
TEST_P(VictimConformance, DroppedBatchThenOneRequestMatchesKeptPath)
{
    constexpr unsigned kBatch = 3;
    VictimConfig closed = cfg_;
    VictimConfig poisson = cfg_;
    poisson.arrival.kind = ArrivalKind::Poisson;
    poisson.arrival.ratePerSec = 500.0;
    VictimConfig quota = cfg_;
    quota.requestQuota = kBatch + 1; // the single request is the last
    const Cycles t0 = 1000;
    const Cycles t1 = msToCycles(40.0);
    const Cycles t2 = msToCycles(80.0);
    for (const VictimConfig &cfg : {closed, poisson, quota}) {
        auto kept = freshVictim(839, cfg);
        Machine &kept_m = *machines_.back();
        auto lean = freshVictim(839, cfg);
        Machine &lean_m = *machines_.back();

        std::vector<Victim::Execution> batch, one;
        EXPECT_EQ(kept->serveRequests(t0, kBatch, &batch), kBatch);
        EXPECT_EQ(kept->serveRequests(t1, 1, &one), 1u);
        EXPECT_EQ(lean->serveRequests(t0, kBatch), kBatch);
        const std::optional<Victim::Execution> exec =
            lean->serveRequest(t1);
        ASSERT_TRUE(exec.has_value());
        ASSERT_EQ(one.size(), 1u);
        expectSameExecution(one[0], *exec);

        const Machine::Snapshot ks = kept_m.snapshot();
        const Machine::Snapshot ls = lean_m.snapshot();
        ASSERT_EQ(ks.streams.size(), ls.streams.size());
        for (std::size_t i = 0; i < ks.streams.size(); ++i) {
            EXPECT_EQ(ks.streams[i].id, ls.streams[i].id);
            EXPECT_EQ(ks.streams[i].core, ls.streams[i].core);
            EXPECT_EQ(ks.streams[i].line, ls.streams[i].line);
            EXPECT_EQ(ks.streams[i].times, ls.streams[i].times);
            EXPECT_EQ(ks.streams[i].cursor, ls.streams[i].cursor);
        }
        EXPECT_TRUE(ks.rng == ls.rng);
        EXPECT_EQ(kept->arrivalCount(), lean->arrivalCount());
        EXPECT_EQ(kept->meanQueueDelayCycles(),
                  lean->meanQueueDelayCycles());
        EXPECT_EQ(kept->remainingQuota(), lean->remainingQuota());

        // The victims' own generators: the next request agrees too
        // (or both are out of quota).
        std::vector<Victim::Execution> next;
        kept->serveRequests(t2, 1, &next);
        const std::optional<Victim::Execution> lean_next =
            lean->serveRequest(t2);
        ASSERT_EQ(next.size(), lean_next.has_value() ? 1u : 0u);
        EXPECT_EQ(lean_next.has_value(), cfg.requestQuota == 0);
        if (lean_next)
            expectSameExecution(next[0], *lean_next);
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
    std::vector<Victim::Execution> execs;
    ASSERT_EQ(v->serveRequests(1000, 5, &execs), 5u);
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
    std::vector<Victim::Execution> execs;
    ASSERT_EQ(v->serveRequests(1000, 4, &execs), 4u);
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

// ------------------------------------------------------ golden bytes

/** A mix64 chain over every Execution field of @p execs and each
 *  stream's id, core, line and times left on @p m. */
std::uint64_t
requestBytesHash(const std::vector<Victim::Execution> &execs,
                 const Machine &m)
{
    std::uint64_t h = 0;
    auto in = [&h](std::uint64_t v) { h = mix64(h ^ v); };
    auto all = [&in](const auto &values) {
        in(values.size());
        for (const auto &v : values)
            in(v);
    };
    in(execs.size());
    for (const Victim::Execution &e : execs) {
        all(e.nonce.limbs());
        for (Cycles t : {e.requestStart, e.ladderStart, e.ladderEnd,
                         e.requestEnd, Cycles{e.keyEpoch}})
            in(t);
        all(e.iterationStarts);
        all(e.bits);
        all(e.targetAccesses);
        in(e.plaintexts.size());
        for (const auto &pt : e.plaintexts)
            all(pt);
    }
    for (const MachineStream &st : m.snapshot().streams) {
        for (std::uint64_t v : {st.id, std::uint64_t{st.core}, st.line})
            in(v);
        all(st.times);
    }
    return h;
}

// Pins the bytes each family serves: every Execution field and access
// stream of six requests, closed-loop, Poisson, bursty and rotating
// with a quota of five, at three seeds.  A change to the request
// timeline, a family's fetches or any generator's draw order moves
// these values.
TEST(VictimGolden, RequestBytesArePinned)
{
    // Family-major, then closed/Poisson/bursty/rotating, then seed.
    constexpr std::uint64_t kGolden[] = {
        0x6cc667ff8ede0c76ULL, 0x4b7d93383f561c0bULL, 0xcd9600df4c36bd6dULL,
        0xd4662ace6d674f93ULL, 0xe481c8fec6c4019aULL, 0xe61cba1e43422db7ULL,
        0xfac2ae9f1c722e7dULL, 0xc62c1411e973f437ULL, 0x576f0c6cdc3cd833ULL,
        0x56a01daa95ee152dULL, 0x5b843bd5a3028295ULL, 0x3c4e8174b90ba30fULL,
        0x914067977147ab4fULL, 0xf2e7cdbb0367306cULL, 0x93ea61012c03216fULL,
        0x43d6de94734fa2deULL, 0xd8044d8dfae50c34ULL, 0x07ecfbf82a8ed8beULL,
        0xf135cd5304d249bcULL, 0x7c9534650c0dbb9fULL, 0xad36bd20b3e2448fULL,
        0x38fc00940c17b4cbULL, 0x7377701d799054adULL, 0xa1b6695c0a194729ULL,
    };
    const std::uint64_t *golden = kGolden;
    for (VictimFamily family : kAllFamilies) {
        for (unsigned regime = 0; regime < 4; ++regime) {
            for (std::uint64_t seed : {99, 7, 1234}) {
                VictimConfig cfg;
                cfg.family = family;
                cfg.seed = seed;
                if (regime == 1 || regime == 2) {
                    cfg.arrival.kind = regime == 1 ? ArrivalKind::Poisson
                                                   : ArrivalKind::Bursty;
                    cfg.arrival.ratePerSec = 500.0;
                } else if (regime == 3) {
                    cfg.rotateKeys = 2;
                    cfg.requestQuota = 5;
                }
                Machine m(tinyTest(), silent(), 851);
                std::vector<Victim::Execution> execs;
                makeVictim(m, cfg)->serveRequests(1000, 6, &execs);
                EXPECT_EQ(requestBytesHash(execs, m), *golden++)
                    << victimFamilyName(family) << " regime " << regime
                    << " seed " << seed;
            }
        }
    }
}

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

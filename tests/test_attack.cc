/**
 * @file
 * Tests for the attack layer: Prime+Probe monitors (detection,
 * latency ordering, replacement-policy independence of Parallel
 * Probing), the covert-channel harness, the PSD trace classifier and
 * target-set scanner, the nonce extractor, and an end-to-end attack
 * smoke run on a miniature machine.
 */

#include <gtest/gtest.h>

#include <cstring>

#include "attack/covert.hh"
#include "attack/e2e.hh"
#include "attack/extractor.hh"
#include "attack/scanner.hh"
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

AttackerConfig
attackerConfig(std::uint64_t seed)
{
    AttackerConfig cfg;
    cfg.seed = seed;
    return cfg;
}

struct AttackRig
{
    explicit AttackRig(std::uint64_t seed,
                       NoiseProfile profile = silent(),
                       MachineConfig cfg = tinyTest())
        : machine(cfg, profile, seed),
          session(machine, attackerConfig(seed)),
          pool(session, CandidatePool::requiredPages(machine))
    {
    }

    Machine machine;
    AttackSession session;
    CandidatePool pool;
};

TEST(GroundTruthEvset, ProducesCongruentSet)
{
    AttackRig rig(91);
    const Addr target = rig.pool.at(0, 30);
    auto evset = groundTruthEvictionSet(rig.machine, rig.pool, target,
                                        rig.machine.config().sf.ways,
                                        1);
    EXPECT_EQ(evset.size(), rig.machine.config().sf.ways);
    for (Addr a : evset) {
        EXPECT_EQ(rig.machine.sharedSetOf(a),
                  rig.machine.sharedSetOf(target));
        EXPECT_NE(lineAlign(a), lineAlign(target));
    }
}

TEST(MatchDetections, CountsWithinEpsilonOnly)
{
    static_assert(kCovertEpsilon == 500);
    EXPECT_DOUBLE_EQ(matchDetections({1000, 2000, 3000},
                                     {1100, 2600, 3200}),
                     2.0 / 3.0);
    EXPECT_DOUBLE_EQ(matchDetections({1000}, {1000}), 0.0);
    EXPECT_DOUBLE_EQ(matchDetections({1000}, {1500}), 1.0);
    EXPECT_DOUBLE_EQ(matchDetections({}, {123}), 0.0);
}

class MonitorTest : public ::testing::Test
{
  protected:
    // Skylake-like geometry (12-way SF): the Table 5 latency
    // relationships depend on the real associativity.
    MonitorTest() : rig_(93, silent(), skylakeSp(2))
    {
        sender_ = rig_.pool.at(1, 17);
        evsetA_ = groundTruthEvictionSet(rig_.machine, rig_.pool,
                                         sender_,
                                         rig_.machine.config().sf.ways);
        evsetB_ = groundTruthEvictionSet(rig_.machine, rig_.pool,
                                         sender_,
                                         rig_.machine.config().sf.ways,
                                         rig_.machine.config().sf.ways);
    }

    AttackRig rig_;
    Addr sender_ = 0;
    std::vector<Addr> evsetA_, evsetB_;
};

TEST_F(MonitorTest, ParallelDetectsSenderAccesses)
{
    CovertParams params;
    params.accessInterval = 20000;
    params.accesses = 150;
    auto out = runCovertExperiment(rig_.session, MonitorKind::Parallel,
                                   evsetA_, {}, sender_, params);
    EXPECT_GE(out.detectionRate, 0.8);
}

TEST_F(MonitorTest, ZeroAccessCovertExperimentIsFatal)
{
    // accesses == 0 used to run sender_times.back() on an empty
    // vector (undefined behavior) before dividing by zero in the
    // detection-rate computation.
    CovertParams params;
    params.accesses = 0;
    EXPECT_DEATH((void)runCovertExperiment(rig_.session,
                                           MonitorKind::Parallel,
                                           evsetA_, {}, sender_,
                                           params),
                 "at least one sender access");
}

TEST_F(MonitorTest, QuietSetYieldsNoDetections)
{
    auto monitor = PrimeProbeMonitor::make(MonitorKind::Parallel,
                                           rig_.session, evsetA_);
    auto detections = monitor->collectTrace(
        rig_.machine.now() + usToCycles(200.0));
    EXPECT_LT(detections.size(), 4u);
}

TEST_F(MonitorTest, LatencyOrderingMatchesTable5)
{
    // Parallel priming must be cheaper than PS-Flush priming; PS
    // probes must be cheaper than parallel probes.
    CovertParams params;
    params.accessInterval = 50000;
    params.accesses = 60;
    auto par = runCovertExperiment(rig_.session, MonitorKind::Parallel,
                                   evsetA_, {}, sender_, params);
    auto flush = runCovertExperiment(rig_.session, MonitorKind::PsFlush,
                                     evsetA_, {}, sender_, params);
    ASSERT_FALSE(par.latency.prime.empty());
    ASSERT_FALSE(flush.latency.prime.empty());
    EXPECT_LT(par.latency.prime.mean(), flush.latency.prime.mean());
    EXPECT_LT(flush.latency.probe.mean(), par.latency.probe.mean());
}

TEST_F(MonitorTest, PsAltNeedsTwoSets)
{
    EXPECT_DEATH(
        {
            auto m = PrimeProbeMonitor::make(MonitorKind::PsAlt,
                                             rig_.session, evsetA_);
            (void)m;
        },
        "second eviction set");
}

TEST_F(MonitorTest, PsAltRunsWithTwoSets)
{
    CovertParams params;
    params.accessInterval = 50000;
    params.accesses = 60;
    auto out = runCovertExperiment(rig_.session, MonitorKind::PsAlt,
                                   evsetA_, evsetB_, sender_, params);
    ASSERT_FALSE(out.latency.prime.empty());
    EXPECT_GE(out.detectionRate, 0.0);
}

TEST_F(MonitorTest, FastSenderFavoursParallel)
{
    // At short intervals the cheap parallel prime must beat PS-Flush
    // (Figure 6's crossover behaviour).
    CovertParams params;
    params.accessInterval = 3000;
    params.accesses = 200;
    auto par = runCovertExperiment(rig_.session, MonitorKind::Parallel,
                                   evsetA_, {}, sender_, params);
    auto flush = runCovertExperiment(rig_.session, MonitorKind::PsFlush,
                                     evsetA_, {}, sender_, params);
    EXPECT_GT(par.detectionRate, flush.detectionRate);
}

class ParallelPolicyTest : public ::testing::TestWithParam<ReplKind>
{
};

TEST_P(ParallelPolicyTest, ParallelProbingWorksAcrossPolicies)
{
    // Section 6.1's claim: parallel probing needs no replacement-
    // state preparation and works irrespective of the policy.
    MachineConfig cfg = tinyTest();
    cfg.sfRepl = GetParam();
    cfg.llcRepl = GetParam();
    AttackRig rig(97, silent(), cfg);
    const Addr sender = rig.pool.at(2, 9);
    auto evset = groundTruthEvictionSet(rig.machine, rig.pool, sender,
                                        rig.machine.config().sf.ways);
    CovertParams params;
    params.accessInterval = 20000;
    params.accesses = 120;
    auto out = runCovertExperiment(rig.session, MonitorKind::Parallel,
                                   evset, {}, sender, params);
    EXPECT_GE(out.detectionRate, 0.6)
        << replKindName(GetParam());
}

INSTANTIATE_TEST_SUITE_P(Policies, ParallelPolicyTest,
                         ::testing::Values(ReplKind::LRU,
                                           ReplKind::TreePLRU,
                                           ReplKind::SRRIP),
                         [](const auto &info) {
                             return replKindName(info.param);
                         });

// ------------------------------------------------------- PSD pipeline

class ScannerTestRig : public ::testing::Test
{
  protected:
    ScannerTestRig() : rig_(101)
    {
        VictimConfig vcfg;
        vcfg.seed = 101;
        victim_ = std::make_unique<EcdsaLadderVictim>(rig_.machine, vcfg);
    }

    AttackRig rig_;
    std::unique_ptr<EcdsaLadderVictim> victim_;
};

TEST_F(ScannerTestRig, ClassifierSeparatesTargetFromNoise)
{
    ScannerParams params;
    TraceClassifier classifier(params);
    ScannerTrainer trainer(rig_.session, *victim_, rig_.pool);
    const Dataset data = trainer.collect(classifier, 40, 80);
    // Hold out every third trace of both labels for validation.
    Dataset train, val;
    for (std::size_t i = 0; i < data.size(); ++i)
        (i % 3 == 2 ? val : train).add(data.x[i], data.y[i]);
    TraceClassifier trained(params);
    trained.train(train);
    auto metrics = trained.validate(val);
    EXPECT_GE(metrics.accuracy(), 0.85);
    EXPECT_LE(metrics.falsePositiveRate(), 0.15);
}

TEST(TraceClassifier, DegeneratePsdIsNeverTheTarget)
{
    // A trace window too short for even one Welch segment produces a
    // flagged (zero-segment) PSD.  The featurizer must mark it with
    // an empty row and the classifier must treat that row as "not
    // the target" — the scanner then skips the set — instead of
    // fabricating an all-zero spectrum and scoring it.
    ScannerParams params;
    params.binCycles = 1024;
    params.traceDuration = 64 * 1024; // 64 bins << one 256-bin segment
    TraceClassifier classifier(params);
    const std::vector<double> row =
        classifier.features({1000, 5000, 20000});
    EXPECT_TRUE(row.empty());
    EXPECT_FALSE(classifier.isTarget(row));

    // Default parameters still produce full-width feature rows.
    TraceClassifier healthy{ScannerParams{}};
    const auto ok = healthy.features({1000, 5000, 20000});
    EXPECT_EQ(ok.size(), WelchParams{}.segmentLength / 2 + 1);
}

TEST_F(ScannerTestRig, ScannerFindsTargetSet)
{
    ScannerParams params;
    params.timeout = secToCycles(10.0);
    TraceClassifier classifier(params);
    ScannerTrainer trainer(rig_.session, *victim_, rig_.pool);
    Dataset data = trainer.collect(classifier, 40, 80);
    classifier.train(std::move(data));

    // Build real eviction sets for every SF set at the target offset.
    AttackerConfig acfg;
    acfg.evsetBudget = msToCycles(100.0);
    acfg.seed = 5;
    AttackSession build_session(rig_.machine, acfg);
    EvictionSetBuilder builder(build_session, PruneAlgo::BinS, true);
    auto bulk = builder.buildAtLineIndex(rig_.pool,
                                         victim_->targetLineIndex());
    ASSERT_GT(bulk.validSets, 0u);

    // Keep the victim busy across the scan window.
    victim_->serveRequests(rig_.machine.now(), 8);
    TargetSetScanner scanner(rig_.session, classifier);
    auto res = scanner.scan(bulk.evsets);
    ASSERT_TRUE(res.found);
    EXPECT_EQ(rig_.machine.sharedSetOf(bulk.evsets[res.evsetIndex]
              .target),
              rig_.machine.sharedSetOf(victim_->targetLinePa()));
    EXPECT_GT(res.setsScanned, 0u);
    EXPECT_GT(res.scanRate(), 0.0);
}

// --------------------------------------------------------- extraction

class ExtractorTestRig : public ::testing::Test
{
  protected:
    ExtractorTestRig() : rig_(103)
    {
        VictimConfig vcfg;
        vcfg.seed = 103;
        victim_ = std::make_unique<EcdsaLadderVictim>(rig_.machine, vcfg);
        evset_ = groundTruthEvictionSet(rig_.machine, rig_.pool,
                                        victim_->targetLinePa(),
                                        rig_.machine.config().sf.ways);
    }

    /** Monitor one signing's ladder and return (trace, ground truth). */
    std::pair<std::vector<Cycles>, Victim::Execution>
    captureTrace()
    {
        auto exec = victim_->triggerRequest(rig_.machine.now() + 2000);
        auto monitor = PrimeProbeMonitor::make(MonitorKind::Parallel,
                                               rig_.session, evset_);
        if (exec.ladderStart > rig_.machine.now())
            rig_.machine.idle(exec.ladderStart - rig_.machine.now());
        auto detections = monitor->collectTrace(exec.ladderEnd);
        rig_.machine.clearStreams();
        return {std::move(detections), std::move(exec)};
    }

    AttackRig rig_;
    std::unique_ptr<EcdsaLadderVictim> victim_;
    std::vector<Addr> evset_;
};

TEST(MonitorRepeats, CollectTraceMatchesPerProbeLoop)
{
    // Twin rigs over full ECDSA ladders with the victim's streams
    // registered: one monitors through collectTrace, which
    // fast-forwards the probes and prime passes that provably repeat;
    // the other through a hand-written loop that simulates each one.
    struct Twin
    {
        Twin() : rig(107)
        {
            VictimConfig vcfg;
            vcfg.seed = 107;
            victim = std::make_unique<EcdsaLadderVictim>(rig.machine,
                                                         vcfg);
            evset = groundTruthEvictionSet(rig.machine, rig.pool,
                                           victim->targetLinePa(),
                                           rig.machine.config().sf.ways);
        }

        std::vector<Cycles>
        monitorLadder(bool per_probe, MonitorLatencies &lat)
        {
            Machine &m = rig.machine;
            auto exec = victim->triggerRequest(m.now() + 2000);
            auto monitor = PrimeProbeMonitor::make(MonitorKind::Parallel,
                                                   rig.session, evset);
            if (exec.ladderStart > m.now())
                m.idle(exec.ladderStart - m.now());
            std::vector<Cycles> detections;
            if (per_probe) {
                const auto log = [](SampleStats &stats, Cycles v) {
                    if (v <= 20000)
                        stats.add(static_cast<double>(v));
                };
                const auto prime = [&] {
                    Cycles total = 0;
                    for (int pass = 0; pass < 12; ++pass)
                        total += m.accessBatch(kMainCore, evset,
                                               {BatchOp::Store, true, -1});
                    return total;
                };
                log(lat.prime, prime());
                while (m.now() < exec.ladderEnd) {
                    const auto r = monitor->probe();
                    log(lat.probe, r.duration);
                    if (r.detected) {
                        detections.push_back(m.now());
                        log(lat.prime, prime());
                    }
                }
            } else {
                detections = monitor->collectTrace(exec.ladderEnd, &lat);
            }
            m.clearStreams();
            return detections;
        }

        AttackRig rig;
        std::unique_ptr<EcdsaLadderVictim> victim;
        std::vector<Addr> evset;
    };

    Twin fast, slow;
    ASSERT_EQ(fast.evset, slow.evset);
    for (int ladder = 0; ladder < 2; ++ladder) {
        MonitorLatencies fast_lat, slow_lat;
        const auto fast_det = fast.monitorLadder(false, fast_lat);
        const auto slow_det = slow.monitorLadder(true, slow_lat);
        EXPECT_GT(slow_det.size(), 200u);
        EXPECT_EQ(fast_det, slow_det);
        EXPECT_EQ(fast.rig.machine.now(), slow.rig.machine.now());
        EXPECT_EQ(fast_lat.probe.samples(), slow_lat.probe.samples());
        EXPECT_EQ(fast_lat.prime.samples(), slow_lat.prime.samples());
        const PerfCounters fp = fast.rig.machine.perfCounters();
        const PerfCounters sp = slow.rig.machine.perfCounters();
        EXPECT_EQ(std::memcmp(&fp, &sp, sizeof(fp)), 0);
        EXPECT_EQ(std::memcmp(&fast.rig.machine.stats(),
                              &slow.rig.machine.stats(),
                              sizeof(MachineStats)),
                  0);
    }
}

TEST_F(ExtractorTestRig, RuleBasedExtractionRecoversMostBits)
{
    NonceExtractor extractor;
    auto [trace, exec] = captureTrace();
    ASSERT_GT(trace.size(), 200u);
    auto bits = extractor.extract(trace);
    auto score = extractor.score(bits, exec);
    EXPECT_GT(score.recoveredFraction(), 0.5);
    EXPECT_LT(score.bitErrorRate(), 0.2);
}

TEST(Extractor, ClosingBoundaryCompletesTheLastIteration)
{
    // Synthetic perfect trace: the victim's own target-access times.
    // The victim fetches the monitored line at every iteration start
    // *and once more at ladder exit*, so the rule-based extractor can
    // pair every iteration — first and last included — and recover
    // the complete nonce.  (Without the closing fetch the final
    // iteration had no closing boundary and the recovered fraction
    // was capped at (n-1)/n by construction.)
    Machine m(tinyTest(), silent(), 29);
    VictimConfig vcfg;
    vcfg.seed = 31;
    vcfg.iterationJitter = 0.0; // exact timeline: exact pin
    EcdsaLadderVictim victim(m, vcfg);
    auto exec = victim.triggerRequest(m.now() + 1000);
    m.clearStreams();

    NonceExtractor extractor;
    auto score = extractor.score(extractor.extract(exec.targetAccesses),
                                 exec);
    EXPECT_EQ(score.totalBits, exec.bits.size());
    EXPECT_EQ(score.recoveredBits, score.totalBits);
    EXPECT_DOUBLE_EQ(score.recoveredFraction(), 1.0);
    EXPECT_EQ(score.bitErrors, 0u);
}

TEST(Extractor, BoundaryPairingPinnedAcrossReplKinds)
{
    // Regression anchor for trace-edge pairing: monitor a real
    // signing with the Parallel monitor on machines running each of
    // the four shared replacement policies, extract, and pin the
    // recovered fraction / bit error rate against ground truth.  The
    // monitoring window extends half a minimum iteration past
    // ladderEnd, exactly like EndToEndAttack, so the closing
    // boundary detection lands inside the trace.
    NonceExtractor extractor;
    const Cycles tail_slack = kExtractMinIteration / 2;
    // Parallel probing detects boundary fetches less reliably under
    // Tree-PLRU and Random replacement (re-primes land differently),
    // so the recovered-fraction floor is policy-specific; the bit
    // error rate among recovered bits stays low everywhere.
    auto recovered_floor = [](ReplKind kind) {
        switch (kind) {
          case ReplKind::TreePLRU:
            return 0.8;
          case ReplKind::Random:
            return 0.7;
          default:
            return 0.9;
        }
    };
    for (ReplKind kind : kAllReplKinds) {
        MachineConfig cfg = tinyTest();
        cfg.withSharedRepl(kind);
        AttackRig rig(107, silent(), cfg);
        VictimConfig vcfg;
        vcfg.seed = 107;
        EcdsaLadderVictim victim(rig.machine, vcfg);
        auto evset = groundTruthEvictionSet(
            rig.machine, rig.pool, victim.targetLinePa(),
            rig.machine.config().sf.ways);

        auto exec = victim.triggerRequest(rig.machine.now() + 2000);
        auto monitor = PrimeProbeMonitor::make(MonitorKind::Parallel,
                                               rig.session, evset);
        if (exec.ladderStart > rig.machine.now())
            rig.machine.idle(exec.ladderStart - rig.machine.now());
        auto detections =
            monitor->collectTrace(exec.ladderEnd + tail_slack);
        rig.machine.clearStreams();

        auto score = extractor.score(extractor.extract(detections),
                                     exec);
        EXPECT_EQ(score.totalBits, exec.bits.size())
            << replKindName(kind);
        EXPECT_GT(score.recoveredFraction(), recovered_floor(kind))
            << replKindName(kind);
        EXPECT_LT(score.bitErrorRate(), 0.1) << replKindName(kind);
    }
}

TEST(Extractor, EmptyAndDegenerateTraces)
{
    NonceExtractor extractor;
    EXPECT_TRUE(extractor.extract({}).empty());
    EXPECT_TRUE(extractor.extract({12345}).empty());
    // Two accesses exactly one iteration apart: one bit, value 1
    // (no midpoint access: the midpoint-means-zero convention).
    auto bits = extractor.extract({10000, 19700});
    ASSERT_EQ(bits.size(), 1u);
    EXPECT_EQ(bits[0].bit, 1);
    // With a midpoint access: bit 0.
    bits = extractor.extract({10000, 14850, 19700});
    ASSERT_EQ(bits.size(), 1u);
    EXPECT_EQ(bits[0].bit, 0);
}

TEST(Extractor, ScoreHandlesNoOverlap)
{
    NonceExtractor extractor;
    Victim::Execution truth;
    truth.bits = {1, 0, 1};
    truth.iterationStarts = {1000000, 1009700, 1019400, 1029100};
    auto score = extractor.score({{0, 9700, 1}}, truth);
    EXPECT_EQ(score.recoveredBits, 0u);
    EXPECT_DOUBLE_EQ(score.recoveredFraction(), 0.0);
}

// -------------------------------------------------------- end to end

TEST(EndToEnd, MiniatureAttackRecoversNonceBits)
{
    AttackRig rig(107);
    VictimConfig vcfg;
    vcfg.seed = 107;
    EcdsaLadderVictim victim(rig.machine, vcfg);

    // Offline training (classifier + extractor) on the same host
    // class, as the paper trains on controlled instances.
    ScannerParams sparams;
    sparams.timeout = secToCycles(10.0);
    TraceClassifier classifier(sparams);
    ScannerTrainer trainer(rig.session, victim, rig.pool);
    classifier.train(trainer.collect(classifier, 30, 60));

    NonceExtractor extractor;

    E2EParams params;
    params.scanner = sparams;
    params.tracesPerVictim = 3;
    AttackerConfig acfg;
    acfg.evsetBudget = msToCycles(100.0);
    acfg.seed = 9;
    AttackSession attack_session(rig.machine, acfg);
    EndToEndAttack attack(attack_session, victim, classifier,
                          extractor, params);
    auto res = attack.run(
        rig.pool, EndToEndAttack::scanRequestCount(victim, params.scanner));
    ASSERT_TRUE(res.evsetsBuilt);
    ASSERT_TRUE(res.targetFound);
    EXPECT_TRUE(res.targetCorrect);
    ASSERT_FALSE(res.recoveredFraction.empty());
    EXPECT_GT(res.recoveredFraction.median(), 0.4);
    EXPECT_GT(res.totalTime(), 0u);
}

} // namespace
} // namespace llcf

/**
 * @file
 * Tests for the Step-0 blind-topology calibration subsystem: the
 * machines' slice and keyed-index hashes (bit-for-bit goldens), the
 * blind minimal-set reduction, the TopologyProber's accuracy on the
 * deterministic anchor hosts, the blind-session discipline (no
 * geometry before calibration), the per-field oracle comparison
 * report, 1-vs-8-thread byte-identical calibration suite JSON, and
 * the blind-vs-oracle end-to-end regression: a blind campaign still
 * recovers keys on the quiet Skylake-SP scenario, with calibration
 * cycles charged to the per-key cost.
 */

#include <gtest/gtest.h>

#include <iterator>
#include <set>
#include <string>

#include "calib/prober.hh"
#include "campaign/campaign.hh"
#include "scenario/registry.hh"

namespace llcf {
namespace {

const ScenarioSpec &
spec(const char *name)
{
    const ScenarioSpec *s = builtinScenarios().find(name);
    EXPECT_NE(s, nullptr) << name;
    return *s;
}

// ------------------------------------------- slice hash

// The opaque hash keyed with the config's salt must reproduce the
// machines' slices bit-for-bit for every address.
TEST(MachineSliceHash, ReproducesMachineHashes)
{
    struct Row
    {
        MachineConfig cfg;
        std::uint64_t seed;
    };
    const Row rows[] = {
        {skylakeSp(28), 42}, {iceLakeSp(26), 42}, {tinyTest(2), 7}};
    NoiseProfile silent;
    ASSERT_TRUE(noiseProfileByName("silent", silent));
    for (const Row &r : rows) {
        Machine m(r.cfg, silent, r.seed);
        const OpaqueSliceHash h(r.cfg.llc.slices,
                                r.cfg.sliceHashSalt(r.seed));
        ASSERT_EQ(h.slices(), r.cfg.llc.slices);
        for (Addr pa = 0; pa < (1ULL << 22); pa += 0x3fc0)
            EXPECT_EQ(h.slice(pa), m.sliceOf(pa)) << r.cfg.name;
    }
}

// Pinned goldens: the SKL/ICX opaque hashes must never drift across
// refactors.
TEST(MachineSliceHash, PinnedGoldens)
{
    const Addr pas[] = {0x0,        0x40,        0x1000,      0x3f7c0,
                        0x7fffffc0, 0x123456780, 0xdeadbeef00};
    const unsigned skl[] = {14, 6, 25, 15, 12, 17, 19};
    const unsigned icx[] = {2, 18, 9, 7, 14, 23, 13};
    const MachineConfig skl_cfg = skylakeSp(28);
    const MachineConfig icx_cfg = iceLakeSp(26);
    const OpaqueSliceHash hs(skl_cfg.llc.slices,
                             skl_cfg.sliceHashSalt(42));
    const OpaqueSliceHash hi(icx_cfg.llc.slices,
                             icx_cfg.sliceHashSalt(42));
    for (std::size_t i = 0; i < std::size(pas); ++i) {
        EXPECT_EQ(hs.slice(pas[i]), skl[i]) << i;
        EXPECT_EQ(hi.slice(pas[i]), icx[i]) << i;
    }
}

// Pinned goldens of the keyed set-index parity the randomized-index
// defense runs: index bit i = parity(pa & masks[i]).
TEST(KeyedIndex, PinnedGoldens)
{
    const std::vector<Addr> masks = {0x55555540, 0xaaaaaa80};
    const Addr pas[] = {0x0,   0x40,   0x80,       0xc0,      0x100,
                        0x300, 0x1fc0, 0xdeadbec0, 0x12345640};
    const unsigned idx[] = {0, 1, 2, 3, 1, 3, 2, 2, 3};
    for (std::size_t i = 0; i < std::size(pas); ++i)
        EXPECT_EQ(keyedIndexOf(masks, pas[i]), idx[i]) << i;
}

// ------------------------------------------- blind primitives

struct BlindRigTest : ::testing::Test
{
    BlindRigTest() : rig(spec("calib-tiny-lru-silent"), streamSeed(9, 0))
    {
    }
    ScenarioRig rig;
};

TEST_F(BlindRigTest, SessionStartsWithoutTopology)
{
    EXPECT_FALSE(rig.session->topologyKnown());
    TopologyView v;
    v.wLlc = 4;
    v.wSf = 5;
    v.slices = 2;
    v.uncontrolledIndexBits = 2;
    rig.session->adoptTopology(v);
    ASSERT_TRUE(rig.session->topologyKnown());
    EXPECT_EQ(rig.session->topology().wSf, 5u);
    EXPECT_FALSE(rig.session->topology().fromOracle);
}

TEST_F(BlindRigTest, BlindReductionMeasuresAssociativity)
{
    const Addr ta = rig.pool->at(0, 9);
    auto cands = rig.pool->candidatesAt(9);
    cands.erase(cands.begin());
    auto red = blindReduceToMinimal(
        *rig.session, ta, std::move(cands),
        rig.machine.now() + secToCycles(5.0));
    ASSERT_TRUE(red.success);
    // The minimal size is the true W_LLC, and every member is
    // ground-truth congruent with the target.
    EXPECT_EQ(red.evset.size(), rig.machine.config().llc.ways);
    for (Addr a : red.evset) {
        EXPECT_EQ(rig.machine.sharedSetOf(a),
                  rig.machine.sharedSetOf(ta));
    }
    EXPECT_GT(red.tests, 0u);
}

TEST_F(BlindRigTest, ProberRecoversTinyTopology)
{
    const ScenarioSpec &s = spec("calib-tiny-lru-silent");
    TopologyProber prober(*rig.session, *rig.pool,
                          s.calibrationConfig());
    CalibratedTopology calib = prober.calibrate();
    ASSERT_TRUE(calib.valid);
    const MachineConfig &cfg = rig.machine.config();
    EXPECT_EQ(calib.view.wLlc, cfg.llc.ways);
    EXPECT_EQ(calib.view.wSf, cfg.sf.ways);
    EXPECT_EQ(calib.view.uncertainty(), cfg.sf.uncertainty());
    EXPECT_GT(calib.confidence, 0.0);
    EXPECT_GT(calib.cycles, 0u);
    EXPECT_GT(calib.testEvictions, 0u);
}

// ------------------------------------------- oracle comparison

TEST(CalibrationReportTest, FieldAccounting)
{
    const MachineConfig cfg = tinyTest(2);
    CalibratedTopology calib;
    calib.valid = true;
    calib.view.wLlc = cfg.llc.ways;
    calib.view.wSf = cfg.sf.ways;
    calib.view.slices = cfg.sf.slices;
    calib.view.uncontrolledIndexBits = cfg.sf.uncontrolledIndexBits();
    CalibrationReport rep = compareToOracle(calib, cfg);
    EXPECT_TRUE(rep.allMatch);
    EXPECT_EQ(rep.matches, rep.fields.size());

    // One wrong field must flip exactly its own accounting.
    calib.view.wSf = cfg.sf.ways + 1;
    rep = compareToOracle(calib, cfg);
    EXPECT_FALSE(rep.allMatch);
    EXPECT_EQ(rep.matches + 1, rep.fields.size());
    for (const CalibrationFieldReport &f : rep.fields) {
        EXPECT_EQ(f.match, std::string(f.field) != "w_sf")
            << f.field;
    }

    // An invalid calibration never reports a full match, even if the
    // guessed numbers happen to agree.
    calib.view.wSf = cfg.sf.ways;
    calib.valid = false;
    EXPECT_FALSE(compareToOracle(calib, cfg).allMatch);
}

// ------------------------------------------- scenario integration

TEST(CalibrateScenarios, RegistrySpansTheCalibrationMatrix)
{
    std::size_t cells = 0;
    std::set<ScenarioMachine> machines;
    std::set<std::string> noises;
    for (const ScenarioSpec &s : builtinScenarios().all()) {
        if (s.stage != ScenarioStage::Calibrate)
            continue;
        ++cells;
        machines.insert(s.machine);
        noises.insert(s.noise);
        EXPECT_TRUE(s.blind()) << s.name;
    }
    EXPECT_GE(cells, 6u);
    EXPECT_TRUE(machines.count(ScenarioMachine::SkylakeSp));
    EXPECT_TRUE(machines.count(ScenarioMachine::IceLakeSp));
    EXPECT_GE(noises.size(), 3u);
    EXPECT_STREQ(scenarioStageName(ScenarioStage::Calibrate),
                 "calibrate");
    // Blind campaigns exist as the oracle campaigns' counterparts.
    EXPECT_TRUE(spec("campaign-blind-skl-quiet-2").blindTopology);
    EXPECT_FALSE(spec("campaign-skl-lru-quiet-1").blind());
}

TEST(CalibrateScenarios, AnchorTrialRecordsTheCanonicalNames)
{
    ExperimentResult res =
        runScenario(spec("calib-tiny-lru-silent"), 2, 1, 42);
    ASSERT_NE(res.outcome("calibrated"), nullptr);
    ASSERT_NE(res.outcome("topology_match"), nullptr);
    ASSERT_NE(res.outcome("w_llc_match"), nullptr);
    ASSERT_NE(res.outcome("w_sf_match"), nullptr);
    ASSERT_NE(res.metric("calib_cycles"), nullptr);
    ASSERT_NE(res.metric("calib_test_evictions"), nullptr);
    // The silent anchor calibrates the way counts every time.
    EXPECT_EQ(res.outcome("calibrated")->rate(), 1.0);
    EXPECT_EQ(res.outcome("w_llc_match")->rate(), 1.0);
    EXPECT_EQ(res.outcome("w_sf_match")->rate(), 1.0);
    EXPECT_GT(res.metric("calib_cycles")->mean(), 0.0);
}

// Any stage can opt into blindness, not just campaigns: a blind
// eviction-set-build trial runs Step 0 first and then succeeds with
// the calibrated topology.
TEST(CalibrateScenarios, BlindEvsetBuildStageCalibratesFirst)
{
    ScenarioSpec s = spec("build-bins-tiny-lru-silent");
    s.name = "build-bins-tiny-lru-silent-blind";
    s.blindTopology = true;
    s.assumedMaxUncertainty = 16;
    s.assumedMaxWays = 8;
    s.calibSamplePages = 96;
    ExperimentResult res = runScenario(s, 2, 1, 42);
    ASSERT_NE(res.outcome("calibrated"), nullptr);
    EXPECT_EQ(res.outcome("calibrated")->rate(), 1.0);
    ASSERT_NE(res.outcome("success"), nullptr);
    EXPECT_EQ(res.outcome("success")->rate(), 1.0);
}

TEST(CalibrateScenarios, SuiteJsonIdenticalAcrossThreadCounts)
{
    const ScenarioSpec &s = spec("calib-tiny-lru-silent");
    ExperimentSuite one("calib"), eight("calib");
    one.add(runScenario(s, 3, 1, 42));
    eight.add(runScenario(s, 3, 8, 42));
    EXPECT_EQ(one.toJson(), eight.toJson());
}

// ------------------------------------------- blind-vs-oracle e2e

// The acceptance regression: with *no* oracle geometry, Step 0 feeds
// Steps 1-3 well enough to recover keys on the quiet Skylake-SP
// campaign, and the calibration cycles are charged to the cost.
TEST(BlindCampaign, RecoversKeysOnQuietSkylake)
{
    KeyRecoveryCampaign campaign(spec("campaign-blind-skl-quiet-2"));
    CampaignResult blind = campaign.run(1, 1, 42);
    EXPECT_EQ(blind.summary.keysRecovered, 1u);
    const StreamingStats *calib =
        blind.aggregate.metric("calib_cycles");
    ASSERT_NE(calib, nullptr);
    EXPECT_GT(calib->mean(), 0.0);
    // Calibration cost is part of the per-key cycle headline.
    const StreamingStats *total =
        blind.aggregate.metric("total_cycles");
    const StreamingStats *build =
        blind.aggregate.metric("build_cycles");
    const StreamingStats *scan = blind.aggregate.metric("scan_cycles");
    const StreamingStats *extract =
        blind.aggregate.metric("extract_cycles");
    ASSERT_NE(total, nullptr);
    EXPECT_NEAR(total->mean(),
                build->mean() + scan->mean() + extract->mean() +
                    calib->mean(),
                1.0);
}

TEST(BlindCampaign, TinySilentFleetMatchesOracleOutcome)
{
    // Oracle and blind fleets on the same host class both come home
    // with keys; the blind one just pays the Step-0 surcharge.
    KeyRecoveryCampaign blind(spec("campaign-blind-tiny-silent-2"));
    CampaignResult res = blind.run(2, 1, 42);
    EXPECT_EQ(res.summary.keysRecovered, 2u);
    EXPECT_EQ(res.summary.fleetSuccessRate, 1.0);
    ASSERT_NE(res.aggregate.outcome("topology_match"), nullptr);
}

} // namespace
} // namespace llcf

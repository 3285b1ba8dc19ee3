/**
 * @file
 * Tests for the fleet-scale key-recovery campaign subsystem: registry
 * coverage of the campaign matrix, per-victim world diversity
 * (distinct keys, page offsets, noise), the fleet summary arithmetic,
 * campaign JSON (including the null cycles-per-key of an empty-handed
 * campaign), the paper-consistent success band on the quiet
 * Skylake-SP campaign, 1-vs-8-thread byte-identical suite JSON, and
 * the end-to-end partial-result path against a quota-limited victim.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <string>

#include "attack/e2e.hh"
#include "campaign/campaign.hh"
#include "scenario/registry.hh"

namespace llcf {
namespace {

const ScenarioSpec &
campaignSpec(const char *name)
{
    const ScenarioSpec *spec = builtinScenarios().find(name);
    EXPECT_NE(spec, nullptr) << name;
    return *spec;
}

// ----------------------------------------------------------- registry

TEST(CampaignRegistry, BuiltinsSpanTheFleetMatrix)
{
    std::set<ScenarioMachine> machines;
    std::set<std::string> noises;
    std::set<unsigned> fleets;
    std::size_t campaigns = 0;
    for (const ScenarioSpec &s : builtinScenarios().all()) {
        if (s.stage != ScenarioStage::Campaign)
            continue;
        ++campaigns;
        machines.insert(s.machine);
        noises.insert(s.noise);
        fleets.insert(s.fleetSize);
        // A campaign's default trial count is its fleet.
        EXPECT_EQ(s.defaultTrials, s.fleetSize) << s.name;
        EXPECT_GE(s.fleetSize, 1u) << s.name;
    }
    EXPECT_GE(campaigns, 4u);
    EXPECT_TRUE(machines.count(ScenarioMachine::SkylakeSp));
    EXPECT_TRUE(machines.count(ScenarioMachine::IceLakeSp));
    EXPECT_TRUE(noises.count("cloud-run-3-5am")); // quiet hours
    EXPECT_TRUE(noises.count("cloud-run"));
    EXPECT_TRUE(fleets.count(1u));
    EXPECT_TRUE(fleets.count(4u));
    EXPECT_TRUE(fleets.count(16u));
    EXPECT_STREQ(scenarioStageName(ScenarioStage::Campaign),
                 "campaign");
}

TEST(CampaignRegistry, RejectsNonCampaignSpecs)
{
    const ScenarioSpec &build =
        campaignSpec("build-bins-tiny-lru-silent");
    EXPECT_DEATH(KeyRecoveryCampaign{build}, "not campaign");
}

// ------------------------------------------------ per-victim worlds

TEST(CampaignFleet, VictimsDifferInKeyOffsetAndNoise)
{
    ScenarioSpec spec = campaignSpec("campaign-tiny-quota-mixed-4");
    ASSERT_GE(spec.fleetNoises.size(), 2u);

    // Rebuild two victims' worlds the way runScenarioTrial's Campaign
    // stage does: positional trial streams off one master seed.
    struct World
    {
        World(const ScenarioSpec &spec, std::size_t v)
            : rig(spec, streamSeed(42, v))
        {
            VictimConfig vcfg;
            vcfg.seed = streamSeed(rig.victimSeed(), 0);
            vcfg.targetLineIndex =
                (spec.fleetLineIndexBase +
                 spec.fleetLineIndexStep * static_cast<unsigned>(v)) %
                kLinesPerPage;
            victim = std::make_unique<EcdsaLadderVictim>(rig.machine, vcfg);
        }
        ScenarioRig rig;
        std::unique_ptr<EcdsaLadderVictim> victim;
    };
    World a(spec, 0), b(spec, 1);

    // Distinct ECDSA keys, distinct page offsets.
    EXPECT_NE(a.victim->keyPair().d, b.victim->keyPair().d);
    EXPECT_NE(a.victim->targetLineIndex(), b.victim->targetLineIndex());
    EXPECT_NE(pageLineIndex(a.victim->targetLinePa()),
              pageLineIndex(b.victim->targetLinePa()));

    // The noise rotation assigns different environments to the two.
    EXPECT_NE(spec.fleetNoises[0], spec.fleetNoises[1]);

    // Same (spec, index) reproduces the same victim exactly.
    World a2(spec, 0);
    EXPECT_EQ(a.victim->keyPair().d, a2.victim->keyPair().d);
    EXPECT_EQ(a.victim->targetLinePa(), a2.victim->targetLinePa());
}

// ------------------------------------------------- fleet aggregation

TEST(CampaignSummaryTest, DerivesFleetMetricsFromAggregate)
{
    // Synthetic campaign: 4 victims, 3 keys recovered, known cycles,
    // folded in trial order exactly as the shard step folds them.
    TrialAggregate aggregate;
    for (std::size_t v = 0; v < 4; ++v) {
        TrialRecorder rec;
        rec.outcome("key_recovered", v != 2);
        rec.metric("total_cycles", 1000.0 * static_cast<double>(v + 1));
        aggregate.fold(rec);
    }

    CampaignSummary s = summarizeCampaign(aggregate);
    EXPECT_EQ(s.fleet, 4u);
    EXPECT_EQ(s.keysRecovered, 3u);
    EXPECT_DOUBLE_EQ(s.fleetSuccessRate, 0.75);
    EXPECT_DOUBLE_EQ(s.totalAttackCycles, 10000.0);
    EXPECT_DOUBLE_EQ(s.cyclesPerRecoveredKey, 10000.0 / 3.0);
}

TEST(CampaignSummaryTest, EmptyHandedCampaignSerialisesNullCostPerKey)
{
    CampaignResult result;
    result.name = "all-miss";
    result.masterSeed = 42;
    for (std::size_t v = 0; v < 2; ++v) {
        TrialRecorder rec;
        rec.outcome("key_recovered", false);
        rec.metric("total_cycles", 500.0);
        result.aggregate.fold(rec);
    }
    result.summary = summarizeCampaign(result.aggregate);
    result.campaign = result.summary.jsonMembers();
    EXPECT_EQ(result.summary.keysRecovered, 0u);
    EXPECT_TRUE(std::isnan(result.summary.cyclesPerRecoveredKey));

    JsonWriter w;
    result.writeJson(w);
    const std::string doc = w.str();
    // NaN must never leak into the document: the per-key cost of an
    // empty-handed campaign is an explicit null.
    EXPECT_EQ(doc.find("nan"), std::string::npos);
    EXPECT_NE(doc.find("\"cycles_per_recovered_key\": null"),
              std::string::npos);
    EXPECT_NE(doc.find("\"fleet_success_rate\": 0"), std::string::npos);

    JsonValue parsed;
    ASSERT_TRUE(parseJson(doc, parsed));
    const JsonValue *per_key =
        parsed.find("campaign", "cycles_per_recovered_key");
    ASSERT_NE(per_key, nullptr);
    EXPECT_TRUE(per_key->isNull());
}

// ------------------------------------- paper-consistent success band

TEST(CampaignRegression, QuietSkylakeFleetRecoversKeys)
{
    // The headline scenario, scaled to a 3-victim fleet so the suite
    // stays affordable: on the quiet Skylake-SP host the paper's full
    // pipeline recovers keys reliably, so at least 2 of 3 victims
    // must fall and the recovered-bit quality must stay in the
    // paper's bands (near-complete nonces, low bit-error rate).
    KeyRecoveryCampaign campaign(
        campaignSpec("campaign-skl-lru-quiet-16"));
    CampaignResult result = campaign.run(3, 0, 42);

    EXPECT_EQ(result.summary.fleet, 3u);
    EXPECT_GE(result.summary.fleetSuccessRate, 2.0 / 3.0);
    EXPECT_GT(result.summary.cyclesPerRecoveredKey, 0.0);

    const StreamingStats *rf =
        result.aggregate.metric("recovered_fraction");
    ASSERT_NE(rf, nullptr);
    ASSERT_FALSE(rf->empty());
    EXPECT_GT(rf->median(), 0.7);
    const StreamingStats *ber =
        result.aggregate.metric("bit_error_rate");
    ASSERT_NE(ber, nullptr);
    ASSERT_FALSE(ber->empty());
    EXPECT_LT(ber->median(), 0.2);

    // The campaign aggregates the hierarchy counters unconditionally.
    const StreamingStats *pc = result.aggregate.metric("pc_accesses");
    ASSERT_NE(pc, nullptr);
    EXPECT_GT(pc->mean(), 0.0);
}

// ------------------------------------------------------- determinism

TEST(CampaignDeterminism, SuiteJsonIdenticalAcrossThreadCounts)
{
    const ScenarioSpec &spec =
        campaignSpec("campaign-tiny-quota-mixed-4");
    ExperimentSuite one("e2e"), eight("e2e");
    one.add(KeyRecoveryCampaign(spec).run(4, 1, 7));
    eight.add(KeyRecoveryCampaign(spec).run(4, 8, 7));
    EXPECT_EQ(one.toJson(), eight.toJson());
}

// --------------------------------------- partial results under quota

TEST(CampaignQuota, EndToEndSurvivesVictimExhaustion)
{
    // A victim whose request quota dies mid-Step-3: the attack must
    // return a partial E2EResult (fewer traces than asked) instead of
    // indexing an empty execution list.
    ScenarioSpec spec = campaignSpec("e2e-bins-tiny-lru-silent");
    spec.scanTimeoutSec = 1.0;
    ScenarioRig rig(spec, streamSeed(42, 0));

    VictimConfig vcfg;
    vcfg.seed = streamSeed(rig.victimSeed(), 0);
    EcdsaLadderVictim probe(rig.machine, vcfg); // quota sizing only
    // Step 2 schedules scanRequestCount() trigger requests before
    // scanning; leave quota for exactly one Step-3 signing after.
    ScannerParams sizing;
    sizing.timeout = secToCycles(spec.scanTimeoutSec);
    vcfg.requestQuota =
        EndToEndAttack::scanRequestCount(probe, sizing) + 1;
    EcdsaLadderVictim victim(rig.machine, vcfg);

    VictimConfig rcfg = vcfg;
    rcfg.seed = streamSeed(rig.victimSeed(), 1);
    rcfg.requestQuota = 0; // training replica is the attacker's own
    EcdsaLadderVictim replica(rig.machine, rcfg);
    TraceClassifier classifier =
        trainScenarioClassifier(spec, rig, replica);

    NonceExtractor extractor;
    E2EParams params;
    params.algo = spec.algo;
    params.useFilter = spec.useFilter;
    params.tracesPerVictim = 3; // only 1 is within quota
    params.scanner.timeout = secToCycles(spec.scanTimeoutSec);
    EndToEndAttack attack(*rig.session, victim, classifier, extractor,
                          params);
    E2EResult res = attack.run(*rig.pool);

    ASSERT_TRUE(res.evsetsBuilt);
    ASSERT_TRUE(res.targetFound);
    EXPECT_TRUE(res.targetCorrect);
    EXPECT_EQ(res.tracesCollected, 1u);
    EXPECT_EQ(res.recoveredFraction.count(), 1u);
    EXPECT_EQ(victim.remainingQuota(), 0u);
}

// ------------------------- harness-dispatch (--suite=scenarios)

TEST(CampaignDispatch, RunsAsScenarioStage)
{
    // Stage::Campaign dispatches through runScenarioTrial, so the
    // scenario harness (and --suite=scenarios --scenario=campaign-*) can
    // drive a single fleet member and record the campaign metrics.
    const ScenarioSpec &spec =
        campaignSpec("campaign-tiny-quota-mixed-4");
    ExperimentResult res = runScenario(spec, 1, 0, 42);
    EXPECT_EQ(res.trials(), 1u);
    EXPECT_NE(res.outcome("key_recovered"), nullptr);
    EXPECT_NE(res.metric("traces_collected"), nullptr);
    EXPECT_NE(res.metric("pc_accesses"), nullptr);
}

} // namespace
} // namespace llcf

/**
 * @file
 * Tests for the scenario subsystem: registry coverage of the
 * machine x policy x noise x stage matrix, spec resolution, selection
 * syntax, statistical regression bands for the anchor scenarios
 * (fixed seeds, tolerance-banded success rates and cycle quantiles),
 * the load-bearing determinism property — byte-identical suite JSON
 * for 1 vs 8 harness threads — suite membership, and the declared
 * per-cell expectations bench_suite checks on every run.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <set>
#include <string>
#include <vector>

#include "scenario/registry.hh"
#include "scenario/scenario.hh"

namespace llcf {
namespace {

// ----------------------------------------------------------- registry

TEST(Registry, BuiltinsSpanTheMatrix)
{
    const ScenarioRegistry &reg = builtinScenarios();
    EXPECT_GE(reg.all().size(), 12u);

    std::set<ScenarioMachine> machines;
    std::set<ReplKind> repls;
    std::set<std::string> noises;
    std::set<ScenarioStage> stages;
    std::set<std::string> names;
    for (const ScenarioSpec &s : reg.all()) {
        machines.insert(s.machine);
        repls.insert(s.sharedRepl);
        noises.insert(s.noise);
        stages.insert(s.stage);
        EXPECT_TRUE(names.insert(s.name).second)
            << "duplicate scenario name " << s.name;
        EXPECT_FALSE(s.description.empty()) << s.name;
    }
    // Both host configurations of the paper.
    EXPECT_TRUE(machines.count(ScenarioMachine::SkylakeSp));
    EXPECT_TRUE(machines.count(ScenarioMachine::IceLakeSp));
    // All four replacement policies.
    EXPECT_EQ(repls.size(), 4u);
    // At least two noise regimes.
    EXPECT_GE(noises.size(), 2u);
    // Every pipeline stage (campaigns since PR 4, Step-0 blind
    // calibration since PR 5).
    EXPECT_EQ(stages.size(), 5u);
    EXPECT_TRUE(stages.count(ScenarioStage::Campaign));
    EXPECT_TRUE(stages.count(ScenarioStage::Calibrate));
}

TEST(Registry, SpecsResolveToValidWorlds)
{
    for (const ScenarioSpec &s : builtinScenarios().all()) {
        MachineConfig cfg = s.machineConfig(); // check()s internally
        EXPECT_EQ(cfg.llcRepl, s.sharedRepl) << s.name;
        EXPECT_EQ(cfg.sfRepl, s.sharedRepl) << s.name;
        EXPECT_EQ(s.noiseProfile().name, s.noise) << s.name;
    }
}

TEST(Registry, FindAndSelect)
{
    const ScenarioRegistry &reg = builtinScenarios();
    ASSERT_NE(reg.find("build-bins-tiny-lru-silent"), nullptr);
    EXPECT_EQ(reg.find("no-such-scenario"), nullptr);

    auto builds = reg.select("build-*");
    EXPECT_GE(builds.size(), 8u);
    for (const ScenarioSpec *s : builds)
        EXPECT_EQ(s->stage, ScenarioStage::EvsetBuild) << s->name;

    // Exact + glob selection, duplicates dropped, registry order kept.
    auto picked = reg.select(
        "e2e-bins-tiny-lru-silent,build-*,build-gt-skl-lru-local");
    EXPECT_EQ(picked.size(), builds.size() + 1);
    EXPECT_EQ(picked.front()->name, "build-gt-skl-lru-local");
    EXPECT_EQ(picked.back()->name, "e2e-bins-tiny-lru-silent");

    EXPECT_DEATH((void)reg.select("definitely-missing"), "no scenario");
}

TEST(Registry, RejectsDuplicateNames)
{
    ScenarioRegistry reg;
    ScenarioSpec s;
    s.name = "dup";
    s.description = "x";
    reg.add(s);
    EXPECT_DEATH(reg.add(s), "duplicate scenario");
}

TEST(Registry, AxisNamesParseRoundTrip)
{
    // The registry's axes are addressable by their printed names —
    // what a future per-axis CLI (and the --list output) relies on.
    for (PruneAlgo algo : kAllPruneAlgos) {
        PruneAlgo parsed;
        ASSERT_TRUE(parsePruneAlgo(pruneAlgoName(algo), parsed));
        EXPECT_EQ(parsed, algo);
    }
    PruneAlgo out;
    EXPECT_TRUE(parsePruneAlgo("bins", out));
    EXPECT_EQ(out, PruneAlgo::BinS);
    EXPECT_FALSE(parsePruneAlgo("quicksort", out));

    NoiseProfile p;
    for (const ScenarioSpec &s : builtinScenarios().all())
        EXPECT_TRUE(noiseProfileByName(s.noise, p)) << s.noise;
    EXPECT_FALSE(noiseProfileByName("hurricane", p));
}

// ------------------------------------------------- rig reproducibility

TEST(ScenarioRig, IdenticalFromSameSpecAndSeed)
{
    const ScenarioSpec *spec =
        builtinScenarios().find("build-bins-tiny-lru-silent");
    ASSERT_NE(spec, nullptr);
    ScenarioRig a(*spec, 1234), b(*spec, 1234);
    EXPECT_EQ(a.machine.config().name, b.machine.config().name);
    EXPECT_EQ(a.victimSeed(), b.victimSeed());
    ASSERT_EQ(a.pool->pages(), b.pool->pages());
    for (std::size_t p = 0; p < a.pool->pages(); p += 7)
        EXPECT_EQ(a.pool->at(p, 3), b.pool->at(p, 3));

    ScenarioRig c(*spec, 1235);
    EXPECT_NE(a.victimSeed(), c.victimSeed());
}

// -------------------------------------- statistical regression bands

TEST(ScenarioRegression, TinySilentBuildWithinBands)
{
    const ScenarioSpec *spec =
        builtinScenarios().find("build-bins-tiny-lru-silent");
    ASSERT_NE(spec, nullptr);
    ExperimentResult res = runScenario(*spec, 6, 0, 42);

    const SuccessRate *sr = res.outcome("success");
    ASSERT_NE(sr, nullptr);
    EXPECT_EQ(sr->trials(), 6u);
    EXPECT_GE(sr->rate(), 0.8);

    const StreamingStats *t = res.metric("build_cycles");
    ASSERT_NE(t, nullptr);
    ASSERT_FALSE(t->empty());
    // Observed ~73 us median on the tiny machine; the band is wide
    // enough for compiler/libm variation but catches order-of-
    // magnitude regressions in the fast path.
    EXPECT_GE(t->median(), static_cast<double>(usToCycles(10.0)));
    EXPECT_LE(t->median(), static_cast<double>(usToCycles(1000.0)));
    EXPECT_LE(t->percentile(90.0),
              static_cast<double>(msToCycles(10.0)));
}

TEST(ScenarioRegression, ScaledSkylakeBuildWithinBands)
{
    const ScenarioSpec *spec =
        builtinScenarios().find("build-bins-sklscaled-lru-local");
    ASSERT_NE(spec, nullptr);
    ExperimentResult res = runScenario(*spec, 3, 0, 42);

    const SuccessRate *sr = res.outcome("success");
    ASSERT_NE(sr, nullptr);
    EXPECT_GE(sr->rate(), 2.0 / 3.0);

    const StreamingStats *t = res.metric("build_cycles");
    ASSERT_NE(t, nullptr);
    ASSERT_FALSE(t->empty());
    // Observed ~1.2 ms median at 2 slices.
    EXPECT_GE(t->median(), static_cast<double>(usToCycles(100.0)));
    EXPECT_LE(t->median(), static_cast<double>(msToCycles(30.0)));
}

TEST(ScenarioRegression, TinyScanFindsTheTargetSet)
{
    const ScenarioSpec *spec =
        builtinScenarios().find("scan-bins-tiny-lru-local");
    ASSERT_NE(spec, nullptr);
    ExperimentResult res = runScenario(*spec, 2, 0, 42);

    const SuccessRate *built = res.outcome("evsets_built");
    ASSERT_NE(built, nullptr);
    EXPECT_EQ(built->rate(), 1.0);
    const SuccessRate *correct = res.outcome("target_correct");
    ASSERT_NE(correct, nullptr);
    EXPECT_GE(correct->rate(), 0.5);
    const StreamingStats *scanned = res.metric("sets_scanned");
    ASSERT_NE(scanned, nullptr);
    EXPECT_GT(scanned->mean(), 0.0);
}

TEST(ScenarioRegression, TinyEndToEndRecoversNonceBits)
{
    const ScenarioSpec *spec =
        builtinScenarios().find("e2e-bins-tiny-lru-silent");
    ASSERT_NE(spec, nullptr);
    ExperimentResult res = runScenario(*spec, 1, 0, 42);

    const SuccessRate *correct = res.outcome("target_correct");
    ASSERT_NE(correct, nullptr);
    EXPECT_EQ(correct->rate(), 1.0);
    const StreamingStats *recovered = res.metric("recovered_fraction");
    ASSERT_NE(recovered, nullptr);
    ASSERT_FALSE(recovered->empty());
    EXPECT_GT(recovered->median(), 0.4);
    const StreamingStats *total = res.metric("total_cycles");
    ASSERT_NE(total, nullptr);
    EXPECT_GT(total->mean(), 0.0);
}

// ------------------------------------------------------- determinism

TEST(ScenarioDeterminism, SuiteJsonIdenticalAcrossThreadCounts)
{
    const ScenarioRegistry &reg = builtinScenarios();
    const char *anchors[] = {"build-bins-tiny-lru-silent",
                             "scan-bins-tiny-srrip-silent"};
    ExperimentSuite one("scenarios"), eight("scenarios");
    for (const char *name : anchors) {
        const ScenarioSpec *spec = reg.find(name);
        ASSERT_NE(spec, nullptr) << name;
        const std::size_t trials =
            spec->stage == ScenarioStage::EvsetBuild ? 4 : 2;
        one.add(runScenario(*spec, trials, 1, 7));
        eight.add(runScenario(*spec, trials, 8, 7));
    }
    EXPECT_EQ(one.toJson(), eight.toJson());
}

TEST(ScenarioDeterminism, RepeatedRunsAreBitIdentical)
{
    const ScenarioSpec *spec =
        builtinScenarios().find("build-bins-tiny-lru-silent");
    ASSERT_NE(spec, nullptr);
    ExperimentSuite a("scenarios"), b("scenarios");
    a.add(runScenario(*spec, 3, 2, 99));
    b.add(runScenario(*spec, 3, 3, 99));
    EXPECT_EQ(a.toJson(), b.toJson());
}

// --------------------------------------------- counters on failure

/** The names of @p entries in first-recorded order, minus the Step-0,
 *  calib_*, def_* and pc_* series (axis series, not stage series). */
template <typename Entries>
std::vector<std::string>
stageSeriesNames(const Entries &entries)
{
    std::set<std::string> step0 = {"calibrated", "topology_match"};
    const MachineConfig cfg = tinyTest(2);
    for (const CalibrationFieldReport &f :
         compareToOracle(CalibratedTopology{}, cfg).fields) {
        step0.insert(f.field);
        step0.insert(std::string(f.field) + "_match");
    }
    std::vector<std::string> out;
    for (const auto &[name, stats] : entries) {
        if (step0.count(name) || name.rfind("calib_", 0) == 0 ||
            name.rfind("def_", 0) == 0 || name.rfind("pc_", 0) == 0)
            continue;
        out.push_back(name);
    }
    return out;
}

TEST(ScenarioCounters, RecordedWhenTheBulkBuildFails)
{
    // A scan trial that stops early records the same stage series as
    // a full one (explicit false / 0), plus pc_* under LLCF_COUNTERS.
    // The way partition starves the scan cell's bulk build (0 sets on
    // both smoke trials); the test-local blind scan inherits the
    // fast-re-key calibration cell's host, so its Step 0 fails.
    const ScenarioRegistry &reg = builtinScenarios();
    const ScenarioSpec *full = reg.find("scan-bins-tiny-lru-local");
    const ScenarioSpec *waypart = reg.find("defense-waypart-tiny-scan");
    const ScenarioSpec *rekey = reg.find("defense-rekey-fast-tiny-calib");
    ASSERT_NE(full, nullptr);
    ASSERT_NE(waypart, nullptr);
    ASSERT_NE(rekey, nullptr);
    ScenarioSpec blindScan = *rekey;
    blindScan.name = "blind-scan-rekey-fast-tiny";
    blindScan.stage = ScenarioStage::Scan;
    blindScan.blindTopology = true;

    setenv("LLCF_COUNTERS", "1", 1);
    const ExperimentResult ref = runScenario(*full, 1, 0, 42);
    const ExperimentResult starved = runScenario(*waypart, 2, 0, 42);
    const ExperimentResult uncalibrated = runScenario(blindScan, 2, 0, 42);
    unsetenv("LLCF_COUNTERS");

    const SuccessRate *built = starved.outcome("evsets_built");
    ASSERT_NE(built, nullptr);
    EXPECT_EQ(built->successes(), 0u);
    const SuccessRate *calibrated = uncalibrated.outcome("calibrated");
    ASSERT_NE(calibrated, nullptr);
    EXPECT_EQ(calibrated->successes(), 0u);

    for (const ExperimentResult *early : {&starved, &uncalibrated}) {
        SCOPED_TRACE(early->name);
        EXPECT_EQ(stageSeriesNames(early->outcomes()),
                  stageSeriesNames(ref.outcomes()));
        EXPECT_EQ(stageSeriesNames(early->metrics()),
                  stageSeriesNames(ref.metrics()));
        for (const char *name : {"target_found", "target_correct"}) {
            const SuccessRate *o = early->outcome(name);
            ASSERT_NE(o, nullptr) << name;
            EXPECT_EQ(o->trials(), 2u) << name;
            EXPECT_EQ(o->successes(), 0u) << name;
        }
        for (const char *name : {"scan_cycles", "sets_scanned"}) {
            const StreamingStats *m = early->metric(name);
            ASSERT_NE(m, nullptr) << name;
            EXPECT_EQ(m->count(), 2u) << name;
            EXPECT_EQ(m->max(), 0.0) << name;
        }
        const StreamingStats *pc = early->metric("pc_accesses");
        ASSERT_NE(pc, nullptr);
        EXPECT_EQ(pc->count(), 2u);
    }
}

// ----------------------------------------------- suites and bounds

TEST(ScenarioSuites, EveryCellHasOneSuite)
{
    const ScenarioRegistry &reg = builtinScenarios();
    EXPECT_EQ(scenarioSuite(*reg.find("build-bins-tiny-lru-silent")),
              ScenarioSuite::Scenarios);
    EXPECT_EQ(scenarioSuite(*reg.find("campaign-fork-tiny-silent-96")),
              ScenarioSuite::E2e);
    EXPECT_EQ(scenarioSuite(*reg.find("campaign-fork-tiny-silent-100k")),
              ScenarioSuite::FullScale);
    EXPECT_EQ(scenarioSuite(*reg.find("calib-tiny-lru-silent")),
              ScenarioSuite::Calib);
    // Axis cells belong to their axis whatever their stage.
    EXPECT_EQ(scenarioSuite(*reg.find("defense-rekey-fast-tiny-calib")),
              ScenarioSuite::Defense);
    EXPECT_EQ(scenarioSuite(*reg.find("defense-rekey-tiny-campaign-2")),
              ScenarioSuite::Defense);
    EXPECT_EQ(scenarioSuite(*reg.find("traffic-rotate-tiny-campaign-2")),
              ScenarioSuite::Traffic);
    EXPECT_EQ(scenarioSuite(*reg.find("traffic-budget-20ms")),
              ScenarioSuite::Traffic);
}

/** A "benchmarks" entry carrying the expectation's series with
 *  @p value (a JSON number or null), or no series when empty. */
JsonValue
fabricatedEntry(const ScenarioExpectation &e, const std::string &value)
{
    const bool rate = e.kind == ScenarioExpectation::Series::OutcomeRate;
    char text[160] = "{}";
    if (!value.empty()) {
        std::snprintf(text, sizeof(text), R"({"%s": {"%s": {"%s": %s}}})",
                      rate ? "outcomes" : "metrics", e.name.c_str(),
                      rate ? "rate" : "mean", value.c_str());
    }
    JsonValue v;
    EXPECT_TRUE(parseJson(text, v)) << text;
    return v;
}

TEST(ScenarioExpectations, HardGatedCellsDeclareTheirBounds)
{
    // Each formerly hard-coded bench gate and each declared "attack
    // dies" or "attack survives" regime, with a value just inside and
    // one just outside its bound (strictness included).
    struct Case
    {
        const char *cell;
        const char *inside;
        const char *outside;
    };
    const Case cases[] = {
        {"defense-rekey-fast-tiny-build", "0.0999", "0.1"},
        {"defense-none-tiny-e2e", "0.5", "0.4999"},
        {"traffic-aes-tiny-e2e", "1", "0.9999"},
        {"traffic-sparse-tiny-scan", "0.5", "0.5001"},
        {"traffic-rotate-tiny-campaign-2", "1.0001", "1"},
        // The declared "attack dies" regimes.
        {"defense-waypart-tiny-scan", "0", "0.0001"},
        {"calib-skl-plru-quiet", "0", "0.0001"},
        {"defense-rekey-fast-tiny-calib", "0", "0.0001"},
        {"defense-waypart-tiny-e2e", "0", "0.0001"},
        // ... and the declared "attack survives" regimes.
        {"defense-rekey-off-tiny-e2e", "0.5", "0.4999"},
        {"defense-sfpart-icx-build", "0.5", "0.4999"},
        {"defense-rekey-slow-tiny-build", "0.5", "0.4999"},
        {"defense-rekey-off-tiny-calib", "0.5", "0.4999"},
    };
    for (const Case &c : cases) {
        const ScenarioSpec *spec = builtinScenarios().find(c.cell);
        ASSERT_NE(spec, nullptr) << c.cell;
        const ScenarioExpectation &e = spec->expect;
        ASSERT_TRUE(e.declared()) << c.cell;
        EXPECT_FALSE(e.reason.empty()) << c.cell;

        std::string why;
        auto meets = [&](const std::string &value) {
            return meetsExpectation(e, fabricatedEntry(e, value), &why);
        };
        EXPECT_TRUE(meets(c.inside)) << c.cell << ": " << why;
        EXPECT_FALSE(meets(c.outside)) << c.cell;
        EXPECT_NE(why.find(e.reason), std::string::npos) << why;
        EXPECT_FALSE(meets("")) << c.cell << ": a missing series must fail";
        EXPECT_FALSE(meets("null")) << c.cell << ": an empty one must fail";
    }
}

TEST(ScenarioExpectations, UndeclaredCellsAlwaysPass)
{
    const ScenarioSpec *spec =
        builtinScenarios().find("build-bins-tiny-lru-silent");
    ASSERT_NE(spec, nullptr);
    EXPECT_FALSE(spec->expect.declared());
    JsonValue empty;
    ASSERT_TRUE(parseJson("{}", empty));
    EXPECT_TRUE(meetsExpectation(spec->expect, empty, nullptr));
}

} // namespace
} // namespace llcf

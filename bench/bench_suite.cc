/**
 * @file
 * The scenario-suite driver: one binary for every registry-backed
 * BENCH_*.json.  A cell's suite is derived from its spec by
 * scenarioSuite() (src/scenario/), so this file keeps only what truly
 * differs per suite: one row of kSuites, the band-gated series, and
 * the stdout row formats.
 *
 *   bench_suite --suite=S --list          enumerate the suite's cells
 *   bench_suite --suite=S                 run every cell, full trials
 *   bench_suite --suite=S --scenario=P    run a named subset (globs ok)
 *   bench_suite --suite=S --smoke         capped trials per cell (CI)
 *   bench_suite --suite=S --smoke --baseline=BENCH_S.json
 *                                         + regression gate: rates
 *                                         inside the baseline's
 *                                         absolute band, cycle means
 *                                         inside its relative band;
 *                                         exits 1 on a violation
 *
 * Suites (S):
 *   scenarios  the single-victim matrix, 1 trial per cell under
 *              --smoke; --scenario= may name ANY registered cell and
 *              runs it through the per-trial harness.  No baseline.
 *   e2e        victim-fleet campaigns through KeyRecoveryCampaign,
 *              fleets capped at 2 under --smoke.  With --full-scale
 *              it runs the fullScaleOnly tier instead and writes
 *              BENCH_fullscale.json.  Only this suite takes
 *              --checkpoint=cp.json [--resume] [--stop-after-shards=N]
 *              (one campaign; an interrupted run exits 3 and writes
 *              no JSON -- resume it).
 *   calib      Step-0 blind calibration, trials capped at 2.
 *   defense    every cell that deploys or measures a defense.
 *   traffic    every cell setting a traffic-axis knob.
 * Outside the scenarios suite, --scenario= naming a cell of another
 * suite exits 2.
 *
 * Every run, baseline or not, checks each cell's declared expectation
 * (ScenarioSpec::expect: the kill-cell ceiling, the undefended floor,
 * the AES nibble floor, the starved cell's explicit miss, the rotation
 * epoch count) and exits 1 when one fails.
 *
 * For a fixed seed the JSON is byte-identical at any worker-thread
 * count, and a resumed campaign's JSON is byte-identical to an
 * uninterrupted one.  Wall-clock numbers stay on stdout.  The
 * checked-in baselines at the repository root are regenerated with:
 *   ./build/bench_suite --suite=<e2e|calib|defense|traffic> --smoke \
 *       --json-out=BENCH_<suite>.json
 *   ./build/bench_suite --suite=e2e --full-scale --trials=2000 \
 *       --json-out=BENCH_fullscale.json
 * (the committed full-scale baseline uses a 2,000-victim fleet: its
 * per-victim bands cover both CI's 200-victim gate and the nightly
 * true 10^5 fleet).
 */

#include "bench_common.hh"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <optional>

#include "campaign/campaign.hh"
#include "harness/json.hh"
#include "scenario/registry.hh"

namespace llcf {
namespace {

/** Everything that differs between suites, as data. */
struct SuiteRow
{
    ScenarioSuite suite;
    const char *title;       //!< stdout heading
    std::size_t smokeTrials; //!< --smoke cap (victims, for campaigns)
    double rateTolerance;    //!< absolute rate band; 0 = no baseline gate
    double cyclesTolerance;  //!< relative band on cycle means
};

/** The five --suite values plus e2e's --full-scale tier. */
const SuiteRow kSuites[] = {
    {ScenarioSuite::Scenarios, "Scenario matrix", 1, 0.0, 0.0},
    {ScenarioSuite::E2e, "End-to-end key-recovery campaigns", 2, 0.5, 0.5},
    {ScenarioSuite::FullScale, "Full-scale key-recovery fleets", 2, 0.5, 0.5},
    {ScenarioSuite::Calib, "Step-0 blind topology calibration", 2, 0.51, 0.5},
    {ScenarioSuite::Defense, "Defense-vs-attacker matrix", 2, 0.51, 0.5},
    {ScenarioSuite::Traffic, "Heavy-traffic matrix", 2, 0.51, 0.5},
};

bool
runsCampaigns(const SuiteRow &row)
{
    return row.suite == ScenarioSuite::E2e ||
           row.suite == ScenarioSuite::FullScale;
}

/** The stage's headline attack outcome. */
const char *
primaryOutcome(ScenarioStage stage)
{
    switch (stage) {
      case ScenarioStage::EvsetBuild:
        return "success";
      case ScenarioStage::Scan:
      case ScenarioStage::EndToEnd:
        return "target_correct";
      case ScenarioStage::Campaign:
        return "key_recovered";
      case ScenarioStage::Calibrate:
        return "topology_match";
    }
    return "success";
}

/** The stage's attack-cost metric. */
const char *
primaryCycles(ScenarioStage stage)
{
    switch (stage) {
      case ScenarioStage::EvsetBuild:
        return "build_cycles";
      case ScenarioStage::Scan:
        return "scan_cycles";
      case ScenarioStage::EndToEnd:
      case ScenarioStage::Campaign:
        return "total_cycles";
      case ScenarioStage::Calibrate:
        return "calib_cycles";
    }
    return "build_cycles";
}

/** One baseline-gated series: entry[group][name][field], or
 *  entry[group][name] when field is empty. */
struct Band
{
    const char *group;
    std::string name;
    const char *field;
    bool relative; //!< cycles band (relative) vs rate band (absolute)
    bool required; //!< absent on both sides fails too

    const JsonValue *
    find(const JsonValue &entry) const
    {
        const JsonValue *v = *field ? entry.find(group, name, field)
                                    : entry.find(group, name);
        return v && v->isNumber() ? v : nullptr;
    }
};

/**
 * The series a suite's baseline gate bands for one cell.  Calibration
 * gates every accuracy axis and demands each be present.  Defense and
 * traffic gate the stage's headline pair, where a defense or load
 * that kills an earlier stage leaves the later series unrecorded in
 * the run AND the baseline -- absent on both sides is consistent.
 * Campaigns gate the fleet success rate and per-victim total cycles.
 */
std::vector<Band>
gatedSeries(ScenarioSuite suite, ScenarioStage stage)
{
    switch (suite) {
      case ScenarioSuite::Calib: {
        std::vector<Band> bands;
        for (const char *o : {"calibrated", "w_llc_match", "w_sf_match",
                              "slices_match", "topology_match"})
            bands.push_back({"outcomes", o, "rate", false, true});
        bands.push_back({"metrics", "calib_cycles", "mean", true, true});
        return bands;
      }
      case ScenarioSuite::Defense:
      case ScenarioSuite::Traffic:
        return {{"outcomes", primaryOutcome(stage), "rate", false, false},
                {"metrics", primaryCycles(stage), "mean", true, false}};
      case ScenarioSuite::E2e:
      case ScenarioSuite::FullScale:
        return {{"campaign", "fleet_success_rate", "", false, true},
                {"metrics", "total_cycles", "mean", true, false}};
      case ScenarioSuite::Scenarios:
        break;
    }
    return {};
}

void
listCells(const std::vector<const ScenarioSpec *> &specs)
{
    std::printf("%-32s %-11s %-18s %-8s %-5s %-15s %s\n", "name",
                "stage", "machine", "repl", "algo", "noise",
                "description");
    for (const ScenarioSpec *s : specs) {
        char machine[32];
        std::snprintf(machine, sizeof(machine), "%s/%usl",
                      scenarioMachineName(s->machine), s->slices);
        std::printf("%-32s %-11s %-18s %-8s %-5s %-15s %s\n",
                    s->name.c_str(), scenarioStageName(s->stage),
                    machine, replKindName(s->sharedRepl),
                    pruneAlgoName(s->algo), s->noise.c_str(),
                    s->description.c_str());
    }
}

/** The suite's extra stdout series after success and cost. */
std::vector<const char *>
extraColumns(ScenarioSuite suite)
{
    switch (suite) {
      case ScenarioSuite::Calib:
        return {"calibrated", "w_llc_match", "w_sf_match", "slices_match"};
      case ScenarioSuite::Defense:
        return {"def_rekeys", "def_wd_fires", "def_victim_resident"};
      case ScenarioSuite::Traffic:
        return {"traffic_victim_arrivals", "traffic_queue_delay_cycles",
                "traffic_epochs"};
      default:
        return {};
    }
}

/** Headline success and cost, then the extra columns: an outcome
 *  prints its rate, a *_cycles metric a duration, any other metric
 *  its mean. */
void
printCellRow(ScenarioSuite suite, const ScenarioSpec &spec,
             const ExperimentResult &r)
{
    const SuccessRate *sr = r.outcome(primaryOutcome(spec.stage));
    const StreamingStats *cycles = r.metric(primaryCycles(spec.stage));
    std::printf("  %-32s succ %5.1f%%  cost %10s", r.name.c_str(),
                sr ? sr->rate() * 100.0 : 0.0,
                cycles && !cycles->empty()
                    ? formatDuration(cycles->mean()).c_str()
                    : "-");
    for (const char *col : extraColumns(suite)) {
        const std::string name(col);
        const StreamingStats *m = r.metric(name);
        if (const SuccessRate *o = r.outcome(name)) {
            std::printf("  %s %5.1f%%", col, o->rate() * 100.0);
        } else if (!m || m->empty()) {
            std::printf("  %s -", col);
        } else if (name.ends_with("_cycles")) {
            std::printf("  %s %s", col,
                        formatDuration(m->mean()).c_str());
        } else {
            std::printf("  %s %.2f", col, m->mean());
        }
    }
    std::printf("\n");
}

/** Recovered keys per *simulated* hour of attack time, the paper's
 *  fleet-cost headline (0 when nothing was recovered). */
double
simulatedKeysPerHour(const CampaignSummary &s)
{
    if (s.keysRecovered == 0 || s.totalAttackCycles <= 0.0)
        return 0.0;
    const double hours =
        s.totalAttackCycles / (kCpuGhz * 1e9) / 3600.0;
    return static_cast<double>(s.keysRecovered) / hours;
}

void
printCampaignRow(const CampaignResult &r)
{
    const CampaignSummary &s = r.summary;
    std::printf("  %-32s fleet %7zu  keys %6zu  succ %5.1f%%  ",
                r.name.c_str(), s.fleet, s.keysRecovered,
                s.fleetSuccessRate * 100.0);
    if (s.keysRecovered > 0) {
        std::printf("%10s/key  %8.1f keys/h",
                    formatDuration(s.cyclesPerRecoveredKey).c_str(),
                    simulatedKeysPerHour(s));
    } else {
        std::printf("%14s  %15s", "-", "-");
    }
    // Host wall clock lives on stdout only; the JSON stays a pure
    // function of (spec, seed, fleet).
    std::printf("  wall %6.1f s\n", s.wallSeconds);
}

/** --smoke cap or the full (LLCF_TRIALS-overridable) count. */
std::size_t
cellTrials(const SuiteRow &row, std::size_t full, bool smoke)
{
    return smoke ? std::min(full, row.smokeTrials) : trialCount(full);
}

/** Run the cells; the suite document, or nullopt when a checkpointed
 *  campaign stopped at a shard boundary.  @p cp carries the e2e
 *  checkpoint flags. */
std::optional<std::string>
runCells(const SuiteRow &row,
         const std::vector<const ScenarioSpec *> &specs, bool smoke,
         const CampaignRunOptions &cp)
{
    ExperimentSuite suite(scenarioSuiteName(row.suite));
    if (row.rateTolerance > 0.0) {
        suite.contextValue("rate_tolerance", row.rateTolerance);
        suite.contextValue("cycles_tolerance", row.cyclesTolerance);
    }
    for (const ScenarioSpec *spec : specs) {
        if (!runsCampaigns(row)) {
            const std::size_t n = cellTrials(row, spec->defaultTrials, smoke);
            ExperimentResult result = runScenario(*spec, n, 0, baseSeed());
            printCellRow(row.suite, *spec, result);
            suite.add(std::move(result));
            continue;
        }
        CampaignRunOptions opts = cp;
        opts.fleet = cellTrials(row, spec->fleetSize, smoke);
        opts.masterSeed = baseSeed();
        CampaignResult result = KeyRecoveryCampaign(*spec).run(opts);
        printCampaignRow(result);
        if (result.interrupted) {
            std::printf("  %-32s interrupted at trial %zu/%zu; "
                        "checkpoint %s -- resume with --resume\n",
                        result.name.c_str(), result.trials(), opts.fleet,
                        cp.checkpointPath.c_str());
            return std::nullopt;
        }
        suite.add(std::move(result));
    }
    return suite.toJson();
}

/** Each cell's declared expectation, checked on every run. */
unsigned
checkExpectations(const JsonValue &run)
{
    unsigned violations = 0;
    for (const JsonValue &entry : run.find("benchmarks")->items()) {
        const std::string &name = entry.find("name")->asString();
        std::string why;
        if (!meetsExpectation(builtinScenarios().find(name)->expect,
                              entry, &why)) {
            std::fprintf(stderr, "FAIL %s: %s\n", name.c_str(),
                         why.c_str());
            ++violations;
        }
    }
    return violations;
}

/**
 * Gate the run against a checked-in baseline.  Returns the number of
 * violations; a stale or unreadable baseline counts as one so the
 * gate cannot silently pass.
 */
unsigned
gateAgainstBaseline(const SuiteRow &row, const JsonValue &run,
                    const std::string &path)
{
    JsonValue doc;
    if (!benchLoadBaseline(path, doc))
        return 1;
    const double rate_tol = benchBaselineTolerance(
        doc, "rate_tolerance", row.rateTolerance);
    const double cyc_tol = benchBaselineTolerance(
        doc, "cycles_tolerance", row.cyclesTolerance);

    unsigned violations = 0;
    for (const JsonValue &entry : run.find("benchmarks")->items()) {
        const std::string &name = entry.find("name")->asString();
        const JsonValue *base = benchBaselineEntry(doc, name);
        if (!base) {
            std::fprintf(stderr,
                         "FAIL %s: cell missing from baseline "
                         "(regenerate %s)\n",
                         name.c_str(), path.c_str());
            ++violations;
            continue;
        }
        const ScenarioStage stage = builtinScenarios().find(name)->stage;
        for (const Band &band : gatedSeries(row.suite, stage)) {
            const JsonValue *want = band.find(*base);
            const JsonValue *got = band.find(entry);
            if (!want && !got && !band.required)
                continue;
            if (!want || !got) {
                std::fprintf(stderr, "FAIL %s/%s: %s in the run, %s in %s\n",
                             name.c_str(), band.name.c_str(),
                             got ? "present" : "absent",
                             want ? "present" : "absent", path.c_str());
                ++violations;
                continue;
            }
            const double w = want->asNumber();
            const double g = got->asNumber();
            double lo = w - rate_tol;
            double hi = w + rate_tol;
            if (band.relative) {
                lo = w * (1.0 - cyc_tol);
                hi = w * (1.0 + cyc_tol);
            }
            if (g < lo || g > hi) {
                std::fprintf(stderr, "FAIL %s/%s: %.4g not in [%.4g, %.4g]\n",
                             name.c_str(), band.name.c_str(), g, lo, hi);
                ++violations;
            }
        }
    }
    if (violations == 0)
        std::printf("%s gate: all cells within band of %s\n",
                    scenarioSuiteName(row.suite), path.c_str());
    return violations;
}

/** The suite's cells: every member, or the --scenario= selection
 *  (which must stay inside the suite, except for scenarios). */
std::vector<const ScenarioSpec *>
selectCells(const SuiteRow &row, bool scenario_given,
            const std::string &selection)
{
    const ScenarioRegistry &reg = builtinScenarios();
    std::vector<const ScenarioSpec *> specs;
    if (!scenario_given) {
        for (const ScenarioSpec &s : reg.all()) {
            if (scenarioSuite(s) == row.suite)
                specs.push_back(&s);
        }
        return specs;
    }
    if (selection.empty())
        return specs;
    for (const ScenarioSpec *s : reg.select(selection)) {
        const ScenarioSuite home = scenarioSuite(*s);
        if (row.suite != ScenarioSuite::Scenarios && home != row.suite) {
            std::fprintf(stderr, "bench_suite: '%s' is a %s cell, not %s\n",
                         s->name.c_str(), scenarioSuiteName(home),
                         scenarioSuiteName(row.suite));
            std::exit(2);
        }
        specs.push_back(s);
    }
    return specs;
}

int
benchMain(const SuiteRow &row, bool list, bool smoke,
          bool scenario_given, const std::string &selection,
          const std::string &baseline, const CampaignRunOptions &cp)
{
    const auto specs = selectCells(row, scenario_given, selection);
    if (list) {
        listCells(specs);
        return 0;
    }
    if (specs.empty()) {
        // A --scenario selection that names nothing (empty value,
        // bare commas, ...) must fail loudly rather than write an
        // empty suite that looks like a passing run.
        std::fprintf(stderr,
                     "bench_suite: --suite=%s: no cells matched "
                     "'%s' (try --list)\n",
                     scenarioSuiteName(row.suite), selection.c_str());
        return 1;
    }
    if (!cp.checkpointPath.empty() && specs.size() > 1) {
        std::fprintf(stderr,
                     "bench_suite: --checkpoint drives exactly one "
                     "campaign; narrow the run with --scenario= "
                     "(%zu selected)\n",
                     specs.size());
        return 2;
    }

    benchPrintHeader(row.title);
    const std::optional<std::string> doc =
        runCells(row, specs, smoke, cp);
    if (!doc)
        return 3;
    JsonValue run;
    std::string err;
    if (!parseJson(*doc, run, &err)) {
        std::fprintf(stderr, "bench_suite: own document: %s\n",
                     err.c_str());
        return 1;
    }
    unsigned violations = checkExpectations(run);
    // Gate before writing: when the output path and the baseline are
    // the same file, writing first would clobber the baseline and
    // gate the run against itself.
    if (!baseline.empty())
        violations += gateAgainstBaseline(row, run, baseline);
    const std::string out =
        writeBenchDocument(scenarioSuiteName(row.suite), *doc);
    if (out.empty()) {
        std::fprintf(stderr, "failed to write JSON output\n");
        return 1;
    }
    std::printf("wrote %s\n", out.c_str());
    return violations == 0 ? 0 : 1;
}

/** The row --suite=<name> names, or nullptr for an unknown name. */
const SuiteRow *
findRow(const std::string &name)
{
    for (const SuiteRow &row : kSuites) {
        if (row.suite == ScenarioSuite::FullScale ||
            name != scenarioSuiteName(row.suite))
            continue;
        // --full-scale switches e2e to its paper-scale tier, the row
        // right after it.
        return row.suite == ScenarioSuite::E2e && fullScale() ? &row + 1
                                                              : &row;
    }
    return nullptr;
}

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "bench_suite: %s\n"
                 "flags: --suite=<scenarios|e2e|calib|defense|traffic> "
                 "--list --smoke --scenario=<name[,name...]> "
                 "--baseline=BENCH_<suite>.json\n"
                 "       e2e only: --checkpoint=<path> --resume "
                 "--stop-after-shards=<n>\n",
                 why);
    std::exit(2);
}

} // namespace
} // namespace llcf

int
main(int argc, char **argv)
{
    bool list = false;
    bool smoke = false;
    bool scenario_given = false;
    std::string suite;
    std::string selection;
    std::string baseline;
    llcf::CampaignRunOptions cp;
    std::vector<std::string> unknown;
    for (const std::string &arg : llcf::benchParseArgs(argc, argv)) {
        if (arg.rfind("--suite=", 0) == 0) {
            suite = arg.substr(sizeof("--suite=") - 1);
        } else if (arg == "--list") {
            list = true;
        } else if (arg == "--smoke") {
            smoke = true;
        } else if (arg.rfind("--scenario=", 0) == 0) {
            scenario_given = true;
            if (!selection.empty())
                selection += ',';
            selection += arg.substr(sizeof("--scenario=") - 1);
        } else if (arg.rfind("--baseline=", 0) == 0) {
            baseline = arg.substr(sizeof("--baseline=") - 1);
        } else if (arg.rfind("--checkpoint=", 0) == 0) {
            cp.checkpointPath = arg.substr(sizeof("--checkpoint=") - 1);
        } else if (arg == "--resume") {
            cp.resume = true;
        } else if (arg.rfind("--stop-after-shards=", 0) == 0) {
            cp.stopAfterShards = static_cast<std::size_t>(llcf::parseU64(
                "--stop-after-shards",
                arg.c_str() + sizeof("--stop-after-shards=") - 1));
        } else {
            unknown.push_back(arg);
        }
    }
    if (!llcf::benchRejectExtraArgs(unknown))
        llcf::usage("unrecognised arguments");
    const llcf::SuiteRow *row = llcf::findRow(suite);
    if (!row)
        llcf::usage(suite.empty() ? "--suite= is required"
                                  : "unknown --suite");
    if ((cp.resume || cp.stopAfterShards) && cp.checkpointPath.empty())
        llcf::usage("--resume / --stop-after-shards require "
                    "--checkpoint=<path>");
    if (!cp.checkpointPath.empty() && !llcf::runsCampaigns(*row))
        llcf::usage("--checkpoint applies to --suite=e2e only");
    if (!baseline.empty() && row->rateTolerance <= 0.0)
        llcf::usage("this suite has no baseline gate");
    return llcf::benchMain(*row, list, smoke, scenario_given, selection,
                           baseline, cp);
}

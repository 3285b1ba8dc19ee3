#include "scenario.hh"

#include "common/log.hh"
#include "common/options.hh"
#include "common/rng.hh"

namespace llcf {
namespace {

constexpr std::uint64_t kMachineActor = 0;
constexpr std::uint64_t kAttackerActor = 1;
constexpr std::uint64_t kVictimActor = 2;

/** The victim lines a defense watches: target + decoys. */
std::vector<Addr>
victimWorkingSet(const Victim &victim)
{
    std::vector<Addr> lines;
    lines.reserve(1 + victim.decoyPas().size());
    lines.push_back(victim.targetLinePa());
    lines.insert(lines.end(), victim.decoyPas().begin(),
                 victim.decoyPas().end());
    return lines;
}

/** What one trial's stages leave behind for the recorders. */
struct TrialRun
{
    StageResults results;
    std::unique_ptr<Victim> victim;   //!< null until the victim stage
    std::unique_ptr<CoTenantLoad> load;
};

/**
 * Run @p spec's stages in order on @p rig -- Step 0 if blind, then the
 * victim, watchdog, classifier and load, then Steps 1-3 -- stopping
 * at spec.stage or at the first step that fails.
 */
void
runStages(const ScenarioSpec &spec, ScenarioRig &rig, std::size_t trial,
          TrialRecorder &rec, TrialRun &run)
{
    Machine &m = rig.machine;
    if (spec.blind()) {
        CalibratedTopology calib = runScenarioCalibration(spec, rig);
        recordCalibration(rec, calib, compareToOracle(calib, m.config()));
        run.results.calibCycles = calib.cycles;
        if (!calib.valid)
            return;
    }
    if (spec.stage == ScenarioStage::Calibrate)
        return;
    if (spec.stage == ScenarioStage::EvsetBuild) {
        // One SF eviction set for a pool line, away from any victim.
        auto cands = rig.pool->candidatesAt(
            static_cast<unsigned>((3 * trial) % kLinesPerPage));
        const Addr ta = cands[trial % cands.size()];
        cands.erase(cands.begin() + static_cast<long>(trial % cands.size()));
        EvictionSetBuilder builder(*rig.session, spec.algo, spec.useFilter);
        run.results.single = builder.buildForTarget(ta, cands);
        return;
    }

    // A campaign victim has its fleet slot's layout and quota, and the
    // classifier trains offline on an attacker-side replica of it (its
    // own key, no quota), as in the paper, so the production victim's
    // quota is never spent on training.  The single-victim stages
    // train on the victim itself.
    const bool fleet = spec.stage == ScenarioStage::Campaign;
    const std::uint64_t seed = rig.victimSeed();
    run.victim =
        fleet ? makeScenarioVictim(spec, m,
                                   streamSeed(seed, kProductionVictimStream),
                                   spec.fleetLineIndex(trial),
                                   spec.victimRequestQuota)
              : makeScenarioVictim(spec, m, seed,
                                   VictimConfig{}.targetLineIndex, 0);
    maybeArmScenarioWatchdog(m, *run.victim);
    const std::unique_ptr<Victim> replica =
        fleet ? makeScenarioVictim(spec, m,
                                   streamSeed(seed, kTrainingReplicaStream),
                                   spec.fleetLineIndex(trial), 0)
              : nullptr;
    const TraceClassifier classifier =
        trainScenarioClassifier(spec, rig, replica ? *replica : *run.victim);
    run.load = makeScenarioLoad(spec, m, seed);

    // Steps 1-3.  The Scan stage stops after Step 2 (it monitors no
    // signing) and keeps its historical fixed batch of 8 scan
    // requests for a closed-loop victim.
    E2EParams params = spec.attackParams();
    const bool scanOnly = spec.stage == ScenarioStage::Scan;
    if (scanOnly)
        params.tracesPerVictim = 0;
    const unsigned requests =
        scanOnly && !run.victim->config().arrival.active()
            ? 8
            : EndToEndAttack::scanRequestCount(*run.victim, params.scanner);
    const NonceExtractor extractor; // rule-based boundary detection
    EndToEndAttack attack(*rig.session, *run.victim, classifier, extractor,
                          params);
    run.results.attack = attack.run(*rig.pool, requests);
}

/**
 * Whether a campaign victim's key counts as recovered: the correct set
 * was monitored and its traces clear the spec's quality bands.
 * Rotation campaigns score each key epoch independently, since a
 * trace only supports the key it was served under (DESIGN.md §11),
 * and record one "epoch_key_recovered" outcome per epoch seen plus
 * the epoch totals; without rotation every trace is in epoch 0.
 */
bool
scoreKey(const ScenarioSpec &spec, TrialRecorder &rec, const E2EResult &res)
{
    const bool rotating = spec.rotateKeys > 0;
    // Traces arrive in collection order, so epochs are non-decreasing;
    // group by scanning for boundaries.
    std::size_t epochs = 0;
    std::size_t recoveredEpochs = 0;
    std::size_t i = 0;
    while (i < res.traceRecords.size()) {
        const unsigned epoch = res.traceRecords[i].keyEpoch;
        SampleStats rf;
        SampleStats ber;
        for (; i < res.traceRecords.size() &&
               res.traceRecords[i].keyEpoch == epoch;
             ++i) {
            rf.add(res.traceRecords[i].recoveredFraction);
            if (res.traceRecords[i].hasBitErrorRate)
                ber.add(res.traceRecords[i].bitErrorRate);
        }
        const bool recovered =
            res.targetCorrect && !rf.empty() && !ber.empty() &&
            rf.mean() >= spec.keyMinRecoveredFraction &&
            ber.mean() <= spec.keyMaxBitErrorRate;
        if (rotating)
            rec.outcome("epoch_key_recovered", recovered);
        ++epochs;
        recoveredEpochs += recovered;
    }
    if (rotating) {
        rec.metric("traffic_epochs", static_cast<double>(epochs));
        rec.metric("traffic_epoch_keys",
                   static_cast<double>(recoveredEpochs));
    }
    return recoveredEpochs > 0;
}

} // namespace

void
recordStageSeries(const ScenarioSpec &spec, const StageResults &r,
                  TrialRecorder &rec)
{
    const auto cycles = [&rec](const char *name, Cycles c) {
        rec.metric(name, static_cast<double>(c));
    };
    if (spec.stage == ScenarioStage::Calibrate)
        return; // Step 0's series come from recordCalibration
    if (spec.stage == ScenarioStage::EvsetBuild) {
        rec.outcome("success", r.single.success && r.single.groundTruthValid);
        cycles("build_cycles", r.single.elapsed);
        rec.metric("attempts", static_cast<double>(r.single.attempts));
        return;
    }
    const E2EResult &a = r.attack;
    const bool fleet = spec.stage == ScenarioStage::Campaign;
    rec.outcome("evsets_built", a.evsetsBuilt);
    rec.outcome("target_found", a.targetFound);
    rec.outcome("target_correct", a.targetCorrect);
    if (fleet)
        rec.outcome("key_recovered", scoreKey(spec, rec, a));
    cycles("build_cycles", a.buildTime);
    cycles("scan_cycles", a.scanTime);
    if (spec.stage == ScenarioStage::Scan) {
        rec.metric("sets_scanned", static_cast<double>(a.setsScanned));
        return;
    }
    cycles("extract_cycles", a.extractTime);
    // Blind trials charge Step 0 into the total, as campaigns do.
    cycles("total_cycles", a.totalTime() + r.calibCycles);
    if (fleet)
        rec.metric("traces_collected", static_cast<double>(a.tracesCollected));
    for (double v : a.recoveredFraction.samples())
        rec.metric("recovered_fraction", v);
    for (double v : a.bitErrorRate.samples())
        rec.metric("bit_error_rate", v);
    if (!fleet && spec.victimFamily == VictimFamily::AesTable) {
        rec.metric("aes_nibbles_total",
                   static_cast<double>(a.aesNibblesTotal));
        rec.metric("aes_nibbles_correct",
                   static_cast<double>(a.aesNibblesCorrect));
    }
}

TraceClassifier
trainScenarioClassifier(const ScenarioSpec &spec, ScenarioRig &rig,
                        Victim &victim)
{
    ScannerParams sparams;
    sparams.timeout = secToCycles(spec.scanTimeoutSec);
    sparams.adaptive = spec.adaptiveScan;
    TraceClassifier classifier(sparams);
    ScannerTrainer trainer(*rig.session, victim, *rig.pool);
    classifier.train(trainer.collect(classifier, spec.trainTargetTraces,
                                     spec.trainNontargetTraces));
    return classifier;
}

const char *
scenarioStageName(ScenarioStage stage)
{
    switch (stage) {
      case ScenarioStage::EvsetBuild:
        return "evset-build";
      case ScenarioStage::Scan:
        return "scan";
      case ScenarioStage::EndToEnd:
        return "end-to-end";
      case ScenarioStage::Campaign:
        return "campaign";
      case ScenarioStage::Calibrate:
        return "calibrate";
    }
    return "?";
}

const char *
scenarioSuiteName(ScenarioSuite suite)
{
    switch (suite) {
      case ScenarioSuite::Scenarios:
        return "scenarios";
      case ScenarioSuite::E2e:
        return "e2e";
      case ScenarioSuite::FullScale:
        return "fullscale";
      case ScenarioSuite::Calib:
        return "calib";
      case ScenarioSuite::Defense:
        return "defense";
      case ScenarioSuite::Traffic:
        return "traffic";
    }
    return "?";
}

ScenarioSuite
scenarioSuite(const ScenarioSpec &spec)
{
    if (spec.defense.recordsMetrics())
        return ScenarioSuite::Defense;
    if (spec.trafficDomain())
        return ScenarioSuite::Traffic;
    switch (spec.stage) {
      case ScenarioStage::Campaign:
        return spec.fullScaleOnly ? ScenarioSuite::FullScale
                                  : ScenarioSuite::E2e;
      case ScenarioStage::Calibrate:
        return ScenarioSuite::Calib;
      default:
        return ScenarioSuite::Scenarios;
    }
}

bool
meetsExpectation(const ScenarioExpectation &expect,
                 const JsonValue &entry, std::string *why)
{
    using Cmp = ScenarioExpectation::Cmp;
    if (!expect.declared())
        return true;
    const bool rate = expect.kind == ScenarioExpectation::Series::OutcomeRate;
    const JsonValue *v = rate ? entry.find("outcomes", expect.name, "rate")
                              : entry.find("metrics", expect.name, "mean");
    const std::string what = expect.name + (rate ? " rate" : " mean");
    std::string msg;
    if (!v || !v->isNumber()) {
        msg = "no " + what + " recorded";
    } else {
        const double x = v->asNumber();
        const double b = expect.bound;
        bool ok = false;
        const char *need = "";
        switch (expect.cmp) {
          case Cmp::Below:
            ok = x < b;
            need = " < ";
            break;
          case Cmp::AtMost:
            ok = x <= b;
            need = " <= ";
            break;
          case Cmp::AtLeast:
            ok = x >= b;
            need = " >= ";
            break;
          case Cmp::Above:
            ok = x > b;
            need = " > ";
            break;
        }
        if (ok)
            return true;
        msg = what + " " + jsonNumber(x) + ", expected" + need + jsonNumber(b);
    }
    if (why)
        *why = msg + " -- " + expect.reason;
    return false;
}

const char *
scenarioMachineName(ScenarioMachine machine)
{
    switch (machine) {
      case ScenarioMachine::SkylakeSp:
        return "skylake-sp";
      case ScenarioMachine::IceLakeSp:
        return "icelake-sp";
      case ScenarioMachine::ScaledSkylake:
        return "skylake-scaled";
      case ScenarioMachine::TinyTest:
        return "tiny";
    }
    return "?";
}

MachineConfig
ScenarioSpec::machineConfig() const
{
    MachineConfig cfg;
    switch (machine) {
      case ScenarioMachine::SkylakeSp:
        cfg = skylakeSp(slices);
        break;
      case ScenarioMachine::IceLakeSp:
        cfg = iceLakeSp(slices);
        break;
      case ScenarioMachine::ScaledSkylake:
        cfg = scaledSkylake(slices);
        break;
      case ScenarioMachine::TinyTest:
        cfg = tinyTest(slices);
        break;
    }
    cfg.withSharedRepl(sharedRepl);
    // The defense axis composes with every machine/policy/stage cell;
    // an inactive spec leaves cfg.defense all-off (no re-check cost).
    defense.applyTo(cfg);
    cfg.check();
    return cfg;
}

NoiseProfile
ScenarioSpec::noiseProfile() const
{
    NoiseProfile p;
    if (!noiseProfileByName(noise, p))
        fatal("scenario '%s': unknown noise profile '%s'", name.c_str(),
              noise.c_str());
    return p;
}

CalibrationConfig
ScenarioSpec::calibrationConfig() const
{
    CalibrationConfig c;
    c.budgetMs = calibBudgetMs;
    c.samplePages = calibSamplePages;
    // Sanity-cap measured associativities by the spec's own prior,
    // with 2x slack: assumedMaxWays sizes the pool and may sit below
    // the true W_SF (Ice Lake's 16-way SF vs the default prior of
    // 14), but a noise-stalled reduction claiming twice the prior is
    // a broken measurement, not a surprising host.
    c.maxWays = std::min(c.maxWays, 2 * assumedMaxWays);
    return c;
}

E2EParams
ScenarioSpec::attackParams() const
{
    E2EParams p;
    p.algo = algo;
    p.useFilter = useFilter;
    p.tracesPerVictim = tracesPerVictim;
    p.scanner.timeout = secToCycles(scanTimeoutSec);
    return p;
}

ScenarioRig::ScenarioRig(const ScenarioSpec &spec, std::uint64_t seed)
    : machine(spec.machineConfig(), spec.noiseProfile(),
              streamSeed(seed, kMachineActor))
{
    AttackerConfig acfg;
    acfg.seed = streamSeed(seed, kAttackerActor);
    acfg.evsetBudget = msToCycles(spec.evsetBudgetMs);
    acfg.blindTopology = spec.blind();
    session = std::make_unique<AttackSession>(machine, acfg);
    // A blind attacker cannot size its pool from the machine's true
    // geometry; it falls back to the spec's assumed upper bounds.
    pool = std::make_unique<CandidatePool>(
        *session,
        spec.blind()
            ? CandidatePool::requiredPagesBlind(
                  spec.assumedMaxUncertainty, spec.assumedMaxWays)
            : CandidatePool::requiredPages(machine));
    victimSeed_ = streamSeed(seed, kVictimActor);
}

CalibratedTopology
runScenarioCalibration(const ScenarioSpec &spec, ScenarioRig &rig)
{
    if (rig.session->topologyKnown())
        fatal("scenario '%s': calibration on a non-blind session "
              "(set blindTopology, or drop the Step-0 run)",
              spec.name.c_str());
    TopologyProber prober(*rig.session, *rig.pool,
                          spec.calibrationConfig());
    CalibratedTopology calib = prober.calibrate();
    if (calib.valid)
        rig.session->adoptTopology(calib.view);
    return calib;
}

void
recordCalibration(TrialRecorder &rec, const CalibratedTopology &calib,
                  const CalibrationReport &report)
{
    rec.outcome("calibrated", calib.valid);
    for (const CalibrationFieldReport &f : report.fields) {
        rec.outcome(std::string(f.field) + "_match", f.match);
        rec.metric(f.field, f.measured);
    }
    rec.outcome("topology_match", report.allMatch);
    rec.metric("calib_cycles", static_cast<double>(calib.cycles));
    rec.metric("calib_test_evictions",
               static_cast<double>(calib.testEvictions));
    rec.metric("calib_confidence", calib.confidence);
    rec.metric("calib_uncertainty_raw", calib.uncertaintyRaw);
    rec.metric("calib_slices_raw", calib.slicesRaw);
    if (calib.recallTests) {
        rec.metric("calib_test_recall",
                   static_cast<double>(calib.recallPasses) /
                       static_cast<double>(calib.recallTests));
    }
}

void
runScenarioTrial(const ScenarioSpec &cell, TrialContext &ctx,
                 TrialRecorder &rec)
{
    // Campaign victim v attacks under its own noise environment.
    ScenarioSpec spec = cell;
    if (spec.stage == ScenarioStage::Campaign && !spec.fleetNoises.empty())
        spec.noise = spec.fleetNoises[ctx.index % spec.fleetNoises.size()];
    ScenarioRig rig(spec, ctx.seed);
    TrialRun run;
    runStages(spec, rig, ctx.index, rec, run);

    recordStageSeries(spec, run.results, rec);
    if (spec.defense.recordsMetrics()) {
        // Single-victim stages report the victim's residency too.
        const std::vector<Addr> ws =
            run.victim && spec.stage != ScenarioStage::Campaign
                ? victimWorkingSet(*run.victim)
                : std::vector<Addr>{};
        recordDefenseMetrics(rec, rig.machine, &ws);
    }
    if (run.victim)
        maybeRecordTraffic(spec, rec, *run.victim, run.load.get());
    // Campaigns always aggregate the hierarchy counters: BENCH_e2e
    // started with them, so there is no older byte content to keep.
    if (spec.stage == ScenarioStage::Campaign || countersEnabled())
        recordPerfCounters(rec, rig.machine.perfCounters());
}

void
recordPerfCounters(TrialRecorder &rec, const PerfCounters &pc)
{
    rec.metric("pc_accesses", static_cast<double>(pc.accesses));
    rec.metric("pc_hits", static_cast<double>(pc.hits));
    rec.metric("pc_misses", static_cast<double>(pc.misses));
    rec.metric("pc_l1_evictions", static_cast<double>(pc.l1.evictions));
    rec.metric("pc_l2_evictions", static_cast<double>(pc.l2.evictions));
    rec.metric("pc_llc_evictions",
               static_cast<double>(pc.llc.evictions));
    rec.metric("pc_sf_evictions", static_cast<double>(pc.sf.evictions));
    rec.metric("pc_coh_downgrades",
               static_cast<double>(pc.cohDowngrades));
    rec.metric("pc_sim_cycles", static_cast<double>(pc.simCycles));
    if (pc.accesses) {
        rec.metric("pc_cycles_per_access",
                   static_cast<double>(pc.simCycles) /
                       static_cast<double>(pc.accesses));
    }
}

void
recordDefenseMetrics(TrialRecorder &rec, const Machine &machine,
                     const std::vector<Addr> *working_set)
{
    const DefenseStats ds = machine.defenseStats();
    rec.metric("def_rekeys", static_cast<double>(ds.rekeys));
    rec.metric("def_rekey_lines",
               static_cast<double>(ds.rekeyLinesMoved));
    rec.metric("def_wd_probes", static_cast<double>(ds.wdProbes));
    rec.metric("def_wd_misses", static_cast<double>(ds.wdMisses));
    rec.metric("def_wd_fires", static_cast<double>(ds.wdFires));
    rec.metric("def_wd_selfmiss_rate",
               ds.wdProbes ? static_cast<double>(ds.wdMisses) /
                                 static_cast<double>(ds.wdProbes)
                           : 0.0);
    if (!working_set || working_set->empty())
        return;
    // Residency of the victim's working set at trial end: ground-truth
    // introspection only, so recording perturbs nothing.  Re-key line
    // movement and partition pressure show up here as lost residency —
    // the victim-side overhead the defense matrix reports.
    const unsigned core = machine.config().defense.partition.protectedCore;
    std::size_t resident = 0;
    for (Addr pa : *working_set) {
        if (machine.inL1(core, pa) || machine.inL2(core, pa) ||
            machine.inLlc(pa) || machine.inSf(pa))
            ++resident;
    }
    rec.metric("def_victim_resident",
               static_cast<double>(resident) /
                   static_cast<double>(working_set->size()));
}

void
maybeArmScenarioWatchdog(Machine &machine, const Victim &victim)
{
    if (!machine.config().defense.watchdog.enabled)
        return;
    machine.armWatchdog(kVictimCore, victimWorkingSet(victim));
}

std::unique_ptr<Victim>
makeScenarioVictim(const ScenarioSpec &spec, Machine &machine,
                   std::uint64_t seed, unsigned line_index,
                   std::uint64_t quota)
{
    VictimConfig vcfg;
    vcfg.family = spec.victimFamily;
    vcfg.arrival = spec.victimArrival;
    vcfg.rotateKeys = spec.rotateKeys;
    vcfg.targetLineIndex = line_index;
    vcfg.requestQuota = quota;
    vcfg.seed = seed;
    return makeVictim(machine, vcfg);
}

std::unique_ptr<CoTenantLoad>
makeScenarioLoad(const ScenarioSpec &spec, Machine &machine,
                 std::uint64_t seed)
{
    if (spec.coTenants == 0)
        return nullptr;
    CoTenantLoadConfig lcfg;
    lcfg.tenants = spec.coTenants;
    // Co-tenants reuse the victim's arrival shape at their own rate;
    // a cell with a closed-loop victim still offers Poisson load.
    lcfg.arrival = spec.victimArrival;
    if (!lcfg.arrival.active())
        lcfg.arrival.kind = ArrivalKind::Poisson;
    lcfg.arrival.ratePerSec = spec.coTenantRps;
    lcfg.seed = streamSeed(seed, 3);
    // The horizon covers training echoes, Step 1 and the scan window
    // with slack; Step 3 monitors windows the victim itself times.
    const Cycles horizon = secToCycles(4.0 * spec.scanTimeoutSec + 1.0);
    return std::make_unique<CoTenantLoad>(machine, lcfg, machine.now(),
                                          horizon);
}

void
maybeRecordTraffic(const ScenarioSpec &spec, TrialRecorder &rec,
                   const Victim &victim, const CoTenantLoad *load)
{
    if (!spec.trafficDomain())
        return;
    rec.metric("traffic_offered_rps",
               spec.victimArrival.active()
                   ? spec.victimArrival.ratePerSec
                   : 0.0);
    rec.metric("traffic_victim_arrivals",
               static_cast<double>(victim.arrivalCount()));
    rec.metric("traffic_queue_delay_cycles",
               victim.meanQueueDelayCycles());
    rec.metric("traffic_cotenant_accesses",
               load ? static_cast<double>(load->scheduledAccesses())
                    : 0.0);
    rec.metric("traffic_key_epochs",
               static_cast<double>(victim.keyEpoch()) + 1.0);
}

ExperimentResult
runScenario(const ScenarioSpec &spec, std::size_t trials,
            unsigned threads, std::uint64_t masterSeed)
{
    ExperimentConfig cfg;
    cfg.name = spec.name;
    cfg.trials = trials ? trials : spec.defaultTrials;
    cfg.threads = threads;
    cfg.masterSeed = masterSeed;
    ExperimentRunner runner(cfg);
    return runner.run([&spec](TrialContext &ctx, TrialRecorder &rec) {
        runScenarioTrial(spec, ctx, rec);
    });
}

} // namespace llcf

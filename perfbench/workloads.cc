#include "workloads.hh"

#include <algorithm>
#include <optional>

#include "attack/e2e.hh"
#include "campaign/campaign.hh"
#include "common/log.hh"
#include "common/options.hh"
#include "scenario/registry.hh"

namespace llcf::perfbench {
namespace {

/** Registry cell behind each workload. */
const char *
scenarioName(Workload w)
{
    switch (w) {
      case Workload::ForkFleet:
        return "campaign-fork-tiny-silent-96";
      case Workload::EvsetCloud:
        return "build-bins-skl-lru-cloud";
      case Workload::BlindAttack:
        return "campaign-blind-tiny-silent-2";
    }
    return "?";
}

// Sub-streams and world stream of the campaign trial bodies
// (src/campaign/campaign.cc); the compositions below must draw from
// the same streams to reproduce their records.
constexpr std::uint64_t kProductionVictim = 0;
constexpr std::uint64_t kTrainingReplica = 1;
constexpr std::uint64_t kWorldStream = 0xFFFFFFFFFFFFFFFFull;

unsigned
fleetLineIndex(const ScenarioSpec &spec, std::size_t v)
{
    return static_cast<unsigned>(
        (spec.fleetLineIndexBase +
         static_cast<std::uint64_t>(spec.fleetLineIndexStep) * v) %
        kLinesPerPage);
}

/** The compositions cover exactly what the three cells use. */
void
requireComposable(const ScenarioSpec &spec)
{
    if (spec.defense.recordsMetrics() || spec.trafficDomain() ||
        !spec.fleetNoises.empty() ||
        (spec.stage == ScenarioStage::EvsetBuild && spec.blind()))
        fatal("perfbench: cell '%s' uses an axis the traced "
              "composition does not reproduce (defense, traffic, "
              "noise rotation or a blind single build)",
              spec.name.c_str());
}

E2EParams
attackParams(const ScenarioSpec &spec)
{
    E2EParams p;
    p.algo = spec.algo;
    p.useFilter = spec.useFilter;
    p.tracesPerVictim = spec.tracesPerVictim;
    p.scanner.timeout = secToCycles(spec.scanTimeoutSec);
    return p;
}

/** The campaign trial bodies' per-victim records (no key rotation). */
void
recordVictim(const ScenarioSpec &spec, TrialRecorder &rec,
             const E2EResult &res, Cycles totalCycles)
{
    rec.outcome("evsets_built", res.evsetsBuilt);
    rec.outcome("target_found", res.targetFound);
    rec.outcome("target_correct", res.targetCorrect);
    rec.outcome("key_recovered",
                res.targetCorrect && !res.recoveredFraction.empty() &&
                    !res.bitErrorRate.empty() &&
                    res.recoveredFraction.mean() >=
                        spec.keyMinRecoveredFraction &&
                    res.bitErrorRate.mean() <= spec.keyMaxBitErrorRate);
    rec.metric("build_cycles", static_cast<double>(res.buildTime));
    rec.metric("scan_cycles", static_cast<double>(res.scanTime));
    rec.metric("extract_cycles", static_cast<double>(res.extractTime));
    rec.metric("total_cycles", static_cast<double>(totalCycles));
    rec.metric("traces_collected",
               static_cast<double>(res.tracesCollected));
    for (double v : res.recoveredFraction.samples())
        rec.metric("recovered_fraction", v);
    for (double v : res.bitErrorRate.samples())
        rec.metric("bit_error_rate", v);
}

/** The explicit record of a victim whose attack never ran. */
void
recordFailedVictim(TrialRecorder &rec, Cycles totalCycles)
{
    rec.outcome("evsets_built", false);
    rec.outcome("target_found", false);
    rec.outcome("target_correct", false);
    rec.outcome("key_recovered", false);
    rec.metric("build_cycles", 0.0);
    rec.metric("scan_cycles", 0.0);
    rec.metric("extract_cycles", 0.0);
    rec.metric("total_cycles", static_cast<double>(totalCycles));
    rec.metric("traces_collected", 0.0);
}

/** Simulated work of one op, as counts on the tracer. */
void
countSimulated(Tracer *tracer, const Machine &m,
               std::uint64_t accesses0, Cycles cycles0)
{
    traceCount(tracer, "sim.accesses",
               static_cast<double>(m.perfCounters().accesses - accesses0));
    traceCount(tracer, "sim.cycles", static_cast<double>(m.now() - cycles0));
}

/** Step 1 bulk build with its span and counts. */
BulkOutcome
tracedBulkBuild(const ScenarioSpec &spec, ScenarioRig &rig,
                unsigned lineIndex, Tracer *tracer)
{
    ScopedSpan span(tracer, "evset.build");
    const std::uint64_t tests0 = rig.session->testCount();
    EvictionSetBuilder construction(*rig.session, spec.algo, spec.useFilter);
    BulkOutcome built = construction.buildAtLineIndex(*rig.pool, lineIndex);
    traceCount(tracer, "evset.test_evictions",
               static_cast<double>(rig.session->testCount() - tests0));
    traceCount(tracer, "evset.attempts",
               static_cast<double>(built.builtSets));
    traceCount(tracer, "evset.successes",
               static_cast<double>(built.validSets));
    return built;
}

/** Step 2: keep @p victim serving and scan @p evsets. */
ScanResult
tracedScan(ScenarioRig &rig, Victim &victim,
           const TraceClassifier &classifier, const E2EParams &params,
           const std::vector<BuiltEvictionSet> &evsets, Tracer *tracer)
{
    ScopedSpan span(tracer, "attack.scan");
    Machine &m = rig.machine;
    victim.serveRequests(
        m.now(), EndToEndAttack::scanRequestCount(victim, params.scanner));
    TargetSetScanner scanner(*rig.session, classifier);
    ScanResult scan = scanner.scan(evsets);
    traceCount(tracer, "attack.sets_scanned",
               static_cast<double>(scan.setsScanned));
    return scan;
}

std::unique_ptr<Victim>
tracedVictim(const ScenarioSpec &spec, Machine &m, std::uint64_t seed,
             unsigned lineIndex, std::uint64_t quota, Tracer *tracer)
{
    ScopedSpan span(tracer, "victim.make");
    return makeScenarioVictim(spec, m, seed, lineIndex, quota);
}

TraceClassifier
tracedTraining(const ScenarioSpec &spec, ScenarioRig &rig,
               Victim &replica, Tracer *tracer)
{
    ScopedSpan span(tracer, "attack.train");
    return trainScenarioClassifier(spec, rig, replica);
}

E2EResult
tracedStep3(AttackSession &session, Victim &victim,
            const TraceClassifier &classifier,
            const NonceExtractor &extractor, const E2EParams &params,
            const BuiltEvictionSet &evset, Tracer *tracer)
{
    ScopedSpan span(tracer, "attack.step3");
    EndToEndAttack attack(session, victim, classifier, extractor, params);
    return attack.runFromScan(evset);
}

/** runEvsetBuildTrial (src/scenario/scenario.cc), non-blind. */
void
composedEvsetOp(const ScenarioSpec &spec, TrialContext &ctx,
                TrialRecorder &rec, Tracer *tracer)
{
    std::optional<ScenarioRig> rig;
    {
        ScopedSpan span(tracer, "scenario.rig");
        rig.emplace(spec, ctx.seed);
    }
    const std::size_t t = ctx.index;
    auto cands = rig->pool->candidatesAt(
        static_cast<unsigned>((3 * t) % kLinesPerPage));
    const Addr ta = cands[t % cands.size()];
    cands.erase(cands.begin() + static_cast<long>(t % cands.size()));

    BuildOutcome out;
    {
        ScopedSpan span(tracer, "evset.build");
        const std::uint64_t tests0 = rig->session->testCount();
        EvictionSetBuilder construction(*rig->session, spec.algo,
                                   spec.useFilter);
        out = construction.buildForTarget(ta, cands);
        traceCount(tracer, "evset.test_evictions",
                   static_cast<double>(rig->session->testCount() - tests0));
        traceCount(tracer, "evset.attempts",
                   static_cast<double>(out.attempts));
        traceCount(tracer, "evset.successes",
                   out.success && out.groundTruthValid ? 1.0 : 0.0);
    }
    rec.outcome("success", out.success && out.groundTruthValid);
    rec.metric("build_cycles", static_cast<double>(out.elapsed));
    rec.metric("attempts", static_cast<double>(out.attempts));
    if (countersEnabled())
        recordPerfCounters(rec, rig->machine.perfCounters());
    countSimulated(tracer, rig->machine, 0, 0);
}

/** runCampaignVictimTrial (src/campaign/campaign.cc): the rebuild
 *  path, with EndToEndAttack::run split into its public stages. */
void
composedRebuildVictimOp(const ScenarioSpec &spec, TrialContext &ctx,
                        TrialRecorder &rec, Tracer *tracer)
{
    std::optional<ScenarioRig> rig;
    {
        ScopedSpan span(tracer, "scenario.rig");
        rig.emplace(spec, ctx.seed);
    }
    Machine &m = rig->machine;

    Cycles calibCycles = 0;
    if (spec.blind()) {
        CalibratedTopology calib;
        {
            ScopedSpan span(tracer, "calib.calibrate");
            calib = runScenarioCalibration(spec, *rig);
            traceCount(tracer, "calib.test_evictions",
                       static_cast<double>(calib.testEvictions));
        }
        recordCalibration(rec, calib,
                          compareToOracle(calib, m.config()));
        calibCycles = calib.cycles;
        if (!calib.valid) {
            recordFailedVictim(rec, calibCycles);
            recordPerfCounters(rec, m.perfCounters());
            countSimulated(tracer, m, 0, 0);
            return;
        }
    }

    const unsigned lineIndex = fleetLineIndex(spec, ctx.index);
    auto victim = tracedVictim(
        spec, m, streamSeed(rig->victimSeed(), kProductionVictim),
        lineIndex, spec.victimRequestQuota, tracer);
    maybeArmScenarioWatchdog(m, *victim);
    auto replica = tracedVictim(
        spec, m, streamSeed(rig->victimSeed(), kTrainingReplica),
        lineIndex, 0, tracer);
    TraceClassifier classifier =
        tracedTraining(spec, *rig, *replica, tracer);

    NonceExtractor extractor;
    const E2EParams params = attackParams(spec);

    // EndToEndAttack::run, stage by stage.
    E2EResult res;
    Cycles t0 = m.now();
    BulkOutcome built =
        tracedBulkBuild(spec, *rig, victim->targetLineIndex(), tracer);
    const Cycles buildTime = m.now() - t0;
    res.buildTime = buildTime;
    if (!built.evsets.empty()) {
        res.evsetsBuilt = true;
        t0 = m.now();
        ScanResult scan = tracedScan(*rig, *victim, classifier, params,
                                     built.evsets, tracer);
        const Cycles scanTime = m.now() - t0;
        res.scanTime = scanTime;
        m.clearStreams();
        if (scan.found) {
            res = tracedStep3(*rig->session, *victim, classifier,
                              extractor, params,
                              built.evsets[scan.evsetIndex], tracer);
            res.buildTime = buildTime;
            res.scanTime = scanTime;
        }
    }

    recordVictim(spec, rec, res, res.totalTime() + calibCycles);
    recordPerfCounters(rec, m.perfCounters());
    countSimulated(tracer, m, 0, 0);
}

} // namespace

/**
 * The fork path's warmed world, composed exactly as
 * KeyRecoveryCampaign's per-worker world: Steps 0-2 once, snapshot
 * before the scan victim exists.
 */
struct ForkWorld
{
    ForkWorld(const ScenarioSpec &spec, Tracer *tracer);

    std::optional<ScenarioRig> rig;
    TraceClassifier classifier;
    NonceExtractor extractor;
    E2EParams params;
    BuiltEvictionSet evset;
    Machine::Snapshot machineSnap;
    AttackSession::Snapshot sessionSnap;
    bool scanOk = false;
    Cycles warmupCycles = 0;
};

ForkWorld::ForkWorld(const ScenarioSpec &spec, Tracer *tracer)
{
    if (spec.blind())
        fatal("perfbench: blind fork worlds are not composed");
    {
        ScopedSpan span(tracer, "scenario.rig");
        rig.emplace(spec, streamSeed(kMasterSeed, kWorldStream));
    }
    Machine &m = rig->machine;
    const unsigned lineIndex = fleetLineIndex(spec, 0);
    auto replica = tracedVictim(
        spec, m, streamSeed(rig->victimSeed(), kTrainingReplica),
        lineIndex, 0, tracer);
    classifier = tracedTraining(spec, *rig, *replica, tracer);
    params = attackParams(spec);

    BulkOutcome built = tracedBulkBuild(spec, *rig, lineIndex, tracer);
    if (built.evsets.empty()) {
        warmupCycles = m.now();
        return;
    }
    {
        ScopedSpan span(tracer, "sim.snapshot");
        machineSnap = m.snapshot();
        sessionSnap = rig->session->snapshot();
    }
    auto scanVictim = tracedVictim(
        spec, m, streamSeed(rig->victimSeed(), kProductionVictim),
        lineIndex, 0, tracer);
    ScanResult scan = tracedScan(*rig, *scanVictim, classifier, params,
                                 built.evsets, tracer);
    m.clearStreams();
    warmupCycles = m.now();
    if (!scan.found)
        return;
    evset = built.evsets[scan.evsetIndex];
    scanOk = true;
}

namespace {

/** runForkedVictimTrial (src/campaign/campaign.cc). */
void
composedForkVictimOp(const ScenarioSpec &spec, ForkWorld &world,
                     TrialContext &ctx, TrialRecorder &rec,
                     Tracer *tracer)
{
    if (!world.scanOk) {
        recordFailedVictim(rec, 0);
        if (ctx.index == 0)
            rec.metric("warmup_cycles",
                       static_cast<double>(world.warmupCycles));
        return;
    }
    Machine &m = world.rig->machine;
    {
        ScopedSpan span(tracer, "sim.restore");
        m.restore(world.machineSnap);
        world.rig->session->restore(world.sessionSnap);
    }
    const Cycles start = m.now();
    const std::uint64_t accesses0 = m.perfCounters().accesses;
    auto victim = tracedVictim(
        spec, m, streamSeed(ctx.seed, kProductionVictim),
        fleetLineIndex(spec, ctx.index), spec.victimRequestQuota, tracer);
    E2EResult res =
        tracedStep3(*world.rig->session, *victim, world.classifier,
                    world.extractor, world.params, world.evset, tracer);
    recordVictim(spec, rec, res, m.now() - start);
    recordPerfCounters(rec, m.perfCounters());
    if (ctx.index == 0)
        rec.metric("warmup_cycles", static_cast<double>(world.warmupCycles));
    countSimulated(tracer, m, accesses0, start);
}

/** Two record sequences are equal; else name the first difference. */
template <typename Entries>
bool
sameEntries(const char *kind, const Entries &a, const Entries &b,
            std::string *why)
{
    if (a == b)
        return true;
    const auto [ia, ib] =
        std::mismatch(a.begin(), a.end(), b.begin(), b.end());
    *why = std::string(kind) + " #" + std::to_string(ia - a.begin()) +
           " ('" + (ia != a.end() ? ia->first : ib->first) + "') differs";
    return false;
}

template <typename Stats>
bool
sameMetric(const std::string &name, const StreamingStats &mine,
           const Stats &theirs, std::string *why)
{
    if (mine.count() == theirs.count() && mine.sum() == theirs.sum())
        return true;
    *why = "metric '" + name + "': count/sum " +
           std::to_string(mine.count()) + "/" + jsonNumber(mine.sum()) +
           " vs " + std::to_string(theirs.count()) + "/" +
           jsonNumber(theirs.sum());
    return false;
}

/** Compare a folded aggregate with the library runner's result. */
template <typename Result>
bool
sameAggregate(const CampaignAggregate &mine, const Result &theirs,
              std::string *why)
{
    if (mine.trials() != theirs.trials()) {
        *why = "trial counts differ";
        return false;
    }
    for (const auto &[name, rate] : mine.outcomes()) {
        const SuccessRate *other = theirs.outcome(name);
        if (!other || other->trials() != rate.trials() ||
            other->successes() != rate.successes()) {
            *why = "outcome '" + name + "' differs";
            return false;
        }
    }
    for (const auto &[name, stats] : mine.metrics()) {
        const auto *other = theirs.metric(name);
        if (!other) {
            *why = "metric '" + name + "' missing from the library run";
            return false;
        }
        if (!sameMetric(name, stats, *other, why))
            return false;
    }
    if (theirs.outcomes().size() != mine.outcomes().size() ||
        theirs.metrics().size() != mine.metrics().size()) {
        *why = "the library run recorded names the op loop did not";
        return false;
    }
    return true;
}

} // namespace

const char *
workloadName(Workload w)
{
    switch (w) {
      case Workload::ForkFleet:
        return "fork-fleet";
      case Workload::EvsetCloud:
        return "evset-cloud";
      case Workload::BlindAttack:
        return "blind-attack";
    }
    return "?";
}

bool
parseWorkload(const std::string &name, Workload &out)
{
    for (Workload w : kWorkloads) {
        if (name == workloadName(w)) {
            out = w;
            return true;
        }
    }
    return false;
}

std::size_t
opTrial(std::size_t pool, std::uint64_t seed, std::size_t i)
{
    return static_cast<std::size_t>((seed + i) % pool);
}

TrialContext
makeContext(std::size_t trial)
{
    return TrialContext{trial, streamSeed(kMasterSeed, trial),
                        Rng::forStream(kMasterSeed, trial)};
}

std::vector<double>
recordedMetric(const TrialRecorder &rec, const std::string &name)
{
    std::vector<double> out;
    for (const auto &[k, v] : rec.metrics())
        if (k == name)
            out.push_back(v);
    return out;
}

std::vector<bool>
recordedOutcome(const TrialRecorder &rec, const std::string &name)
{
    std::vector<bool> out;
    for (const auto &[k, v] : rec.outcomes())
        if (k == name)
            out.push_back(v);
    return out;
}

bool
sameSimulatedResult(const TrialRecorder &a, const TrialRecorder &b,
                    std::string *why)
{
    return sameEntries("outcome", a.outcomes(), b.outcomes(), why) &&
           sameEntries("metric", a.metrics(), b.metrics(), why);
}

bool
sameCampaign(const CampaignAggregate &a, const CampaignAggregate &b,
             std::string *why)
{
    return sameAggregate(a, b, why);
}

WorkloadRunner::WorkloadRunner(Workload w) : workload_(w)
{
    const ScenarioSpec *spec = builtinScenarios().find(scenarioName(w));
    if (!spec)
        fatal("perfbench: scenario '%s' is not registered",
              scenarioName(w));
    spec_ = *spec;
    requireComposable(spec_);
}

WorkloadRunner::~WorkloadRunner() = default;

std::size_t
WorkloadRunner::poolSize() const
{
    switch (workload_) {
      case Workload::ForkFleet:
        return 64;
      case Workload::EvsetCloud:
        return 32;
      case Workload::BlindAttack:
        return spec_.fleetSize;
    }
    return 1;
}

const char *
WorkloadRunner::primaryOutcome() const
{
    return workload_ == Workload::EvsetCloud ? "success" : "key_recovered";
}

const char *
WorkloadRunner::simCyclesMetric() const
{
    return workload_ == Workload::EvsetCloud ? "build_cycles"
                                             : "total_cycles";
}

void
WorkloadRunner::setup(Tracer *tracer)
{
    if (workload_ == Workload::ForkFleet) {
        world_.reset(); // never hold two worlds at once
        world_ = std::make_unique<ForkWorld>(spec_, tracer);
        return;
    }
    TrialContext ctx = makeContext(0);
    TrialRecorder rec;
    if (tracer)
        runTraced(ctx, rec, *tracer);
    else
        runScenarioTrial(spec_, ctx, rec);
}

CampaignAggregate
WorkloadRunner::runCampaign(std::size_t fleet) const
{
    return KeyRecoveryCampaign(spec_).run(fleet, 1, kMasterSeed).aggregate;
}

void
WorkloadRunner::runUntraced(TrialContext &ctx, TrialRecorder &rec)
{
    if (workload_ == Workload::ForkFleet)
        composedForkVictimOp(spec_, *world_, ctx, rec, nullptr);
    else
        runScenarioTrial(spec_, ctx, rec);
}

void
WorkloadRunner::runTraced(TrialContext &ctx, TrialRecorder &rec,
                          Tracer &tracer)
{
    switch (workload_) {
      case Workload::ForkFleet:
        composedForkVictimOp(spec_, *world_, ctx, rec, &tracer);
        return;
      case Workload::EvsetCloud:
        composedEvsetOp(spec_, ctx, rec, &tracer);
        return;
      case Workload::BlindAttack:
        composedRebuildVictimOp(spec_, ctx, rec, &tracer);
        return;
    }
}

bool
WorkloadRunner::crossCheck(const CampaignAggregate &pool,
                           std::string *why) const
{
    if (workload_ == Workload::ForkFleet)
        return sameAggregate(pool, runCampaign(pool.trials()), why);
    const ExperimentResult r =
        runScenario(spec_, pool.trials(), 1, kMasterSeed);
    return sameAggregate(pool, r, why);
}

} // namespace llcf::perfbench

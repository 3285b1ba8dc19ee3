#include "campaign.hh"

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <utility>

#include "attack/e2e.hh"
#include "campaign/checkpoint.hh"
#include "common/log.hh"
#include "common/options.hh"
#include "common/rng.hh"
#include "harness/thread_pool.hh"
#include "victim/victim.hh"

namespace llcf {
namespace {

/**
 * Stream index of the fork path's shared warmup world.  Deliberately
 * outside the trial range [0, fleet), so no victim trial shares
 * randomness with the warmup.
 */
constexpr std::uint64_t kWorldStream = 0xFFFFFFFFFFFFFFFFull;

/**
 * The fork path's per-worker warmed world: Steps 0-2 run once, the
 * machine and attacker session are snapshotted, and every victim
 * trial on this worker restores the snapshot and pays only for its
 * own Step-3 monitoring.  Every worker builds a bit-identical world
 * (same spec, same kWorldStream seed), so which worker runs which
 * trial cannot affect the aggregate.
 */
struct CampaignWorld
{
    CampaignWorld(const ScenarioSpec &s, std::uint64_t masterSeed);

    ScenarioSpec spec;
    ScenarioRig rig;
    TraceClassifier classifier;
    NonceExtractor extractor;
    E2EParams params;

    /** The scanned target eviction set, valid fleet-wide (uniform
     *  fleet: every victim maps its target at the same line index). */
    BuiltEvictionSet evset;

    Machine::Snapshot machineSnap;
    AttackSession::Snapshot sessionSnap;

    bool scanOk = false;    //!< warmup reached a scanned target set
    Cycles warmupCycles = 0; //!< one-time Steps 0-2 cost (simulated)
};

CampaignWorld::CampaignWorld(const ScenarioSpec &s,
                             std::uint64_t masterSeed)
    : spec(s),
      rig(s, streamSeed(masterSeed, kWorldStream)),
      params(s.attackParams())
{
    Machine &m = rig.machine;

    // ---- Step 0: blind campaigns calibrate once; the cost lands in
    // warmupCycles like the rest of the warmup.
    if (spec.blind() && !runScenarioCalibration(spec, rig).valid) {
        warmupCycles = m.now();
        return; // scanOk stays false: every victim fails explicitly
    }

    // All fleet victims share one layout on the fork path.
    const unsigned lineIndex = spec.fleetLineIndex(0);

    // ---- classifier training on an attacker-side replica.
    auto replica = makeScenarioVictim(
        spec, m, streamSeed(rig.victimSeed(), kTrainingReplicaStream),
        lineIndex, 0);
    classifier = trainScenarioClassifier(spec, rig, *replica);

    // ---- Step 1: eviction sets at the fleet's target line index.
    E2EResult res;
    BulkOutcome built = EndToEndAttack::buildEvictionSets(
        *rig.session, params, *rig.pool, lineIndex, res);
    if (!res.evsetsBuilt) {
        warmupCycles = m.now();
        return;
    }

    // ---- fork point.  The snapshot is taken *before* the scan victim
    // exists, so each restored trial's production victim allocates the
    // exact frames the scan victim drew here — the scanned set stays
    // the true target set for every forked victim.
    machineSnap = m.snapshot();
    sessionSnap = rig.session->snapshot();

    // ---- Step 2: identify the target SF set against a stand-in
    // victim with the fleet layout.
    auto scanVictim = makeScenarioVictim(
        spec, m, streamSeed(rig.victimSeed(), kProductionVictimStream),
        lineIndex, 0);
    EndToEndAttack attack(*rig.session, *scanVictim, classifier, extractor,
                          params);
    const ScanResult scan = attack.scanForTarget(
        built.evsets,
        EndToEndAttack::scanRequestCount(*scanVictim, params.scanner), res);
    warmupCycles = m.now();
    if (!scan.found)
        return;
    evset = built.evsets[scan.evsetIndex];
    scanOk = true;
}

/**
 * Distinguishes campaign runs so stale thread_local worlds from a
 * previous run (or a previous pool's recycled thread) are never
 * reused across (spec, seed) boundaries.
 */
std::atomic<std::uint64_t> campaignRunToken{0};

/** This worker's warmed world for run @p token (built on first use). */
CampaignWorld &
workerWorld(const ScenarioSpec &spec, std::uint64_t masterSeed,
            std::uint64_t token)
{
    struct WorldSlot
    {
        std::uint64_t token = 0;
        std::unique_ptr<CampaignWorld> world;
    };
    thread_local WorldSlot slot;
    if (slot.token != token || !slot.world) {
        slot.world = std::make_unique<CampaignWorld>(spec, masterSeed);
        slot.token = token;
    }
    return *slot.world;
}

/**
 * One victim's trial body on the fork path: restore the post-build
 * snapshot, create this victim (own key, own quota, shared layout)
 * and run the Step-3 monitoring loop against the pre-scanned set.
 */
void
runForkedVictimTrial(CampaignWorld &world, const ScenarioSpec &spec,
                     TrialContext &ctx, TrialRecorder &rec)
{
    StageResults r;
    if (!world.scanOk) {
        // Warmup failed (blind calibration, Step 1 or Step 2): there
        // is no set to monitor, so every victim in the fleet fails
        // explicitly.  The one-time warmup cost is still charged via
        // trial 0's warmup_cycles metric below.
        recordStageSeries(spec, r, rec);
        if (ctx.index == 0)
            rec.metric("warmup_cycles",
                       static_cast<double>(world.warmupCycles));
        return;
    }

    Machine &m = world.rig.machine;
    m.restore(world.machineSnap);
    world.rig.session->restore(world.sessionSnap);

    auto victim = makeScenarioVictim(
        spec, m, streamSeed(ctx.seed, kProductionVictimStream),
        spec.fleetLineIndex(ctx.index), spec.victimRequestQuota);

    EndToEndAttack attack(*world.rig.session, *victim,
                          world.classifier, world.extractor,
                          world.params);
    // Per-victim marginal cost: only this victim's monitoring time.
    // The shared Steps 0-2 cost is charged once (warmup_cycles).
    r.attack = attack.runFromScan(world.evset);
    recordStageSeries(spec, r, rec);
    maybeRecordTraffic(spec, rec, *victim, nullptr);
    recordPerfCounters(rec, m.perfCounters());
    if (ctx.index == 0)
        rec.metric("warmup_cycles",
                   static_cast<double>(world.warmupCycles));
}

} // namespace

CampaignSummary
summarizeCampaign(const TrialAggregate &aggregate)
{
    CampaignSummary s;
    s.fleet = aggregate.trials();
    if (const SuccessRate *kr = aggregate.outcome("key_recovered")) {
        s.keysRecovered = kr->successes();
        s.fleetSuccessRate = kr->rate();
    }
    // Exact streaming sums; a fleet whose every victim failed before
    // the attack simply has no such metrics, leaving the explicit 0.
    if (const StreamingStats *total = aggregate.metric("total_cycles"))
        s.totalAttackCycles = total->sum();
    if (const StreamingStats *warm = aggregate.metric("warmup_cycles"))
        s.totalAttackCycles += warm->sum();
    s.cyclesPerRecoveredKey =
        s.keysRecovered
            ? s.totalAttackCycles / static_cast<double>(s.keysRecovered)
            : std::numeric_limits<double>::quiet_NaN();
    return s;
}

std::vector<std::pair<std::string, double>>
CampaignSummary::jsonMembers() const
{
    return {{"fleet", static_cast<double>(fleet)},
            {"keys_recovered", static_cast<double>(keysRecovered)},
            {"fleet_success_rate", fleetSuccessRate},
            {"total_attack_cycles", totalAttackCycles},
            {"cycles_per_recovered_key", cyclesPerRecoveredKey}};
}

KeyRecoveryCampaign::KeyRecoveryCampaign(ScenarioSpec spec)
    : spec_(std::move(spec))
{
    if (spec_.stage != ScenarioStage::Campaign)
        fatal("campaign '%s': spec stage is %s, not campaign",
              spec_.name.c_str(), scenarioStageName(spec_.stage));
    if (spec_.forkVictims &&
        (spec_.fleetLineIndexStep != 0 || !spec_.fleetNoises.empty()))
        fatal("campaign '%s': forkVictims needs a uniform fleet "
              "(fleetLineIndexStep == 0, no fleetNoises rotation) — "
              "the one-time scan is only valid when every victim "
              "shares the layout and environment",
              spec_.name.c_str());
    if (spec_.forkVictims && spec_.defense.active())
        fatal("campaign '%s': forkVictims cannot compose with an "
              "active defense — re-keying or watchdog state would "
              "invalidate the shared post-scan snapshot; use the "
              "per-trial (non-fork) campaign path",
              spec_.name.c_str());
    if (spec_.forkVictims && spec_.coTenants > 0)
        fatal("campaign '%s': forkVictims cannot compose with "
              "co-tenant load — the pinned load streams live outside "
              "the shared post-scan snapshot; use the per-trial "
              "(non-fork) campaign path",
              spec_.name.c_str());
}

CampaignResult
KeyRecoveryCampaign::run(const CampaignRunOptions &opts) const
{
    // wallSeconds is stdout-only progress info; jsonMembers omits it
    // (campaign.hh), so no serialized byte depends on this read.
    // detlint: allow(wallclock) -- stdout-only wall time
    const auto t0 = std::chrono::steady_clock::now();
    const std::size_t fleet = opts.fleet ? opts.fleet : spec_.fleetSize;

    CampaignResult out;
    out.name = spec_.name;
    out.masterSeed = opts.masterSeed;
    out.threadsUsed = resolveThreadCount(opts.threads);

    // ---- resume: adopt the checkpointed aggregate, continue at the
    // recorded trial.  A missing file is a fresh start; a mismatched
    // or unreadable one is an operator error, not something to paper
    // over by silently recomputing.
    std::size_t nextTrial = 0;
    if (opts.resume && !opts.checkpointPath.empty()) {
        if (std::FILE *f = std::fopen(opts.checkpointPath.c_str(), "r")) {
            std::fclose(f);
            CampaignCheckpoint cp;
            std::string err;
            if (!loadCampaignCheckpoint(opts.checkpointPath, cp, &err))
                fatal("campaign '%s': cannot resume: %s",
                      spec_.name.c_str(), err.c_str());
            if (cp.campaign != spec_.name || cp.fleet != fleet ||
                cp.masterSeed != opts.masterSeed ||
                cp.shardTrials != kShardTrials)
                fatal("campaign '%s': checkpoint %s belongs to a "
                      "different run (campaign '%s', fleet %llu, seed "
                      "%llu, shard %llu)",
                      spec_.name.c_str(), opts.checkpointPath.c_str(),
                      cp.campaign.c_str(),
                      static_cast<unsigned long long>(cp.fleet),
                      static_cast<unsigned long long>(cp.masterSeed),
                      static_cast<unsigned long long>(cp.shardTrials));
            out.aggregate = std::move(cp.aggregate);
            nextTrial = static_cast<std::size_t>(cp.nextTrial);
        }
    }

    // One token per run: recycled worker threads must not reuse a
    // world warmed for a different (spec, seed).
    const std::uint64_t token = ++campaignRunToken;
    const ExperimentRunner::TrialFn victimTrial =
        [&](TrialContext &ctx, TrialRecorder &rec) {
            if (spec_.forkVictims)
                runForkedVictimTrial(
                    workerWorld(spec_, opts.masterSeed, token), spec_,
                    ctx, rec);
            else
                runScenarioTrial(spec_, ctx, rec);
        };

    ThreadPool pool(out.threadsUsed);
    for (std::size_t shardsRun = 0; nextTrial < fleet; ++shardsRun) {
        if (opts.stopAfterShards && shardsRun >= opts.stopAfterShards) {
            out.interrupted = true;
            break;
        }
        const std::size_t count = std::min(kShardTrials, fleet - nextTrial);
        ExperimentRunner::runShard(pool, opts.masterSeed, nextTrial, count,
                                   victimTrial, out.aggregate);
        nextTrial += count;

        if (!opts.checkpointPath.empty()) {
            CampaignCheckpoint cp;
            cp.campaign = spec_.name;
            cp.fleet = fleet;
            cp.masterSeed = opts.masterSeed;
            cp.shardTrials = kShardTrials;
            cp.nextTrial = nextTrial;
            cp.aggregate = out.aggregate;
            std::string err;
            if (!writeCampaignCheckpoint(opts.checkpointPath, cp, &err))
                fatal("campaign '%s': checkpoint write failed: %s",
                      spec_.name.c_str(), err.c_str());
        }
    }

    out.summary = summarizeCampaign(out.aggregate);
    out.campaign = out.summary.jsonMembers();
    // Paired with the t0 read above; feeds the stdout-only
    // wallSeconds field, never the JSON.
    // detlint: allow(wallclock) -- stdout-only wall time
    const auto t1 = std::chrono::steady_clock::now();
    out.summary.wallSeconds =
        std::chrono::duration<double>(t1 - t0).count();
    return out;
}

} // namespace llcf

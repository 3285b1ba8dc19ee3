/**
 * @file
 * Fleet-scale end-to-end key-recovery campaigns.
 *
 * A campaign drives the paper's full Step 1-3 pipeline — eviction-set
 * construction, PSD target-set scan, Prime+Probe monitoring and nonce
 * extraction — against a *fleet* of N victim services instead of the
 * single victim EndToEndAttack handles.  Victims differ the way
 * co-resident tenants do: each has its own ECDSA key, its own target
 * page offset inside its binary, its own noise environment and
 * (optionally) a request quota.
 *
 * One victim is one trial, and trials run through the harness's
 * shard step (ExperimentRunner::runShard) exactly as every other
 * experiment's do: fixed kShardTrials-wide shards, per-trial slots,
 * a trial-ordered fold into the streaming TrialAggregate.  The
 * aggregate — and its BENCH_e2e.json serialisation — is therefore
 * byte-identical for 1 or 8 worker threads (DESIGN.md §6, §9).  What
 * the campaign adds is the shard loop around that step: at each
 * shard boundary it can checkpoint the aggregate plus the next trial
 * index, and a resumed campaign finishes with JSON byte-identical to
 * an uninterrupted one.
 *
 * Victims run on one of two paths.  The rebuild path is the scenario
 * pipeline's Campaign stage (runScenarioTrial): every trial builds its
 * complete world from its positional stream, the original
 * per-victim-expensive contract.  The fork path
 * (ScenarioSpec::forkVictims) warms one world per worker, snapshots
 * it between Step 1 and Step 2, and every victim restores the
 * snapshot and pays only for Step 3; 10^5+-victim fleets run on it.
 * Both paths run EndToEndAttack's steps and record through
 * recordStageSeries, so a victim's series do not depend on its path.
 */

#ifndef LLCF_CAMPAIGN_CAMPAIGN_HH
#define LLCF_CAMPAIGN_CAMPAIGN_HH

#include <string>
#include <utility>
#include <vector>

#include "harness/experiment.hh"
#include "scenario/scenario.hh"

namespace llcf {

/** Cross-victim aggregate of one campaign run. */
struct CampaignSummary
{
    std::size_t fleet = 0;         //!< victims attacked
    std::size_t keysRecovered = 0; //!< victims whose key was recovered

    /** keysRecovered / fleet (0 when the fleet is empty). */
    double fleetSuccessRate = 0.0;

    /**
     * Sum of per-victim attack time (simulated cycles), computed with
     * the exact compensated sum — never the lossy mean()*count round
     * trip — plus the one-time warmup cost in fork mode.  0 when the
     * campaign recorded no cycle metrics at all (e.g. an empty fleet).
     */
    double totalAttackCycles = 0.0;

    /**
     * Simulated attack cycles spent per recovered key — the
     * campaign's cost headline.  NaN when no key was recovered
     * (serialised as an explicit JSON null).
     */
    double cyclesPerRecoveredKey = 0.0;

    /** Host-side wall clock of the run; stdout only, never
     *  serialised (it would break byte-determinism). */
    double wallSeconds = 0.0;

    /** The entry's "campaign" object members, in order (every field
     *  but wallSeconds; a NaN cost per key serialises as null). */
    std::vector<std::pair<std::string, double>> jsonMembers() const;
};

/**
 * One campaign run: the experiment result (name, seed, workers, the
 * streaming aggregate and, once finished, its "campaign" object) plus
 * the fleet summary and the interrupt flag.
 */
struct CampaignResult : ExperimentResult
{
    /**
     * True when the run stopped at a shard boundary before the fleet
     * completed (CampaignRunOptions::stopAfterShards).  An
     * interrupted result must not be added to a suite as a finished
     * BENCH entry; resume from the checkpoint instead.
     */
    bool interrupted = false;

    CampaignSummary summary;
};

/**
 * Derive the fleet summary from a campaign's streaming aggregates
 * (the "key_recovered" outcome and "total_cycles" metric, plus the
 * fork path's one-time "warmup_cycles").  Handles aggregates where
 * metrics are entirely absent — e.g. a fleet whose every victim
 * failed blind calibration never records recovered_fraction — by
 * leaving the corresponding summary fields at their explicit
 * defaults.  Pure, so tests can feed synthetic aggregates.
 */
CampaignSummary summarizeCampaign(const TrialAggregate &aggregate);

/** How a campaign run executes (fleet, workers, checkpointing). */
struct CampaignRunOptions
{
    std::size_t fleet = 0;    //!< victims; 0 = spec.fleetSize
    unsigned threads = 0;     //!< workers (0 = LLCF_THREADS / hw)
    std::uint64_t masterSeed = 42;

    /** Checkpoint file updated at every shard boundary ("" = none). */
    std::string checkpointPath;

    /**
     * Resume from checkpointPath if it exists: completed shards are
     * loaded, execution continues at the recorded trial.  A
     * checkpoint whose identity (campaign, fleet, seed, shard width)
     * does not match this run is fatal, not silently ignored.
     */
    bool resume = false;

    /** Stop after this many shards have run (0 = run to completion);
     *  the scripted-interrupt hook for checkpoint tests and CI. */
    std::size_t stopAfterShards = 0;
};

/**
 * Runs one campaign scenario (a ScenarioSpec with
 * ScenarioStage::Campaign) on the sharded streaming runner.
 */
class KeyRecoveryCampaign
{
  public:
    /** @p spec must have stage Campaign (fatal otherwise). */
    explicit KeyRecoveryCampaign(ScenarioSpec spec);

    const ScenarioSpec &spec() const { return spec_; }

    /** Attack a fleet with full control over sharding/checkpoints. */
    CampaignResult run(const CampaignRunOptions &opts) const;

    /**
     * Attack a fleet (no checkpointing).
     *
     * @param fleet Victims to run; 0 = spec.fleetSize.
     * @param threads Harness workers (0 = LLCF_THREADS / hardware).
     * @param masterSeed Root of the per-victim RNG streams.
     */
    CampaignResult
    run(std::size_t fleet = 0, unsigned threads = 0,
        std::uint64_t masterSeed = 42) const
    {
        CampaignRunOptions opts;
        opts.fleet = fleet;
        opts.threads = threads;
        opts.masterSeed = masterSeed;
        return run(opts);
    }

  private:
    ScenarioSpec spec_;
};

} // namespace llcf

#endif // LLCF_CAMPAIGN_CAMPAIGN_HH

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
 * Execution is sharded: trials run in fixed-width shards (one victim
 * is one trial), each shard fans across the worker pool into
 * per-trial slots, and slots fold into a streaming CampaignAggregate
 * strictly in trial order.  Shard width is thread-count-independent,
 * so the aggregate — and its BENCH_e2e.json serialisation — is
 * byte-identical for 1 or 8 worker threads (DESIGN.md §6, §9).  At
 * each shard boundary the runner can checkpoint the aggregate plus
 * the next trial index; a resumed campaign finishes with JSON
 * byte-identical to an uninterrupted one.
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
#include <vector>

#include "campaign/aggregate.hh"
#include "scenario/scenario.hh"

namespace llcf {

/**
 * Trials per campaign shard.  Fixed (never derived from the thread
 * count) so checkpoint boundaries — and therefore resumed runs — are
 * identical at any parallelism.
 */
constexpr std::size_t kCampaignShardTrials = 64;

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
};

/** One campaign's streaming aggregates plus the fleet summary. */
struct CampaignResult
{
    std::string name;              //!< scenario name
    std::size_t trials = 0;        //!< fleet size of the (full) run
    std::uint64_t masterSeed = 0;  //!< root of the per-victim streams
    unsigned threadsUsed = 0;      //!< workers (not serialised)
    CampaignAggregate aggregate;   //!< per-victim metrics/outcomes

    /**
     * True when the run stopped at a shard boundary before the fleet
     * completed (CampaignRunOptions::stopAfterShards).  An
     * interrupted result must not be serialised as a finished BENCH
     * entry; resume from the checkpoint instead.
     */
    bool interrupted = false;

    CampaignSummary summary;

    /**
     * One "benchmarks" array entry: the experiment members (name,
     * trials, seed, metrics, outcomes) plus a "campaign" object with
     * the fleet summary.  wallSeconds is deliberately omitted.
     */
    void writeJson(JsonWriter &w) const;
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
CampaignSummary summarizeCampaign(const CampaignAggregate &aggregate);

/** Same derivation from an exact experiment aggregate (the
 *  scenarios suite runs campaign cells through the plain harness). */
CampaignSummary summarizeCampaign(const ExperimentResult &experiment);

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

/**
 * An ordered collection of campaign results destined for one
 * BENCH_e2e.json document (mirrors ExperimentSuite).
 */
class CampaignSuite
{
  public:
    /** @param bench Bench identifier, e.g. "e2e". */
    explicit CampaignSuite(std::string bench);

    /** Numeric "context" entry (e.g. the CI gate's tolerance). */
    void contextValue(std::string key, double v);

    /** Append one result (rendered in insertion order). */
    void add(CampaignResult result);

    const std::vector<CampaignResult> &results() const
    {
        return results_;
    }

    /** Whole-suite JSON document (context + benchmarks array). */
    std::string toJson() const;

    /** Write toJson() to @p path or the default BENCH destination
     *  (see writeBenchDocument). Returns the path, or "" on I/O
     *  failure. */
    std::string writeFile(const std::string &path = "") const;

  private:
    std::string bench_;
    std::vector<std::pair<std::string, double>> contextValues_;
    std::vector<CampaignResult> results_;
};

} // namespace llcf

#endif // LLCF_CAMPAIGN_CAMPAIGN_HH

/**
 * @file
 * The benchmark's three workloads and their op bodies.
 *
 * An op is the unit a workload times.  Every op runs on a
 * TrialContext built exactly as the experiment harness builds it
 * (streamSeed / Rng::forStream of the master seed and the trial
 * index).  A workload's inputs are a fixed pool of trials 0..K-1; a
 * run cycles through the pool, starting at a seed-chosen trial, so
 * every trial is timed several times and its repeats must reproduce
 * its first record.
 *
 * Each workload has two op bodies:
 *  - untraced: the library's public entry point for the op
 *    (runScenarioTrial) on the rebuild paths.  On the fork path a
 *    forked victim's body is internal to KeyRecoveryCampaign::run,
 *    whose host time is visible only per whole campaign; the untraced
 *    op there is the composition below with tracing off, and the fork
 *    path's set-up is timed on the library's own one-victim campaigns;
 *  - traced: a composition of public stage calls that reproduces the
 *    untraced body's records exactly, with a span around each stage.
 *    The fork composition rebuilds KeyRecoveryCampaign's warmed world
 *    and forked victim from the same public calls.
 * Every run checks its pool of records against the library's runner.
 */

#ifndef LLCF_PERFBENCH_WORKLOADS_HH
#define LLCF_PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "campaign/aggregate.hh"
#include "harness/experiment.hh"
#include "scenario/scenario.hh"
#include "trace.hh"

namespace llcf::perfbench {

/** The benchmark's workloads. */
enum class Workload { ForkFleet, EvsetCloud, BlindAttack };

/** All workloads, in the order the benchmark documents them. */
inline constexpr Workload kWorkloads[] = {
    Workload::ForkFleet, Workload::EvsetCloud, Workload::BlindAttack};

/** CLI name of @p w ("fork-fleet", ...). */
const char *workloadName(Workload w);

/** Parse a CLI workload name; false when unknown. */
bool parseWorkload(const std::string &name, Workload &out);

/**
 * Master seed of every op stream.  The harness default, so the
 * input pool holds the trials the committed benches run.
 */
inline constexpr std::uint64_t kMasterSeed = 42;

/** Trial index of op @p i in a run seeded with @p seed: the pool
 *  0..@p pool-1 in cyclic order, starting at seed mod pool. */
std::size_t opTrial(std::size_t pool, std::uint64_t seed, std::size_t i);

/** The harness's TrialContext for trial @p trial of kMasterSeed. */
TrialContext makeContext(std::size_t trial);

/** Two op records hold the same outcomes and metrics (simulated
 *  cycles, counters, recovered fractions) in the same order. */
bool sameSimulatedResult(const TrialRecorder &a, const TrialRecorder &b,
                         std::string *why);

/** Two aggregates hold the same outcome counts and, per metric, the
 *  same sample count and sum. */
bool sameCampaign(const CampaignAggregate &a, const CampaignAggregate &b,
                  std::string *why);

/** Values recorded under @p name, in record order. */
std::vector<double> recordedMetric(const TrialRecorder &rec,
                                   const std::string &name);

/** Outcomes recorded under @p name, in record order. */
std::vector<bool> recordedOutcome(const TrialRecorder &rec,
                                  const std::string &name);

struct ForkWorld;

/** Resolves one workload's spec and runs its ops. */
class WorkloadRunner
{
  public:
    explicit WorkloadRunner(Workload w);
    ~WorkloadRunner();

    WorkloadRunner(const WorkloadRunner &) = delete;
    WorkloadRunner &operator=(const WorkloadRunner &) = delete;

    /** Size K of the input pool (trials 0..K-1).  The pool's records
     *  define the deterministic metrics and are cross-checked
     *  against the library's own runner. */
    std::size_t poolSize() const;

    /** Outcome counted by success_rate. */
    const char *primaryOutcome() const;

    /** Metric holding an op's simulated attack cycles. */
    const char *simCyclesMetric() const;

    /** True iff ops run on a shared warmed world (the fork path). */
    bool forkPath() const { return workload_ == Workload::ForkFleet; }

    /** Fork path: the library's campaign of victims 0..@p fleet-1
     *  (KeyRecoveryCampaign::run, one worker, kMasterSeed), warm-up
     *  included. */
    CampaignAggregate runCampaign(std::size_t fleet) const;

    /**
     * One-time preparation before the first op of a run of op
     * bodies.  Fork path: compose the warmed world (Steps 0-2,
     * snapshot) that runUntraced and runTraced fork from.  Rebuild
     * paths: one untimed warm-up op on pool trial 0, so lazy
     * initialisation and first-touch costs land here rather than in
     * the timed ops.  Repeatable; a new fork world replaces the old.
     */
    void setup(Tracer *tracer);

    /** The op body without spans (see file comment). */
    void runUntraced(TrialContext &ctx, TrialRecorder &rec);

    /** The traced op body: public stage calls, one span each. */
    void runTraced(TrialContext &ctx, TrialRecorder &rec, Tracer &tracer);

    /**
     * Run trials 0..K-1 through the library's own runner
     * (runScenario, or KeyRecoveryCampaign::run on the fork path)
     * and compare with @p pool, the fold of the op loop's records of
     * those trials in trial order (see sameCampaign).
     */
    bool crossCheck(const CampaignAggregate &pool, std::string *why) const;

  private:
    Workload workload_;
    ScenarioSpec spec_;
    std::unique_ptr<ForkWorld> world_;
};

} // namespace llcf::perfbench

#endif // LLCF_PERFBENCH_WORKLOADS_HH

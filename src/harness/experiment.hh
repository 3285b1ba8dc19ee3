/**
 * @file
 * Deterministic parallel experiment runner: the one place trials run.
 *
 * An experiment is N independent trials of one procedure (build an
 * eviction set, monitor a victim, attack one fleet victim, ...).  The
 * runner works in fixed kShardTrials-wide shards: each shard fans its
 * trials across a thread pool, hands each trial its own
 * positionally-derived RNG stream (streamSeed(master, trial)) and its
 * own TrialRecorder slot, and only after the shard's workers finish
 * folds the slots *in trial order* into one TrialAggregate.  The
 * aggregate — and the JSON serialisation of it — is therefore
 * bit-identical whatever the worker count or OS schedule:
 * `LLCF_THREADS=1` and `LLCF_THREADS=8` runs of a bench produce the
 * same BENCH_*.json.  Fleet campaigns (src/campaign/) drive the same
 * shard step one shard at a time, checkpointing between shards.
 */

#ifndef LLCF_HARNESS_EXPERIMENT_HH
#define LLCF_HARNESS_EXPERIMENT_HH

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/rng.hh"
#include "common/stats.hh"
#include "harness/aggregate.hh"
#include "harness/json.hh"

namespace llcf {

class ThreadPool;

/**
 * Trials per shard.  Fixed (never derived from the thread count) so
 * shard boundaries — and the campaign checkpoints written at them —
 * are identical at any parallelism.  Checkpoints record it and refuse
 * to resume at another width, so it must stay 64.
 */
constexpr std::size_t kShardTrials = 64;

/** Identity and per-trial randomness of one running trial. */
struct TrialContext
{
    std::size_t index; //!< trial number in [0, trials)
    std::uint64_t seed; //!< this trial's stream seed
    Rng rng;            //!< generator already seeded with @p seed
};

/** Configuration of one experiment run. */
struct ExperimentConfig
{
    std::string name;         //!< row label, e.g. "SingleSet Gt @ cloud"
    std::size_t trials = 1;   //!< independent repetitions
    unsigned threads = 0;     //!< 0: LLCF_THREADS or hardware concurrency
    std::uint64_t masterSeed = 42; //!< root of the per-trial streams
};

/** Aggregated result of one experiment. */
struct ExperimentResult
{
    std::string name;             //!< row label
    std::uint64_t masterSeed = 0; //!< root of the per-trial streams
    unsigned threadsUsed = 0;     //!< workers used (not serialised)
    TrialAggregate aggregate;     //!< every trial, folded in order

    /**
     * Members of a trailing "campaign" object, in order: a fleet
     * summary (src/campaign/).  Empty for every other experiment,
     * which then writes no such object.
     */
    std::vector<std::pair<std::string, double>> campaign;

    std::size_t trials() const { return aggregate.trials(); }

    /** Aggregate for @p name, or nullptr if never recorded. */
    const StreamingStats *
    metric(std::string_view name) const
    {
        return aggregate.metric(name);
    }

    /** Success rate for @p name, or nullptr if never recorded. */
    const SuccessRate *
    outcome(std::string_view name) const
    {
        return aggregate.outcome(name);
    }

    const std::vector<std::pair<std::string, StreamingStats>> &
    metrics() const
    {
        return aggregate.metrics();
    }

    const std::vector<std::pair<std::string, SuccessRate>> &
    outcomes() const
    {
        return aggregate.outcomes();
    }

    /**
     * Serialise as one entry of a BENCH_*.json "benchmarks" array:
     * the aggregate's members (TrialAggregate::writeJsonMembers), then
     * the "campaign" object when there is one.  Thread count is
     * deliberately omitted so runs at different parallelism stay
     * byte-identical.
     */
    void writeJson(JsonWriter &w) const;
};

/**
 * Runs experiments.  Construct once per bench (the pool is created
 * per run() call, sized to the experiment's thread setting).
 */
class ExperimentRunner
{
  public:
    using TrialFn = std::function<void(TrialContext &, TrialRecorder &)>;

    explicit ExperimentRunner(ExperimentConfig cfg);

    const ExperimentConfig &config() const { return cfg_; }

    /**
     * Execute all trials of @p fn, shard by shard, and aggregate.  A
     * trial that throws aborts the run by rethrowing after the pool
     * drains.
     */
    ExperimentResult run(const TrialFn &fn) const;

    /**
     * The shard step: run trials [first, first + count) of @p fn on
     * @p pool, each into its own recorder slot, then fold the slots
     * into @p aggregate in trial order.  @p count is at most
     * kShardTrials; callers advance @p first by whole shards.
     */
    static void runShard(ThreadPool &pool, std::uint64_t masterSeed,
                         std::size_t first, std::size_t count,
                         const TrialFn &fn, TrialAggregate &aggregate);

  private:
    ExperimentConfig cfg_;
};

/**
 * An ordered collection of experiment results destined for one
 * BENCH_*.json file.
 */
class ExperimentSuite
{
  public:
    /** @param bench Bench identifier, e.g. "table4". */
    explicit ExperimentSuite(std::string bench);

    /**
     * Add a numeric entry to the suite's "context" object (e.g. the
     * tolerance a regression gate applies to this suite's metrics).
     * Rendered after the standard context members, in insertion order.
     */
    void contextValue(std::string key, double v);

    /** Append one result (rendered in insertion order). */
    void add(ExperimentResult result);

    const std::vector<ExperimentResult> &results() const { return results_; }

    /** Whole-suite JSON document (context + benchmarks array). */
    std::string toJson() const;

    /**
     * Write toJson() to @p path, or to the default path when empty:
     * $LLCF_JSON_OUT if set, else BENCH_<bench>.json in the working
     * directory.  Returns the path written, or "" on I/O failure.
     */
    std::string writeFile(const std::string &path = "") const;

  private:
    std::string bench_;
    std::vector<std::pair<std::string, double>> contextValues_;
    std::vector<ExperimentResult> results_;
};

/**
 * Write @p doc plus a trailing newline to @p path, or to the default
 * destination when @p path is empty: $LLCF_JSON_OUT if set, else
 * BENCH_<bench>.json in the working directory.  Returns the path
 * written, or "" on I/O failure.  Shared by every suite writer.
 */
std::string writeBenchDocument(const std::string &bench,
                               const std::string &doc,
                               const std::string &path = "");

} // namespace llcf

#endif // LLCF_HARNESS_EXPERIMENT_HH

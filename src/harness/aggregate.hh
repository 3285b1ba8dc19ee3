/**
 * @file
 * What a trial records, and the one aggregate every trial folds into.
 *
 * A trial writes scalar samples and boolean outcomes into its own
 * TrialRecorder.  The harness folds recorders into a TrialAggregate
 * strictly in trial order: per-metric StreamingStats (compensated sum
 * + Welford moments + deterministic quantile sketch, O(1) memory
 * each) and per-outcome SuccessRate counters.  The aggregate — and
 * its JSON — is therefore a pure function of the trials' records at
 * any worker count.  Up to StreamingStats::kHeadCapacity samples per
 * series every statistic is exact (the same bytes an exact
 * accumulator gives); beyond it quantiles come from the sketch and
 * stddev from the Welford moments (DESIGN.md §9).
 *
 * The whole aggregate serialises to JSON and restores bit-identically
 * (writeState/fromState), which is what makes campaign checkpoints
 * possible.  fromState treats its input as untrusted: every count,
 * kind and sketch invariant is checked before anything is rebuilt.
 */

#ifndef LLCF_HARNESS_AGGREGATE_HH
#define LLCF_HARNESS_AGGREGATE_HH

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/stats.hh"
#include "harness/json.hh"

namespace llcf {

/**
 * Per-trial sample sink.  Metrics accumulate scalar samples (a name
 * may be recorded any number of times per trial); outcomes accumulate
 * boolean trial results into success rates.
 */
class TrialRecorder
{
  public:
    /** Record one scalar sample under @p name. */
    void metric(std::string_view name, double v);

    /** Record one boolean outcome under @p name. */
    void outcome(std::string_view name, bool success);

    /** Recorded samples in record order. */
    const std::vector<std::pair<std::string, double>> &
    metrics() const
    {
        return metrics_;
    }

    /** Recorded outcomes in record order. */
    const std::vector<std::pair<std::string, bool>> &
    outcomes() const
    {
        return outcomes_;
    }

  private:
    std::vector<std::pair<std::string, double>> metrics_;
    std::vector<std::pair<std::string, bool>> outcomes_;
};

/**
 * Ordered streaming metric/outcome aggregates over trials.  Key order
 * is first-recorded order across the trial-ordered fold.
 */
class TrialAggregate
{
  public:
    /** Trials folded in so far. */
    std::size_t trials() const { return trials_; }

    /** Fold one trial's recorded samples in (call in trial order). */
    void fold(const TrialRecorder &rec);

    /** Aggregate for @p name, or nullptr if never recorded. */
    const StreamingStats *metric(std::string_view name) const;

    /** Success rate for @p name, or nullptr if never recorded. */
    const SuccessRate *outcome(std::string_view name) const;

    /** Metric aggregates in first-recorded order. */
    const std::vector<std::pair<std::string, StreamingStats>> &
    metrics() const
    {
        return metrics_;
    }

    /** Outcome aggregates in first-recorded order. */
    const std::vector<std::pair<std::string, SuccessRate>> &
    outcomes() const
    {
        return outcomes_;
    }

    /**
     * The members of one BENCH_*.json "benchmarks" entry: name,
     * trials, seed, then {count, mean, stddev, min, p10, median, p90,
     * max} per metric and {trials, successes, rate} per outcome.
     */
    void writeJsonMembers(JsonWriter &w, const std::string &name,
                          std::uint64_t masterSeed) const;

    /** Full value state as a JSON object (campaign checkpoints). */
    void writeState(JsonWriter &w) const;

    /**
     * Rebuild an aggregate from a writeState() object.
     * @return false (and fills @p error) on a malformed document: a
     *         field of the wrong JSON kind, a non-integral, negative
     *         or out-of-range count, a non-finite number, a duplicate
     *         name, more successes than trials, or a metric state
     *         StreamingStats::validState rejects.
     */
    static bool fromState(const JsonValue &v, TrialAggregate &out,
                          std::string *error);

  private:
    StreamingStats &statsFor(const std::string &name);
    SuccessRate &rateFor(const std::string &name);

    std::size_t trials_ = 0;
    std::vector<std::pair<std::string, StreamingStats>> metrics_;
    std::vector<std::pair<std::string, SuccessRate>> outcomes_;
};

} // namespace llcf

#endif // LLCF_HARNESS_AGGREGATE_HH

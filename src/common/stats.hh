/**
 * @file
 * Summary statistics and empirical distributions.
 *
 * The paper reports success rates, mean/stddev/median execution times and
 * CDFs (Figure 2); these helpers compute those from collected samples.
 */

#ifndef LLCF_COMMON_STATS_HH
#define LLCF_COMMON_STATS_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace llcf {

/**
 * Neumaier-compensated running sum: the classic Kahan update with
 * Neumaier's branch so the correction also survives |v| > |sum|.
 * The accumulated value() is exact to one final rounding for the
 * magnitude spreads campaigns produce (calibration cycles in the 1e9
 * range folded with sub-1.0 rates), where a naive left-fold loses
 * low-order bits on every step.
 */
class CompensatedSum
{
  public:
    /** Fold one term into the sum. */
    void add(double v);

    /** The compensated total. */
    double value() const { return sum_ + comp_; }

    /** Raw running sum (serialisation). */
    double raw() const { return sum_; }

    /** Accumulated correction term (serialisation). */
    double compensation() const { return comp_; }

    /** Rebuild from serialised state. */
    static CompensatedSum
    fromState(double raw, double compensation)
    {
        CompensatedSum s;
        s.sum_ = raw;
        s.comp_ = compensation;
        return s;
    }

  private:
    double sum_ = 0.0;
    double comp_ = 0.0;
};

/**
 * Accumulates scalar samples and reports order statistics on demand.
 *
 * Samples are kept (not streamed): this is the *exact* per-trial
 * accumulator, for code that needs one trial's raw samples (an
 * E2EResult's recovered fractions, a monitor's probe latencies, the
 * covert channel's timings).  Trials fold into the harness's
 * TrialAggregate, whose StreamingStats answers the same queries in
 * O(1) memory per metric.
 */
class SampleStats
{
  public:
    /** Record one sample. */
    void add(double v);

    /** Number of recorded samples. */
    std::size_t count() const { return samples_.size(); }

    /** True iff no samples recorded. */
    bool empty() const { return samples_.empty(); }

    /**
     * Exact compensated sum of all samples (0 when empty) — the
     * campaign total-cycles path consumes this instead of the lossy
     * mean()*count round-trip.
     */
    double sum() const;

    /** Arithmetic mean (0 when empty), from the compensated sum. */
    double mean() const;

    /** Population standard deviation (0 when fewer than 2 samples). */
    double stddev() const;

    /** Smallest sample. @pre !empty() */
    double min() const;

    /** Largest sample. @pre !empty() */
    double max() const;

    /** Median, by linear interpolation. @pre !empty() */
    double median() const;

    /**
     * Percentile in [0, 100] with linear interpolation between ranks.
     * @pre !empty()
     */
    double percentile(double pct) const;

    /** Read-only access to raw samples (unsorted). */
    const std::vector<double> &samples() const { return samples_; }

  private:
    /** Sort the cached copy if new samples arrived since last query. */
    void ensureSorted() const;

    std::vector<double> samples_;
    mutable std::vector<double> sorted_;
    mutable bool dirty_ = false;
};

/**
 * Serialisable value snapshot of a StreamingStats accumulator, for
 * campaign checkpoints.  All members round-trip exactly through the
 * harness JSON layer (jsonNumber emits shortest-round-trip doubles).
 */
struct StreamingStatsState
{
    std::uint64_t count = 0;
    double sum = 0.0;         //!< raw Neumaier running sum
    double sumComp = 0.0;     //!< Neumaier correction term
    double mean = 0.0;        //!< Welford running mean
    double m2 = 0.0;          //!< Welford sum of squared deviations
    double min = 0.0;         //!< valid iff count > 0
    double max = 0.0;         //!< valid iff count > 0
    std::vector<double> head; //!< exact-phase sample buffer
    /** Quantile-sketch compactor buffers, one per level (level L
     *  items each stand for 2^L original samples). */
    std::vector<std::vector<double>> levels;
    std::vector<std::uint8_t> parity; //!< per-level compaction parity
};

/**
 * Streaming aggregate with the SampleStats query API in O(1) memory
 * per metric.
 *
 * Three cooperating pieces:
 *  - an exact head buffer of the first kHeadCapacity samples.  While
 *    count() fits the head, every query is answered from it with the
 *    *same algorithms SampleStats uses*, so small aggregates — all
 *    committed BENCH_*.json smoke fleets — are byte-identical between
 *    the exact and streaming accumulators;
 *  - Neumaier-compensated sum and Welford moments, fed from the first
 *    sample, so sum()/mean()/stddev() stay exact-to-last-rounding at
 *    10^6 samples;
 *  - a deterministic quantile-sketch (per-level compacting
 *    buffers with alternating keep-parity, no randomness), answering
 *    percentile queries once the head is outgrown.
 *
 * Determinism contract: the accumulator state is a pure function of
 * the sample sequence — so the harness, which adds every trial's
 * samples in trial order, produces identical state at any
 * worker-thread count, and a state round-tripped through
 * StreamingStatsState resumes bit-identically.
 */
class StreamingStats
{
  public:
    /** Samples kept exactly before switching to streaming answers. */
    static constexpr std::size_t kHeadCapacity = 64;

    /** Record one sample. */
    void add(double v);

    /** Number of recorded samples. */
    std::size_t count() const { return static_cast<std::size_t>(count_); }

    /** True iff no samples recorded. */
    bool empty() const { return count_ == 0; }

    /** True while queries are answered exactly from the head. */
    bool exact() const { return count_ <= kHeadCapacity; }

    /** Compensated sum of all samples (0 when empty). */
    double sum() const { return count_ ? sum_.value() : 0.0; }

    /** Arithmetic mean (0 when empty). */
    double mean() const;

    /** Population standard deviation (0 when fewer than 2 samples). */
    double stddev() const;

    /** Smallest sample. @pre !empty() */
    double min() const;

    /** Largest sample. @pre !empty() */
    double max() const;

    /** Median (exact in the head phase, sketched beyond). */
    double median() const;

    /** Percentile in [0, 100]; exact in the head phase. @pre !empty() */
    double percentile(double pct) const;

    /** Value snapshot for checkpoint serialisation. */
    StreamingStatsState state() const;

    /**
     * Check that @p state is one add() can reach: a head of
     * min(count, kHeadCapacity) samples, one parity bit (0 or 1) per
     * sketch level, every level below the compactor capacity, and
     * level weights summing to count.  Checkpoints are read from disk,
     * so a state that breaks these is rejected, never folded into.
     * @return false (and fills @p error) on the first broken invariant.
     */
    static bool validState(const StreamingStatsState &state,
                           std::string *error);

    /** Rebuild an accumulator from a checkpointed state.
     *  @pre validState(state) (panics otherwise) */
    static StreamingStats fromState(const StreamingStatsState &state);

  private:
    /** Compactor buffer capacity per sketch level (must stay even). */
    static constexpr std::size_t kSketchBuf = 64;

    /** Append @p v to sketch level @p level, compacting overflow. */
    void sketchPush(std::size_t level, double v);

    /** Sort level @p level and promote alternate items one level up. */
    void sketchCompact(std::size_t level);

    /** Weighted quantile over the sketch buffers. @pre !empty() */
    double sketchQuantile(double pct) const;

    std::uint64_t count_ = 0;
    CompensatedSum sum_;
    double welfordMean_ = 0.0;
    double welfordM2_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
    std::vector<double> head_;
    std::vector<std::vector<double>> levels_;
    std::vector<std::uint8_t> parity_;
};

/**
 * Counter of binary outcomes, reporting a success rate.
 */
class SuccessRate
{
  public:
    SuccessRate() = default;

    /** Rebuild from checkpointed counts. @pre successes <= trials */
    SuccessRate(std::size_t trials, std::size_t successes);

    /** Record one trial. */
    void add(bool success);

    /** Number of trials. */
    std::size_t trials() const { return trials_; }

    /** Number of successful trials. */
    std::size_t successes() const { return successes_; }

    /** Fraction of successes in [0,1]; 0 when no trials. */
    double rate() const;

  private:
    std::size_t trials_ = 0;
    std::size_t successes_ = 0;
};

/**
 * Empirical cumulative distribution function over recorded samples.
 */
class EmpiricalCdf
{
  public:
    /** Build from a sample vector (copied and sorted). */
    explicit EmpiricalCdf(std::vector<double> samples);

    /** P(X <= x) over the recorded samples. */
    double at(double x) const;

    /** Inverse CDF: the q-quantile for q in [0,1]. @pre !empty() */
    double quantile(double q) const;

    /** Number of samples. */
    std::size_t size() const { return sorted_.size(); }

    /**
     * Evaluate the CDF at @p points evenly spaced values covering
     * [min, max]; returns (x, cdf) pairs, e.g. for plotting Figure 2.
     */
    std::vector<std::pair<double, double>> curve(std::size_t points) const;

  private:
    std::vector<double> sorted_;
};

/** Format a cycles-denominated duration with an adaptive unit. */
std::string formatDuration(double cycles);

} // namespace llcf

#endif // LLCF_COMMON_STATS_HH

#include "stats.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "log.hh"
#include "types.hh"

namespace llcf {

namespace {

/** Neumaier-compensated sum over a sample vector in storage order. */
double
compensatedTotal(const std::vector<double> &samples)
{
    CompensatedSum acc;
    for (double v : samples)
        acc.add(v);
    return acc.value();
}

/**
 * Population standard deviation over a sample vector, both passes
 * compensated.  Shared by SampleStats and the StreamingStats head
 * phase so the two accumulators agree to the last bit on small sets.
 */
double
vectorStddev(const std::vector<double> &samples)
{
    if (samples.size() < 2)
        return 0.0;
    const double m =
        compensatedTotal(samples) / static_cast<double>(samples.size());
    CompensatedSum acc;
    for (double v : samples)
        acc.add((v - m) * (v - m));
    return std::sqrt(acc.value() / static_cast<double>(samples.size()));
}

/** Linear-interpolation percentile over an already-sorted vector. */
double
sortedPercentile(const std::vector<double> &sorted, double pct)
{
    if (sorted.size() == 1)
        return sorted.front();
    double clamped = std::clamp(pct, 0.0, 100.0);
    double rank = clamped / 100.0 * static_cast<double>(sorted.size() - 1);
    std::size_t lo = static_cast<std::size_t>(rank);
    std::size_t hi = std::min(lo + 1, sorted.size() - 1);
    double frac = rank - static_cast<double>(lo);
    return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

} // namespace

void
CompensatedSum::add(double v)
{
    const double t = sum_ + v;
    if (std::abs(sum_) >= std::abs(v))
        comp_ += (sum_ - t) + v;
    else
        comp_ += (v - t) + sum_;
    sum_ = t;
}

void
SampleStats::add(double v)
{
    samples_.push_back(v);
    dirty_ = true;
}

double
SampleStats::sum() const
{
    return compensatedTotal(samples_);
}

double
SampleStats::mean() const
{
    if (samples_.empty())
        return 0.0;
    return sum() / static_cast<double>(samples_.size());
}

double
SampleStats::stddev() const
{
    return vectorStddev(samples_);
}

void
SampleStats::ensureSorted() const
{
    if (dirty_ || sorted_.size() != samples_.size()) {
        sorted_ = samples_;
        std::sort(sorted_.begin(), sorted_.end());
        dirty_ = false;
    }
}

double
SampleStats::min() const
{
    if (samples_.empty())
        panic("SampleStats::min() on an empty aggregate");
    ensureSorted();
    return sorted_.front();
}

double
SampleStats::max() const
{
    if (samples_.empty())
        panic("SampleStats::max() on an empty aggregate");
    ensureSorted();
    return sorted_.back();
}

double
SampleStats::median() const
{
    return percentile(50.0);
}

double
SampleStats::percentile(double pct) const
{
    if (samples_.empty())
        panic("SampleStats::percentile() on an empty aggregate");
    ensureSorted();
    return sortedPercentile(sorted_, pct);
}

void
StreamingStats::add(double v)
{
    if (count_ == 0) {
        min_ = v;
        max_ = v;
    } else {
        min_ = std::min(min_, v);
        max_ = std::max(max_, v);
    }
    ++count_;
    sum_.add(v);
    const double d = v - welfordMean_;
    welfordMean_ += d / static_cast<double>(count_);
    welfordM2_ += d * (v - welfordMean_);
    if (head_.size() < kHeadCapacity)
        head_.push_back(v);
    sketchPush(0, v);
}

double
StreamingStats::mean() const
{
    if (count_ == 0)
        return 0.0;
    return sum_.value() / static_cast<double>(count_);
}

double
StreamingStats::stddev() const
{
    if (count_ < 2)
        return 0.0;
    if (exact())
        return vectorStddev(head_);
    return std::sqrt(welfordM2_ / static_cast<double>(count_));
}

double
StreamingStats::min() const
{
    if (count_ == 0)
        panic("StreamingStats::min() on an empty aggregate");
    return min_;
}

double
StreamingStats::max() const
{
    if (count_ == 0)
        panic("StreamingStats::max() on an empty aggregate");
    return max_;
}

double
StreamingStats::median() const
{
    return percentile(50.0);
}

double
StreamingStats::percentile(double pct) const
{
    if (count_ == 0)
        panic("StreamingStats::percentile() on an empty aggregate");
    if (exact()) {
        std::vector<double> sorted = head_;
        std::sort(sorted.begin(), sorted.end());
        return sortedPercentile(sorted, pct);
    }
    return sketchQuantile(pct);
}

void
StreamingStats::sketchPush(std::size_t level, double v)
{
    if (levels_.size() <= level) {
        levels_.resize(level + 1);
        parity_.resize(level + 1, 0);
    }
    levels_[level].push_back(v);
    if (levels_[level].size() >= kSketchBuf)
        sketchCompact(level);
}

void
StreamingStats::sketchCompact(std::size_t level)
{
    // Sort the full buffer, keep every second item starting at the
    // level's parity offset, and promote the kept half one level up
    // (each promoted item now stands for twice as many samples).
    // Alternating the offset removes the systematic rank bias a fixed
    // offset would give, without any randomness — the sketch is a pure
    // function of the input sequence.
    std::sort(levels_[level].begin(), levels_[level].end());
    const std::size_t start = parity_[level];
    parity_[level] ^= 1;
    std::vector<double> promoted;
    promoted.reserve(levels_[level].size() / 2);
    for (std::size_t i = start; i < levels_[level].size(); i += 2)
        promoted.push_back(levels_[level][i]);
    levels_[level].clear();
    for (double v : promoted)
        sketchPush(level + 1, v);
}

double
StreamingStats::sketchQuantile(double pct) const
{
    // Weighted rank selection over all compactor buffers: an item at
    // level L stands for 2^L original samples, and the total weight
    // always equals count().
    std::vector<std::pair<double, double>> weighted;
    for (std::size_t level = 0; level < levels_.size(); ++level) {
        const double w = static_cast<double>(std::uint64_t{1} << level);
        for (double v : levels_[level])
            weighted.emplace_back(v, w);
    }
    std::sort(weighted.begin(), weighted.end());
    const double total = static_cast<double>(count_);
    const double clamped = std::clamp(pct, 0.0, 100.0);
    const double rank = clamped / 100.0 * (total - 1.0);
    double cum = 0.0;
    for (const auto &[v, w] : weighted) {
        cum += w;
        if (cum > rank)
            return v;
    }
    return weighted.back().first;
}

StreamingStatsState
StreamingStats::state() const
{
    StreamingStatsState s;
    s.count = count_;
    s.sum = sum_.raw();
    s.sumComp = sum_.compensation();
    s.mean = welfordMean_;
    s.m2 = welfordM2_;
    s.min = min_;
    s.max = max_;
    s.head = head_;
    s.levels = levels_;
    s.parity.assign(parity_.begin(), parity_.end());
    return s;
}

bool
StreamingStats::validState(const StreamingStatsState &state,
                           std::string *error)
{
    auto reject = [error](const char *why) {
        if (error)
            *error = why;
        return false;
    };
    if (state.head.size() != std::min<std::uint64_t>(state.count,
                                                     kHeadCapacity))
        return reject("head size is not min(count, head capacity)");
    if (state.parity.size() != state.levels.size())
        return reject("parity and levels differ in size");
    if (state.levels.size() > 64)
        return reject("more sketch levels than a 64-bit count needs");
    // Every compaction trades 2k items at level L for k at L+1, so the
    // level weights (items << L) always add up to the sample count.
    // The running check cannot overflow: items <= (count - weight) >> L
    // keeps weight <= count.
    std::uint64_t weight = 0;
    for (std::size_t level = 0; level < state.levels.size(); ++level) {
        const std::size_t items = state.levels[level].size();
        if (state.parity[level] > 1)
            return reject("sketch parity is not 0 or 1");
        if (items >= kSketchBuf)
            return reject("sketch level at or above compactor capacity");
        if (items > (state.count - weight) >> level)
            return reject("sketch weight exceeds the sample count");
        weight += static_cast<std::uint64_t>(items) << level;
    }
    if (weight != state.count)
        return reject("sketch weight differs from the sample count");
    return true;
}

StreamingStats
StreamingStats::fromState(const StreamingStatsState &state)
{
    std::string why;
    if (!validState(state, &why))
        panic("StreamingStats::fromState: %s", why.c_str());
    StreamingStats out;
    out.count_ = state.count;
    out.sum_ = CompensatedSum::fromState(state.sum, state.sumComp);
    out.welfordMean_ = state.mean;
    out.welfordM2_ = state.m2;
    out.min_ = state.min;
    out.max_ = state.max;
    out.head_ = state.head;
    out.levels_ = state.levels;
    out.parity_.assign(state.parity.begin(), state.parity.end());
    return out;
}

SuccessRate::SuccessRate(std::size_t trials, std::size_t successes)
    : trials_(trials), successes_(successes)
{
    if (successes > trials)
        panic("SuccessRate: more successes than trials");
}

void
SuccessRate::add(bool success)
{
    ++trials_;
    if (success)
        ++successes_;
}

double
SuccessRate::rate() const
{
    if (trials_ == 0)
        return 0.0;
    return static_cast<double>(successes_) / static_cast<double>(trials_);
}

EmpiricalCdf::EmpiricalCdf(std::vector<double> samples)
    : sorted_(std::move(samples))
{
    std::sort(sorted_.begin(), sorted_.end());
}

double
EmpiricalCdf::at(double x) const
{
    if (sorted_.empty())
        return 0.0;
    auto it = std::upper_bound(sorted_.begin(), sorted_.end(), x);
    return static_cast<double>(it - sorted_.begin()) /
           static_cast<double>(sorted_.size());
}

std::string
formatDuration(double cycles)
{
    char buf[64];
    const double us = cycles / (kCpuGhz * 1e3);
    // Human-readable stdout durations; never serialized (the JSON
    // stores raw cycle counts through jsonNumber()).
    if (us < 1e3)
        // detlint: allow(float-format) -- human-readable stdout only
        std::snprintf(buf, sizeof(buf), "%.1f us", us);
    else if (us < 1e6)
        // detlint: allow(float-format) -- human-readable stdout only
        std::snprintf(buf, sizeof(buf), "%.1f ms", us / 1e3);
    else
        // detlint: allow(float-format) -- human-readable stdout only
        std::snprintf(buf, sizeof(buf), "%.2f s", us / 1e6);
    return buf;
}

} // namespace llcf

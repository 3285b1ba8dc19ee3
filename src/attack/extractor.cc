#include "extractor.hh"

#include <algorithm>
#include <cmath>

#include "common/log.hh"

namespace llcf {

NonceExtractor::NonceExtractor()
    : forest_(ForestParams{60, TreeParams{10, 3, 0}, 1.0, 11})
{
}

std::vector<double>
NonceExtractor::accessFeatures(const std::vector<Cycles> &trace,
                               std::size_t index) const
{
    const double iter = static_cast<double>(kExtractIterationCycles);
    const double t = static_cast<double>(trace[index]);
    auto gap = [&](std::ptrdiff_t delta) {
        const std::ptrdiff_t j = static_cast<std::ptrdiff_t>(index) +
                                 delta;
        if (j < 0 || j >= static_cast<std::ptrdiff_t>(trace.size()))
            return 4.0; // out-of-range marker (in iteration units)
        return std::abs(static_cast<double>(trace[j]) - t) / iter;
    };
    // Local density: accesses within +-half an iteration.
    const double half = iter / 2.0;
    unsigned density = 0;
    for (std::size_t j = 0; j < trace.size(); ++j) {
        if (std::abs(static_cast<double>(trace[j]) - t) <= half)
            ++density;
    }
    return {gap(-2), gap(-1), gap(+1), gap(+2),
            static_cast<double>(density)};
}

Dataset
NonceExtractor::buildTrainingSet(
    const std::vector<std::vector<Cycles>> &traces,
    const std::vector<const Victim::Execution *> &truths) const
{
    Dataset data;
    for (std::size_t k = 0; k < traces.size(); ++k) {
        const auto &trace = traces[k];
        const auto &starts = truths[k]->iterationStarts;
        for (std::size_t i = 0; i < trace.size(); ++i) {
            // Access is a boundary iff it matches an iteration start.
            auto it = std::lower_bound(starts.begin(), starts.end(),
                                       trace[i]);
            Cycles best = ~0ULL;
            if (it != starts.end())
                best = std::min(best, *it - std::min(*it, trace[i]));
            if (it != starts.begin()) {
                const Cycles prev = *(it - 1);
                best = std::min(best, trace[i] - prev);
            }
            const int label = best <= kGroundTruthTolerance ? +1 : -1;
            data.add(accessFeatures(trace, i), label);
        }
    }
    return data;
}

void
NonceExtractor::train(const Dataset &data)
{
    forest_.fit(data);
    trained_ = true;
}

std::vector<Cycles>
NonceExtractor::predictBoundaries(const std::vector<Cycles> &trace) const
{
    std::vector<Cycles> boundaries;
    if (trained_) {
        for (std::size_t i = 0; i < trace.size(); ++i) {
            if (forest_.predict(accessFeatures(trace, i)) > 0)
                boundaries.push_back(trace[i]);
        }
        return boundaries;
    }
    // Untrained fallback: greedy segmentation — the next boundary is
    // the first access at least three quarters of an iteration after
    // the previous one, which skips midpoint accesses.
    const Cycles min_gap = kExtractIterationCycles * 3 / 4;
    for (Cycles t : trace) {
        if (boundaries.empty() || t >= boundaries.back() + min_gap)
            boundaries.push_back(t);
    }
    return boundaries;
}

std::vector<ExtractedBit>
NonceExtractor::extract(const std::vector<Cycles> &trace) const
{
    std::vector<ExtractedBit> out;
    if (trace.size() < 2)
        return out;
    std::vector<Cycles> sorted = trace;
    std::sort(sorted.begin(), sorted.end());
    const std::vector<Cycles> boundaries = predictBoundaries(sorted);

    for (std::size_t i = 0; i + 1 < boundaries.size(); ++i) {
        const Cycles b0 = boundaries[i];
        const Cycles b1 = boundaries[i + 1];
        const Cycles span = b1 - b0;
        // Keep only boundary pairs one iteration apart (paper: the
        // 8k-12k cycle duration window).
        if (span < kExtractMinIteration || span > kExtractMaxIteration)
            continue;
        // Is there an access near the midpoint of the iteration?
        const Cycles lo = b0 + span / 4;
        const Cycles hi = b0 + (3 * span) / 4;
        auto first = std::lower_bound(sorted.begin(), sorted.end(), lo);
        // The instrumented layout of Section 7.1: a midpoint access
        // means bit 0.
        const bool midpoint = first != sorted.end() && *first <= hi;
        out.push_back({b0, b1, midpoint ? 0 : 1});
    }
    return out;
}

ExtractionScore
NonceExtractor::score(const std::vector<ExtractedBit> &bits,
                      const Victim::Execution &truth) const
{
    ExtractionScore s;
    s.totalBits = truth.bits.size();
    const auto &starts = truth.iterationStarts;
    std::vector<bool> matched(truth.bits.size(), false);
    for (const auto &b : bits) {
        // Match the extracted iteration to the nearest ground-truth
        // iteration by its start time.
        auto it = std::lower_bound(starts.begin(), starts.end(),
                                   b.start);
        std::size_t best_idx = starts.size();
        Cycles best = kGroundTruthTolerance + 1;
        if (it != starts.end()) {
            const Cycles d = *it - std::min(*it, b.start);
            if (d < best) {
                best = d;
                best_idx = static_cast<std::size_t>(it -
                                                    starts.begin());
            }
        }
        if (it != starts.begin()) {
            const Cycles prev = *(it - 1);
            const Cycles d = b.start - prev;
            if (d < best) {
                best = d;
                best_idx = static_cast<std::size_t>(it - 1 -
                                                    starts.begin());
            }
        }
        if (best_idx >= truth.bits.size() || matched[best_idx])
            continue;
        matched[best_idx] = true;
        ++s.recoveredBits;
        if (truth.bits[best_idx] != b.bit)
            ++s.bitErrors;
    }
    return s;
}

} // namespace llcf

#include "extractor.hh"

#include <algorithm>

namespace llcf {

std::vector<Cycles>
NonceExtractor::predictBoundaries(const std::vector<Cycles> &trace) const
{
    // Greedy segmentation: the next boundary is the first access at
    // least three quarters of an iteration after the previous one,
    // which skips midpoint accesses.
    std::vector<Cycles> boundaries;
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

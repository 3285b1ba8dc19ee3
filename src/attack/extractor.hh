/**
 * @file
 * Nonce-bit extraction from a monitored access trace (paper Section
 * 7.3).  Greedy segmentation marks the iteration boundaries: the next
 * boundary is the first access at least three quarters of an
 * iteration after the previous one.  Boundary pairs 8k-12k cycles
 * apart delimit iterations; the bit of an iteration follows from
 * whether an extra access falls near its midpoint.  The paper trains
 * a random forest to mark the boundaries; this model uses the rule
 * alone (DESIGN.md §12).  The window and tolerances are the paper's
 * fixed values (the constants below); the bit convention is the
 * instrumented layout's (midpoint access => 0).
 */

#ifndef LLCF_ATTACK_EXTRACTOR_HH
#define LLCF_ATTACK_EXTRACTOR_HH

#include <vector>

#include "victim/victim.hh"

namespace llcf {

/** Expected iteration duration. */
constexpr Cycles kExtractIterationCycles = 9700;

/** Boundary-pair filter lower bound (paper: 8k). */
constexpr Cycles kExtractMinIteration = 8000;

/** Boundary-pair filter upper bound (paper: 12k). */
constexpr Cycles kExtractMaxIteration = 12000;

/** Matching tolerance when scoring against ground truth. */
constexpr Cycles kGroundTruthTolerance = 1500;

/** One extracted iteration. */
struct ExtractedBit
{
    Cycles start = 0; //!< predicted iteration start
    Cycles end = 0;   //!< predicted iteration end
    int bit = 0;      //!< extracted bit value
};

/** Extraction quality against ground truth. */
struct ExtractionScore
{
    std::size_t totalBits = 0;     //!< ground-truth ladder iterations
    std::size_t recoveredBits = 0; //!< iterations with an extracted bit
    std::size_t bitErrors = 0;     //!< recovered bits that are wrong

    double
    recoveredFraction() const
    {
        return totalBits ? static_cast<double>(recoveredBits) /
               static_cast<double>(totalBits) : 0.0;
    }

    double
    bitErrorRate() const
    {
        return recoveredBits ? static_cast<double>(bitErrors) /
               static_cast<double>(recoveredBits) : 0.0;
    }
};

/**
 * The boundary rule plus the bit-recovery rules.
 */
class NonceExtractor
{
  public:
    /** Extract bits from a detection-timestamp trace. */
    std::vector<ExtractedBit> extract(const std::vector<Cycles> &trace)
        const;

    /** Score extracted bits against a signing's ground truth. */
    ExtractionScore score(const std::vector<ExtractedBit> &bits,
                          const Victim::Execution &truth) const;

  private:
    /** Predicted boundary timestamps of a trace. */
    std::vector<Cycles> predictBoundaries(const std::vector<Cycles>
                                          &trace) const;
};

} // namespace llcf

#endif // LLCF_ATTACK_EXTRACTOR_HH

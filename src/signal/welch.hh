/**
 * @file
 * Power spectral density estimation with Welch's method [Welch 1967],
 * as the paper uses to identify the victim's target cache set in the
 * frequency domain (Section 6.2), plus the event-trace binning that
 * feeds it.
 */

#ifndef LLCF_SIGNAL_WELCH_HH
#define LLCF_SIGNAL_WELCH_HH

#include <vector>

#include "common/types.hh"

namespace llcf {

/** Window functions for periodogram segments. */
enum class WindowKind { Rect, Hann, Hamming };

/** Evaluate a window of @p n points. */
std::vector<double> makeWindow(WindowKind kind, std::size_t n);

/** Parameters for Welch PSD estimation. */
struct WelchParams
{
    std::size_t segmentLength = 256; //!< power of two
    double overlap = 0.5;            //!< fraction of segment overlap
    WindowKind window = WindowKind::Hann;
    bool detrend = true;             //!< remove per-segment mean
};

/** A one-sided PSD estimate. */
struct PsdEstimate
{
    std::vector<double> frequency; //!< Hz, given the sample rate
    std::vector<double> power;     //!< density at each frequency

    /**
     * Periodogram segments averaged into the estimate.  0 flags a
     * degenerate input (signal shorter than one segment, or a
     * non-positive sample rate): frequency/power are then empty and
     * consumers must treat the estimate as "no signal" rather than
     * derive scores from it.
     */
    std::size_t segments = 0;

    /** True iff at least one segment was averaged. */
    bool valid() const { return segments > 0; }

    /** Total power (for normalisation). */
    double totalPower() const;
};

/**
 * Welch PSD of a uniformly sampled signal.
 *
 * @param signal Samples.
 * @param sample_rate_hz Sampling rate.
 */
PsdEstimate welchPsd(const std::vector<double> &signal,
                     double sample_rate_hz,
                     const WelchParams &params = WelchParams{});

/**
 * Convert an event-timestamp trace (cycles) to a uniformly binned 0/1+
 * count signal for spectral analysis.
 *
 * @param timestamps Event times in cycles (need not be sorted).
 * @param duration Trace duration in cycles.
 * @param bin Cycles per bin.
 * @return one count per bin.
 */
std::vector<double> binEvents(const std::vector<Cycles> &timestamps,
                              Cycles duration, Cycles bin);

} // namespace llcf

#endif // LLCF_SIGNAL_WELCH_HH

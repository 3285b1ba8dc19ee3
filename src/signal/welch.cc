#include "welch.hh"

#include <algorithm>
#include <cmath>

#include "common/log.hh"
#include "signal/fft.hh"

namespace llcf {

std::vector<double>
makeWindow(WindowKind kind, std::size_t n)
{
    std::vector<double> w(n, 1.0);
    if (n <= 1)
        return w;
    switch (kind) {
      case WindowKind::Rect:
        break;
      case WindowKind::Hann:
        for (std::size_t i = 0; i < n; ++i) {
            w[i] = 0.5 * (1.0 - std::cos(2.0 * M_PI *
                   static_cast<double>(i) / static_cast<double>(n - 1)));
        }
        break;
      case WindowKind::Hamming:
        for (std::size_t i = 0; i < n; ++i) {
            w[i] = 0.54 - 0.46 * std::cos(2.0 * M_PI *
                   static_cast<double>(i) / static_cast<double>(n - 1));
        }
        break;
    }
    return w;
}

double
PsdEstimate::totalPower() const
{
    double sum = 0.0;
    for (double p : power)
        sum += p;
    return sum;
}

PsdEstimate
welchPsd(const std::vector<double> &signal, double sample_rate_hz,
         const WelchParams &params)
{
    PsdEstimate est;
    const std::size_t seg = params.segmentLength;
    if (!isPowerOf2(seg))
        fatal("Welch segment length must be a power of two");
    // A signal shorter than one segment yields zero segments to
    // average — return the flagged empty estimate (est.valid() is
    // false) instead of dividing by the segment count.
    if (signal.size() < seg || sample_rate_hz <= 0.0)
        return est;

    const std::size_t hop = std::max<std::size_t>(
        1, static_cast<std::size_t>(
               static_cast<double>(seg) * (1.0 - params.overlap)));
    const std::vector<double> window = makeWindow(params.window, seg);

    double window_power = 0.0;
    for (double w : window)
        window_power += w * w;

    const std::size_t bins = seg / 2 + 1;
    std::vector<double> accum(bins, 0.0);
    std::size_t segments = 0;
    std::vector<Complex> buf(seg);

    for (std::size_t start = 0; start + seg <= signal.size();
         start += hop) {
        double mean = 0.0;
        if (params.detrend) {
            for (std::size_t i = 0; i < seg; ++i)
                mean += signal[start + i];
            mean /= static_cast<double>(seg);
        }
        for (std::size_t i = 0; i < seg; ++i) {
            buf[i] = Complex((signal[start + i] - mean) * window[i],
                             0.0);
        }
        fft(buf);
        for (std::size_t k = 0; k < bins; ++k) {
            double mag2 = std::norm(buf[k]);
            // One-sided: double everything except DC and Nyquist.
            if (k != 0 && k != seg / 2)
                mag2 *= 2.0;
            accum[k] += mag2;
        }
        ++segments;
    }
    if (segments == 0)
        return est;

    est.segments = segments;
    const double scale = 1.0 / (sample_rate_hz * window_power *
                                static_cast<double>(segments));
    est.frequency.resize(bins);
    est.power.resize(bins);
    for (std::size_t k = 0; k < bins; ++k) {
        est.frequency[k] = sample_rate_hz * static_cast<double>(k) /
                           static_cast<double>(seg);
        est.power[k] = accum[k] * scale;
    }
    return est;
}

std::vector<double>
binEvents(const std::vector<Cycles> &timestamps, Cycles duration,
          Cycles bin)
{
    if (bin == 0)
        fatal("binEvents needs a non-zero bin width");
    const std::size_t n = static_cast<std::size_t>(
        (duration + bin - 1) / bin);
    std::vector<double> out(n, 0.0);
    for (Cycles t : timestamps) {
        const std::size_t idx = static_cast<std::size_t>(t / bin);
        if (idx < n)
            out[idx] += 1.0;
    }
    return out;
}

} // namespace llcf

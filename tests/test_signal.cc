/**
 * @file
 * Tests for the signal-processing substrate: FFT correctness
 * (impulse, sinusoid, Parseval, inverse round trip), window shapes,
 * Welch PSD peak localisation and event binning.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hh"
#include "signal/fft.hh"
#include "signal/welch.hh"

namespace llcf {
namespace {

/** Index of the strongest PSD bin at or above @p min_hz. */
std::size_t
argMaxFrom(const PsdEstimate &psd, double min_hz)
{
    std::size_t best = 0;
    for (std::size_t i = 0; i < psd.power.size(); ++i) {
        if (psd.frequency[i] >= min_hz &&
            (psd.frequency[best] < min_hz || psd.power[i] > psd.power[best]))
            best = i;
    }
    return best;
}

TEST(Fft, ImpulseGivesFlatSpectrum)
{
    std::vector<Complex> data(64, Complex(0.0, 0.0));
    data[0] = Complex(1.0, 0.0);
    fft(data);
    for (const auto &v : data)
        EXPECT_NEAR(std::abs(v), 1.0, 1e-9);
}

TEST(Fft, SinusoidPeaksAtItsBin)
{
    const std::size_t n = 256;
    const unsigned k = 17;
    std::vector<Complex> data(n);
    for (std::size_t i = 0; i < n; ++i) {
        data[i] = Complex(std::cos(2.0 * M_PI * k * i / n), 0.0);
    }
    fft(data);
    // Energy concentrated in bins k and n-k.
    for (std::size_t bin = 0; bin < n; ++bin) {
        const double mag = std::abs(data[bin]);
        if (bin == k || bin == n - k)
            EXPECT_NEAR(mag, n / 2.0, 1e-6);
        else
            EXPECT_LT(mag, 1e-6);
    }
}

TEST(Fft, InverseRoundTrip)
{
    Rng rng(121);
    std::vector<Complex> data(128);
    for (auto &v : data)
        v = Complex(rng.nextDouble() - 0.5, rng.nextDouble() - 0.5);
    auto orig = data;
    fft(data);
    fft(data, true);
    for (std::size_t i = 0; i < data.size(); ++i) {
        EXPECT_NEAR(data[i].real(), orig[i].real(), 1e-9);
        EXPECT_NEAR(data[i].imag(), orig[i].imag(), 1e-9);
    }
}

TEST(Fft, ParsevalEnergyConservation)
{
    Rng rng(123);
    std::vector<Complex> data(512);
    double time_energy = 0.0;
    for (auto &v : data) {
        v = Complex(rng.nextGaussian(), 0.0);
        time_energy += std::norm(v);
    }
    fft(data);
    double freq_energy = 0.0;
    for (const auto &v : data)
        freq_energy += std::norm(v);
    EXPECT_NEAR(freq_energy / data.size(), time_energy,
                time_energy * 1e-9);
}

TEST(Window, ShapesAndSymmetry)
{
    for (auto kind : {WindowKind::Hann, WindowKind::Hamming}) {
        auto w = makeWindow(kind, 65);
        ASSERT_EQ(w.size(), 65u);
        // Symmetric with a central maximum.
        for (std::size_t i = 0; i < w.size(); ++i)
            EXPECT_NEAR(w[i], w[w.size() - 1 - i], 1e-12);
        EXPECT_NEAR(w[32], kind == WindowKind::Hann ? 1.0 : 1.0, 1e-9);
    }
    auto rect = makeWindow(WindowKind::Rect, 16);
    for (double v : rect)
        EXPECT_DOUBLE_EQ(v, 1.0);
    auto hann = makeWindow(WindowKind::Hann, 64);
    EXPECT_NEAR(hann.front(), 0.0, 1e-12);
    EXPECT_NEAR(hann.back(), 0.0, 1e-12);
}

TEST(Welch, PeakAtSinusoidFrequency)
{
    const double fs = 10000.0;
    const double f0 = 1234.0;
    std::vector<double> signal(4096);
    for (std::size_t i = 0; i < signal.size(); ++i)
        signal[i] = std::sin(2.0 * M_PI * f0 * i / fs);
    WelchParams params;
    params.segmentLength = 512;
    auto psd = welchPsd(signal, fs, params);
    ASSERT_FALSE(psd.power.empty());
    const std::size_t peak = argMaxFrom(psd, 100.0);
    EXPECT_NEAR(psd.frequency[peak], f0, fs / 512.0 * 1.5);
}

TEST(Welch, WhiteNoiseSpectrumIsFlat)
{
    Rng rng(127);
    std::vector<double> signal(8192);
    for (auto &v : signal)
        v = rng.nextGaussian();
    WelchParams params;
    params.segmentLength = 256;
    auto psd = welchPsd(signal, 1000.0, params);
    // Compare band averages in lower vs upper half (skip DC).
    double lo = 0.0, hi = 0.0;
    const std::size_t half = psd.power.size() / 2;
    for (std::size_t i = 1; i < half; ++i)
        lo += psd.power[i];
    for (std::size_t i = half; i < psd.power.size(); ++i)
        hi += psd.power[i];
    EXPECT_NEAR(lo / hi, 1.0, 0.35);
}

TEST(Welch, ShortSignalReturnsEmpty)
{
    WelchParams params;
    params.segmentLength = 256;
    auto psd = welchPsd(std::vector<double>(100, 1.0), 1000.0, params);
    EXPECT_TRUE(psd.power.empty());
}

TEST(Welch, DegenerateInputsAreFlaggedNotNan)
{
    // Inputs with zero segments to average (shorter than one segment,
    // or an empty signal) must return a flagged estimate — not divide
    // by the zero segment count and propagate NaN downstream.
    WelchParams params;
    params.segmentLength = 256;
    for (std::size_t n : {std::size_t{0}, std::size_t{255}}) {
        auto psd = welchPsd(std::vector<double>(n, 1.0), 1000.0,
                            params);
        EXPECT_FALSE(psd.valid());
        EXPECT_EQ(psd.segments, 0u);
        EXPECT_TRUE(psd.power.empty());
        // Every derived quantity stays finite and well-defined.
        EXPECT_EQ(psd.totalPower(), 0.0);
    }
    // A non-positive sample rate is equally degenerate.
    auto psd = welchPsd(std::vector<double>(1024, 1.0), 0.0, params);
    EXPECT_FALSE(psd.valid());

    // One-segment inputs are the smallest valid estimate.
    auto ok = welchPsd(std::vector<double>(256, 1.0), 1000.0, params);
    EXPECT_TRUE(ok.valid());
    EXPECT_EQ(ok.segments, 1u);
    EXPECT_EQ(ok.power.size(), 129u);
}

TEST(Welch, PowerAtNearestBin)
{
    std::vector<double> signal(2048);
    for (std::size_t i = 0; i < signal.size(); ++i)
        signal[i] = std::sin(2.0 * M_PI * 100.0 * i / 1000.0);
    WelchParams params;
    params.segmentLength = 256;
    auto psd = welchPsd(signal, 1000.0, params);
    // Bins are evenly spaced from 0 Hz.
    const double df = psd.frequency[1];
    const auto at = [&](double hz) {
        return psd.power[static_cast<std::size_t>(std::lround(hz / df))];
    };
    EXPECT_GT(at(100.0), at(300.0) * 10.0);
}

TEST(BinEvents, CountsLandInRightBins)
{
    std::vector<Cycles> times{0, 10, 1023, 1024, 5000};
    auto binned = binEvents(times, 8192, 1024);
    ASSERT_EQ(binned.size(), 8u);
    EXPECT_DOUBLE_EQ(binned[0], 3.0);
    EXPECT_DOUBLE_EQ(binned[1], 1.0);
    EXPECT_DOUBLE_EQ(binned[4], 1.0);
    EXPECT_DOUBLE_EQ(binned[7], 0.0);
}

TEST(BinEvents, OutOfRangeEventsDropped)
{
    auto binned = binEvents({100000}, 1024, 256);
    for (double v : binned)
        EXPECT_DOUBLE_EQ(v, 0.0);
}

} // namespace
} // namespace llcf

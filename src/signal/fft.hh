/**
 * @file
 * Radix-2 fast Fourier transform for the spectral analysis pipeline.
 */

#ifndef LLCF_SIGNAL_FFT_HH
#define LLCF_SIGNAL_FFT_HH

#include <complex>
#include <vector>

namespace llcf {

/** Complex sample type used throughout the signal module. */
using Complex = std::complex<double>;

/**
 * In-place iterative radix-2 decimation-in-time FFT.
 * @pre data.size() is a power of two.
 * @param inverse Compute the inverse transform (with 1/N scaling).
 */
void fft(std::vector<Complex> &data, bool inverse = false);

} // namespace llcf

#endif // LLCF_SIGNAL_FFT_HH

#include "rng.hh"

#include <cmath>

namespace llcf {

std::uint64_t
streamSeed(std::uint64_t master, std::uint64_t stream)
{
    // Double mixing keeps adjacent stream indices from producing
    // correlated xoshiro seed blocks even for small masters.
    return mix64(mix64(master ^ 0x6c62272e07bb0142ULL) +
                 stream * 0x9e3779b97f4a7c15ULL);
}

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t sm = seed;
    for (auto &word : s_)
        word = splitmix64(sm);
}

double
Rng::nextExponential(double mean)
{
    double u;
    do {
        u = nextDouble();
    } while (u <= 0.0);
    return -mean * std::log(u);
}

double
Rng::nextGaussian()
{
    if (hasGaussSpare_) {
        hasGaussSpare_ = false;
        return gaussSpare_;
    }
    double u1, u2;
    do {
        u1 = nextDouble();
    } while (u1 <= 0.0);
    u2 = nextDouble();
    const double mag = std::sqrt(-2.0 * std::log(u1));
    gaussSpare_ = mag * std::sin(2.0 * M_PI * u2);
    hasGaussSpare_ = true;
    return mag * std::cos(2.0 * M_PI * u2);
}

double
Rng::nextGaussian(double mean, double stddev)
{
    return mean + stddev * nextGaussian();
}

std::uint64_t
Rng::nextPoisson(double lambda)
{
    if (lambda <= 0.0)
        return 0;
    if (lambda < 30.0) {
        // Knuth's product-of-uniforms method for small lambda.
        double prod = nextDouble();
        // Zero arrivals without exp(): exp(-l) - (1 - l) > l*l/3, which
        // from l = 2^-20 up is far above the rounding of either side,
        // so prod <= 1 - l implies the loop below would return 0 on this
        // same draw.
        if (lambda >= 0x1p-20 && prod <= 1.0 - lambda)
            return 0;
        const double limit = std::exp(-lambda);
        std::uint64_t k = 0;
        while (prod > limit) {
            ++k;
            prod *= nextDouble();
        }
        return k;
    }
    // Gaussian approximation for large lambda; adequate for noise
    // burst counts where lambda is a background access count.
    double v = nextGaussian(lambda, std::sqrt(lambda));
    if (v < 0.0)
        v = 0.0;
    return static_cast<std::uint64_t>(v + 0.5);
}

Rng
Rng::forStream(std::uint64_t master, std::uint64_t stream)
{
    return Rng(streamSeed(master, stream));
}

} // namespace llcf

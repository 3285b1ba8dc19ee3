/**
 * @file
 * Deterministic, fast pseudo-random number generation.
 *
 * Every stochastic component of the simulator (page-frame allocation,
 * tenant noise, replacement tie-breaking, ...) draws from an Rng seeded
 * explicitly, so whole experiments replay bit-identically from one seed.
 * The generator is xoshiro256**, seeded through SplitMix64 as its authors
 * recommend.
 */

#ifndef LLCF_COMMON_RNG_HH
#define LLCF_COMMON_RNG_HH

#include <cstdint>
#include <utility>

namespace llcf {

/** One step of the SplitMix64 stream; also usable as a mixing hash. */
inline std::uint64_t
splitmix64(std::uint64_t &state)
{
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/** Stateless SplitMix64 finaliser: hash a 64-bit value. */
inline std::uint64_t
mix64(std::uint64_t v)
{
    return splitmix64(v);
}

/**
 * Seed of the @p stream-th independent child stream of @p master.
 *
 * Derivation is purely positional (no shared mutable state), so any
 * worker can seed stream i without having generated streams 0..i-1 —
 * the property the parallel experiment harness relies on for
 * schedule-independent reproducibility.
 */
std::uint64_t streamSeed(std::uint64_t master, std::uint64_t stream);

/**
 * xoshiro256** pseudo-random generator with distribution helpers.
 *
 * Not thread-safe; give each simulated actor its own instance (seeded
 * positionally, e.g. via forStream()) so actors stay decoupled and
 * replayable.
 */
class Rng
{
  public:
    /** Construct from a 64-bit seed via SplitMix64 expansion. */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

    /** Generator over the @p stream-th child stream of @p master. */
    static Rng forStream(std::uint64_t master, std::uint64_t stream);

    /** Next raw 64-bit value. */
    std::uint64_t
    next()
    {
        const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
        const std::uint64_t t = s_[1] << 17;

        s_[2] ^= s_[0];
        s_[3] ^= s_[1];
        s_[1] ^= s_[2];
        s_[0] ^= s_[3];
        s_[2] ^= t;
        s_[3] = rotl(s_[3], 45);

        return result;
    }

    /** Uniform integer in [0, bound), bias-corrected. @pre bound > 0 */
    std::uint64_t
    nextBelow(std::uint64_t bound)
    {
        // Lemire-style rejection to remove modulo bias.
        std::uint64_t threshold = (-bound) % bound;
        for (;;) {
            std::uint64_t r = next();
            if (r >= threshold)
                return r % bound;
        }
    }

    /** Uniform integer in [lo, hi] inclusive. @pre lo <= hi */
    std::uint64_t
    nextRange(std::uint64_t lo, std::uint64_t hi)
    {
        return lo + nextBelow(hi - lo + 1);
    }

    /** Uniform double in [0, 1). */
    double
    nextDouble()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** True with probability @p p (clamped to [0,1]). */
    bool
    nextBool(double p)
    {
        if (p <= 0.0)
            return false;
        if (p >= 1.0)
            return true;
        return nextDouble() < p;
    }

    /** Exponentially distributed value with the given mean. */
    double nextExponential(double mean);

    /** Standard normal via Box-Muller (mean 0, stddev 1). */
    double nextGaussian();

    /** Normal with explicit mean and standard deviation. */
    double nextGaussian(double mean, double stddev);

    /** Poisson-distributed count with the given mean (lambda). */
    std::uint64_t nextPoisson(double lambda);

    /** True iff both generators will produce the same draws. */
    bool operator==(const Rng &) const = default;

    /** Fisher-Yates shuffle of a random-access container. */
    template <typename Container>
    void
    shuffle(Container &c)
    {
        for (std::size_t i = c.size(); i > 1; --i) {
            std::size_t j = static_cast<std::size_t>(nextBelow(i));
            using std::swap;
            swap(c[i - 1], c[j]);
        }
    }

  private:
    static std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::uint64_t s_[4];

    /** Cached second Box-Muller deviate. */
    double gaussSpare_ = 0.0;
    bool hasGaussSpare_ = false;
};

} // namespace llcf

#endif // LLCF_COMMON_RNG_HH

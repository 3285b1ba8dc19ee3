/**
 * @file
 * Unit tests for the common utilities: RNG determinism and
 * distribution sanity, summary statistics, CDFs, unit conversions,
 * and environment-variable options.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <iterator>
#include <set>
#include <vector>

#include "common/flat_set.hh"
#include "common/options.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace llcf {
namespace {

TEST(Types, CycleConversionsRoundTrip)
{
    EXPECT_DOUBLE_EQ(cyclesToUs(2000), 1.0);
    EXPECT_DOUBLE_EQ(cyclesToMs(2000000), 1.0);
    EXPECT_DOUBLE_EQ(cyclesToSec(2000000000ULL), 1.0);
    EXPECT_EQ(usToCycles(1.0), 2000u);
    EXPECT_EQ(msToCycles(1.0), 2000000u);
    EXPECT_EQ(secToCycles(1.0), 2000000000ULL);
}

TEST(Types, AddressHelpers)
{
    const Addr a = 0x123456789a;
    EXPECT_EQ(lineAlign(a) & 0x3f, 0u);
    EXPECT_LE(lineAlign(a), a);
    EXPECT_EQ(pageOffset(0x1234), 0x234u);
    EXPECT_EQ(pageLineIndex(0x1234), 0x234u / 64);
    EXPECT_TRUE(isPowerOf2(64));
    EXPECT_FALSE(isPowerOf2(0));
    EXPECT_FALSE(isPowerOf2(48));
    EXPECT_EQ(log2i(1), 0u);
    EXPECT_EQ(log2i(2048), 11u);
}

TEST(Rng, DeterministicFromSeed)
{
    Rng a(123), b(123), c(124);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
    bool differs = false;
    Rng a2(123);
    for (int i = 0; i < 100; ++i)
        differs |= a2.next() != c.next();
    EXPECT_TRUE(differs);
}

TEST(Rng, NextBelowInRangeAndCoversValues)
{
    Rng rng(7);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 1000; ++i) {
        std::uint64_t v = rng.nextBelow(10);
        ASSERT_LT(v, 10u);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 10u);
}

TEST(Rng, NextDoubleInUnitInterval)
{
    Rng rng(11);
    for (int i = 0; i < 1000; ++i) {
        double d = rng.nextDouble();
        ASSERT_GE(d, 0.0);
        ASSERT_LT(d, 1.0);
    }
}

TEST(Rng, BernoulliFrequencyMatchesProbability)
{
    Rng rng(13);
    int hits = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        hits += rng.nextBool(0.3) ? 1 : 0;
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, ExponentialMeanMatches)
{
    Rng rng(17);
    double sum = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        sum += rng.nextExponential(50.0);
    EXPECT_NEAR(sum / n, 50.0, 2.5);
}

TEST(Rng, GaussianMoments)
{
    Rng rng(19);
    double sum = 0.0, sq = 0.0;
    const int n = 50000;
    for (int i = 0; i < n; ++i) {
        double v = rng.nextGaussian();
        sum += v;
        sq += v * v;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.03);
    EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(Rng, PoissonMeanSmallAndLargeLambda)
{
    Rng rng(23);
    for (double lambda : {0.5, 5.0, 80.0}) {
        double sum = 0.0;
        const int n = 20000;
        for (int i = 0; i < n; ++i)
            sum += static_cast<double>(rng.nextPoisson(lambda));
        EXPECT_NEAR(sum / n, lambda, lambda * 0.06 + 0.05)
            << "lambda=" << lambda;
    }
}

/** Knuth's product-of-uniforms loop with no zero-arrival early-out. */
std::uint64_t
knuthPoisson(Rng &rng, double lambda)
{
    const double limit = std::exp(-lambda);
    std::uint64_t k = 0;
    double prod = rng.nextDouble();
    while (prod > limit) {
        ++k;
        prod *= rng.nextDouble();
    }
    return k;
}

TEST(Rng, PoissonZeroEarlyOutMatchesKnuthLoop)
{
    // nextPoisson skips exp() when the first uniform already proves
    // zero arrivals.  Over lambdas on both sides of its 2^-20 guard
    // and of lambda = 1, each value and the stream after each draw
    // must equal the unconditional loop's.
    std::vector<double> lambdas{0x1p-20, std::nextafter(0x1p-20, 0.0),
                                std::nextafter(0x1p-20, 1.0),
                                std::nextafter(1.0, 0.0), 1.0,
                                std::nextafter(1.0, 2.0), 29.9};
    for (double e = -30.0; e < 4.9; e += 0.25)
        lambdas.push_back(std::exp2(e) * 1.07);
    for (std::uint64_t seed : {1u, 2u, 7u, 42u, 1234567u}) {
        Rng rng(seed), ref(seed);
        for (double lambda : lambdas) {
            for (int i = 0; i < 400; ++i) {
                ASSERT_EQ(rng.nextPoisson(lambda), knuthPoisson(ref, lambda))
                    << "lambda=" << lambda << " seed=" << seed;
                ASSERT_TRUE(rng == ref)
                    << "lambda=" << lambda << " seed=" << seed;
            }
        }
    }
}

TEST(Rng, ShuffleIsPermutation)
{
    Rng rng(37);
    std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8, 9};
    auto sorted = v;
    rng.shuffle(v);
    auto v2 = v;
    std::sort(v2.begin(), v2.end());
    EXPECT_EQ(v2, sorted);
}

TEST(Stats, MeanStddevMedian)
{
    SampleStats s;
    for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.add(v);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
    EXPECT_DOUBLE_EQ(s.median(), 4.5);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(Stats, PercentileInterpolates)
{
    SampleStats s;
    for (int i = 1; i <= 100; ++i)
        s.add(static_cast<double>(i));
    EXPECT_NEAR(s.percentile(95.0), 95.05, 0.01);
    EXPECT_DOUBLE_EQ(s.percentile(0.0), 1.0);
    EXPECT_DOUBLE_EQ(s.percentile(100.0), 100.0);
}

TEST(Stats, EmptyStatsAreSafe)
{
    SampleStats s;
    EXPECT_TRUE(s.empty());
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
    EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(Stats, OrderStatisticsPanicOnEmpty)
{
    // Order statistics of an empty aggregate do not exist; reading
    // one is an invariant violation, not silent garbage.
    SampleStats s;
    EXPECT_DEATH((void)s.min(), "empty");
    EXPECT_DEATH((void)s.max(), "empty");
    EXPECT_DEATH((void)s.median(), "empty");
    EXPECT_DEATH((void)s.percentile(90.0), "empty");
}

TEST(Stats, SuccessRate)
{
    SuccessRate r;
    EXPECT_DOUBLE_EQ(r.rate(), 0.0);
    r.add(true);
    r.add(true);
    r.add(false);
    r.add(true);
    EXPECT_EQ(r.trials(), 4u);
    EXPECT_DOUBLE_EQ(r.rate(), 0.75);
}

TEST(Stats, EmpiricalCdfMonotone)
{
    EmpiricalCdf cdf({1.0, 2.0, 2.0, 3.0, 10.0});
    EXPECT_DOUBLE_EQ(cdf.at(0.5), 0.0);
    EXPECT_DOUBLE_EQ(cdf.at(2.0), 0.6);
    EXPECT_DOUBLE_EQ(cdf.at(100.0), 1.0);
    double prev = 0.0;
    for (double x = 0.0; x <= 11.0; x += 0.25) {
        double v = cdf.at(x);
        EXPECT_GE(v, prev);
        prev = v;
    }
}

TEST(Stats, FormatDurationUnits)
{
    EXPECT_EQ(formatDuration(2000.0), "1.0 us");
    EXPECT_EQ(formatDuration(2.0e6), "1.0 ms");
    EXPECT_EQ(formatDuration(4.0e9), "2.00 s");
}

TEST(FlatSet, IterationIsSortedRegardlessOfInsertOrder)
{
    // The property the unordered->flat sweep relies on: two sets
    // built from the same keys in different orders iterate (and so
    // serialize) identically.
    FlatSet<Addr> a, b;
    const Addr keys[] = {0x9000, 0x1000, 0x5000, 0x3000, 0x7000};
    for (Addr k : keys)
        a.insert(k);
    for (auto it = std::rbegin(keys); it != std::rend(keys); ++it)
        b.insert(*it);
    EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()));
    EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
}

TEST(FlatSet, InsertCountErase)
{
    FlatSet<Addr> s;
    EXPECT_TRUE(s.insert(5));
    EXPECT_FALSE(s.insert(5)); // duplicate
    EXPECT_TRUE(s.insert(2));
    EXPECT_EQ(s.count(5), 1u);
    EXPECT_EQ(s.count(3), 0u);
    EXPECT_EQ(s.size(), 2u);
    EXPECT_TRUE(s.erase(5));
    EXPECT_FALSE(s.erase(5));
    EXPECT_EQ(s.count(5), 0u);
}

TEST(FlatSet, RangeConstructorDeduplicates)
{
    const std::vector<Addr> keys = {3, 1, 3, 2, 1};
    FlatSet<Addr> s(keys.begin(), keys.end());
    EXPECT_EQ(s.size(), 3u);
    EXPECT_TRUE(std::is_sorted(s.begin(), s.end()));
}

TEST(FlatMap, EmplaceFindAndSortedIteration)
{
    FlatMap<Addr, std::size_t> m;
    EXPECT_TRUE(m.emplace(30, 3));
    EXPECT_TRUE(m.emplace(10, 1));
    EXPECT_FALSE(m.emplace(30, 99)); // first value wins
    const auto *hit = m.find(30);
    ASSERT_NE(hit, nullptr);
    EXPECT_EQ(hit->second, 3u);
    EXPECT_EQ(m.find(20), nullptr);
    EXPECT_EQ(m.count(10), 1u);
    EXPECT_EQ(m.begin()->first, 10u); // sorted by key
}

TEST(Options, EnvParsing)
{
    setenv("LLCF_TEST_U64", "123", 1);
    setenv("LLCF_TEST_BOOL", "false", 1);
    setenv("LLCF_TEST_STR", "hello", 1);
    EXPECT_EQ(envU64("LLCF_TEST_U64", 0), 123u);
    EXPECT_FALSE(envBool("LLCF_TEST_BOOL", true));
    EXPECT_EQ(envString("LLCF_TEST_STR", ""), "hello");
    EXPECT_EQ(envU64("LLCF_TEST_UNSET_XYZ", 77), 77u);
    // Base 0: hex and octal keep working.
    setenv("LLCF_TEST_U64", "0x1f", 1);
    EXPECT_EQ(envU64("LLCF_TEST_U64", 0), 31u);
    setenv("LLCF_TEST_U64", "010", 1);
    EXPECT_EQ(envU64("LLCF_TEST_U64", 0), 8u);
    setenv("LLCF_TEST_U64", "18446744073709551615", 1);
    EXPECT_EQ(envU64("LLCF_TEST_U64", 0), ~0ull);
    unsetenv("LLCF_TEST_U64");
}

TEST(Options, MalformedNumbersAreFatal)
{
    // A bare strtoull would wrap --threads=-1 to 2^64 - 1, read
    // --seed=abc as 0 and --trials=8x as 8; each must stop instead,
    // naming the variable.
    for (const char *bad : {"-1", "abc", "8x", " 8", "+8", "0x",
                            "18446744073709551616", "1.5"}) {
        EXPECT_DEATH(
            {
                setenv("LLCF_TEST_BAD", bad, 1);
                (void)envU64("LLCF_TEST_BAD", 0);
            },
            "LLCF_TEST_BAD: .* is not a whole unsigned number")
            << bad;
    }
    EXPECT_DEATH((void)parseU64("--stop-after-shards", ""),
                 "--stop-after-shards: .* is not a whole unsigned");
}

} // namespace
} // namespace llcf

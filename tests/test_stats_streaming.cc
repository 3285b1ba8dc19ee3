/**
 * @file
 * Tests for the exact/streaming statistics layer: Neumaier compensated
 * summation (including the pathological magnitude-spread sets the old
 * naive accumulation got wrong), StreamingStats' head-phase
 * bit-equivalence with SampleStats, its sketch-phase accuracy beyond
 * the head, and exact JSON state round-trips.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/rng.hh"
#include "common/stats.hh"
#include "harness/json.hh"

namespace llcf {
namespace {

// ---------------------------------------------- compensated summation

TEST(CompensatedSumTest, ExactOnCancellingMagnitudes)
{
    // The classic Neumaier case: naive left-to-right addition returns
    // 0.0 because 1e100 swallows both unit terms.
    CompensatedSum s;
    for (double v : {1.0, 1e100, 1.0, -1e100})
        s.add(v);
    EXPECT_DOUBLE_EQ(s.value(), 2.0);

    double naive = 0.0;
    for (double v : {1.0, 1e100, 1.0, -1e100})
        naive += v;
    EXPECT_DOUBLE_EQ(naive, 0.0); // documents why compensation exists
}

// ----------------------------- SampleStats regression (satellite fix)

TEST(SampleStatsPrecision, MeanSurvivesMagnitudeSpread)
{
    // Regression for the naive-summation bug: a fleet-sized metric
    // mixing huge and tiny samples must not lose the tiny ones.
    SampleStats s;
    for (double v : {1.0, 1e16, 3.0, -1e16})
        s.add(v);
    EXPECT_DOUBLE_EQ(s.sum(), 4.0);
    EXPECT_DOUBLE_EQ(s.mean(), 1.0);
}

TEST(SampleStatsPrecision, StddevIsCompensatedToo)
{
    // A large common offset must cancel exactly in the two-pass
    // stddev: these four samples have the same spread as {1,2,3,4}.
    SampleStats big, small;
    for (double v : {1.0, 2.0, 3.0, 4.0}) {
        small.add(v);
        big.add(v + 1e12);
    }
    EXPECT_NEAR(big.stddev(), small.stddev(), 1e-6);
}

// --------------------------------- StreamingStats: exact head phase

TEST(StreamingStatsTest, HeadPhaseMatchesSampleStatsBitForBit)
{
    // Below the head capacity the streaming accumulator must answer
    // every query with the *identical* doubles SampleStats produces —
    // that equivalence is what keeps committed BENCH bytes stable.
    Rng rng(7);
    SampleStats exact;
    StreamingStats streaming;
    for (int i = 0; i < 64; ++i) {
        const double v = rng.nextDouble() * 1e9 - 4e8;
        exact.add(v);
        streaming.add(v);
    }
    ASSERT_TRUE(streaming.exact());
    EXPECT_EQ(jsonNumber(exact.mean()), jsonNumber(streaming.mean()));
    EXPECT_EQ(jsonNumber(exact.stddev()),
              jsonNumber(streaming.stddev()));
    EXPECT_EQ(exact.min(), streaming.min());
    EXPECT_EQ(exact.max(), streaming.max());
    EXPECT_EQ(jsonNumber(exact.median()),
              jsonNumber(streaming.median()));
    for (double pct : {10.0, 50.0, 90.0, 99.0}) {
        EXPECT_EQ(jsonNumber(exact.percentile(pct)),
                  jsonNumber(streaming.percentile(pct)))
            << pct;
    }
}

TEST(StreamingStatsTest, SketchPhaseTracksExactStats)
{
    Rng rng(11);
    SampleStats exact;
    StreamingStats streaming;
    for (int i = 0; i < 20000; ++i) {
        const double v = rng.nextDouble() * 1000.0;
        exact.add(v);
        streaming.add(v);
    }
    EXPECT_FALSE(streaming.exact());
    EXPECT_EQ(streaming.count(), 20000u);
    // Sum and moments are exact/compensated even in sketch phase.
    EXPECT_DOUBLE_EQ(streaming.sum(), exact.sum());
    EXPECT_NEAR(streaming.mean(), exact.mean(), 1e-9);
    EXPECT_NEAR(streaming.stddev(), exact.stddev(), 1e-6);
    EXPECT_EQ(streaming.min(), exact.min());
    EXPECT_EQ(streaming.max(), exact.max());
    // Quantiles come from the compaction sketch: rank error is
    // bounded, not zero.  2% of the value range is ample slack.
    for (double pct : {10.0, 50.0, 90.0}) {
        EXPECT_NEAR(streaming.percentile(pct), exact.percentile(pct),
                    20.0)
            << pct;
    }
}

TEST(StreamingStatsTest, StateRoundTripsExactly)
{
    Rng rng(23);
    StreamingStats original;
    for (int i = 0; i < 5000; ++i)
        original.add(rng.nextDouble() * 1e6);

    StreamingStats restored =
        StreamingStats::fromState(original.state());
    EXPECT_EQ(restored.count(), original.count());
    EXPECT_EQ(jsonNumber(restored.sum()), jsonNumber(original.sum()));
    EXPECT_EQ(jsonNumber(restored.mean()),
              jsonNumber(original.mean()));
    EXPECT_EQ(jsonNumber(restored.stddev()),
              jsonNumber(original.stddev()));
    EXPECT_EQ(jsonNumber(restored.median()),
              jsonNumber(original.median()));

    // The restored accumulator must *continue* identically, not just
    // answer queries: resume-time folding depends on it.
    for (int i = 0; i < 100; ++i) {
        const double v = static_cast<double>(i) * 3.25;
        original.add(v);
        restored.add(v);
    }
    EXPECT_EQ(jsonNumber(restored.median()),
              jsonNumber(original.median()));
    EXPECT_EQ(jsonNumber(restored.stddev()),
              jsonNumber(original.stddev()));
}

// ------------------------------------------------------- SuccessRate

TEST(SuccessRateTest, CountsConstructor)
{
    SuccessRate a(10, 4);
    EXPECT_EQ(a.trials(), 10u);
    EXPECT_EQ(a.successes(), 4u);
    EXPECT_DOUBLE_EQ(a.rate(), 0.4);
    EXPECT_DEATH(SuccessRate(3, 4), "successes");
}

} // namespace
} // namespace llcf

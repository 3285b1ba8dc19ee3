/**
 * @file
 * Tests for the parallel experiment harness: JSON writer shape,
 * thread-pool behaviour, RNG stream derivation, and — the load-bearing
 * property — bit-identical aggregates regardless of worker count.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hh"
#include "harness/experiment.hh"
#include "harness/json.hh"
#include "harness/thread_pool.hh"

namespace llcf {
namespace {

// ------------------------------------------------------------------ JSON

TEST(Json, EscapesAndNumbers)
{
    EXPECT_EQ(jsonEscape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    EXPECT_EQ(jsonEscape(std::string(1, '\x01')), "\\u0001");
    EXPECT_EQ(jsonNumber(0.5), "0.5");
    EXPECT_EQ(jsonNumber(100.0), "100");
    EXPECT_EQ(jsonNumber(1.0 / 0.0), "null");
    // Round-trips exactly even for awkward values.
    const double v = 0.1 + 0.2;
    double back = 0.0;
    std::sscanf(jsonNumber(v).c_str(), "%lf", &back);
    EXPECT_EQ(back, v);
}

TEST(Json, DocumentStructure)
{
    JsonWriter w;
    w.beginObject();
    w.member("name", "x");
    w.member("n", std::uint64_t{3});
    w.key("arr").beginArray().value(1.0).value(2.0).endArray();
    w.key("flags").beginObject().member("ok", true).endObject();
    w.endObject();
    EXPECT_EQ(w.str(),
              "{\n"
              "  \"name\": \"x\",\n"
              "  \"n\": 3,\n"
              "  \"arr\": [\n"
              "    1,\n"
              "    2\n"
              "  ],\n"
              "  \"flags\": {\n"
              "    \"ok\": true\n"
              "  }\n"
              "}");
}

TEST(Json, EmptyContainers)
{
    JsonWriter w;
    w.beginObject();
    w.key("a").beginArray().endArray();
    w.key("o").beginObject().endObject();
    w.endObject();
    EXPECT_EQ(w.str(), "{\n  \"a\": [],\n  \"o\": {}\n}");
}

TEST(Json, ExplicitNullValues)
{
    JsonWriter w;
    w.beginObject();
    w.key("missing").null();
    w.key("arr").beginArray().null().value(1.0).endArray();
    w.endObject();
    EXPECT_EQ(w.str(),
              "{\n"
              "  \"missing\": null,\n"
              "  \"arr\": [\n"
              "    null,\n"
              "    1\n"
              "  ]\n"
              "}");
}

TEST(Json, EmptyStatsSerialiseAsNulls)
{
    // An all-miss experiment leaves aggregates like the bit-error
    // rate empty.  The serialised object must say so explicitly
    // (count 0, null moments) — never NaN text or fabricated zeros.
    StreamingStats empty;
    JsonWriter w;
    writeStatsObject(w, empty);
    EXPECT_EQ(w.str(),
              "{\n"
              "  \"count\": 0,\n"
              "  \"mean\": null,\n"
              "  \"stddev\": null\n"
              "}");

    JsonValue parsed;
    ASSERT_TRUE(parseJson(w.str(), parsed));
    ASSERT_NE(parsed.find("mean"), nullptr);
    EXPECT_TRUE(parsed.find("mean")->isNull());
    EXPECT_EQ(parsed.find("min"), nullptr); // order stats omitted
}

TEST(Json, PopulatedStatsKeepTheHistoricalShape)
{
    StreamingStats s;
    s.add(0.0);
    s.add(4.0);
    JsonWriter w;
    writeStatsObject(w, s);
    EXPECT_EQ(w.str(),
              "{\n"
              "  \"count\": 2,\n"
              "  \"mean\": 2,\n"
              "  \"stddev\": 2,\n"
              "  \"min\": 0,\n"
              "  \"p10\": 0.4,\n"
              "  \"median\": 2,\n"
              "  \"p90\": 3.6,\n"
              "  \"max\": 4\n"
              "}");
}

// ----------------------------------------------------------- thread pool

TEST(ThreadPool, RunsEveryIndexExactlyOnce)
{
    ThreadPool pool(4);
    std::vector<std::atomic<int>> hits(1000);
    pool.parallelFor(1000, [&](std::size_t i) { ++hits[i]; });
    for (const auto &h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ActuallyUsesMultipleThreads)
{
    ThreadPool pool(4);
    // Asserts the pool really runs concurrently; the ids never
    // leave this test's stack.
    // detlint: allow(thread-id) -- concurrency assertion only
    std::set<std::thread::id> ids;
    std::mutex m;
    pool.parallelFor(64, [&](std::size_t) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        std::lock_guard<std::mutex> lock(m);
        // detlint: allow(thread-id) -- concurrency assertion only
        ids.insert(std::this_thread::get_id());
    });
    EXPECT_GT(ids.size(), 1u);
}

TEST(ThreadPool, PropagatesTrialExceptions)
{
    ThreadPool pool(2);
    EXPECT_THROW(pool.parallelFor(8,
                                  [](std::size_t i) {
                                      if (i == 5)
                                          throw std::runtime_error("boom");
                                  }),
                 std::runtime_error);
}

TEST(ThreadPool, ResolveThreadCountHonoursEnv)
{
    EXPECT_EQ(resolveThreadCount(3), 3u);
    setenv("LLCF_THREADS", "7", 1);
    EXPECT_EQ(resolveThreadCount(0), 7u);
    EXPECT_EQ(resolveThreadCount(2), 2u); // explicit beats env
    unsetenv("LLCF_THREADS");
    EXPECT_GE(resolveThreadCount(0), 1u);
}

TEST(ThreadPool, ResolveThreadCountRejectsHugeOrMalformedEnv)
{
    // Only resolveThreadCount runs here: no pool is ever built, so a
    // broken check cannot start thousands of threads.
    EXPECT_DEATH(
        {
            setenv("LLCF_THREADS", "1025", 1);
            (void)resolveThreadCount(0);
        },
        "LLCF_THREADS: 1025 workers exceeds the ceiling of 1024");
    EXPECT_DEATH(
        {
            setenv("LLCF_THREADS", "-1", 1);
            (void)resolveThreadCount(0);
        },
        "LLCF_THREADS: '-1' is not a whole unsigned number");
    setenv("LLCF_THREADS", "1024", 1);
    EXPECT_EQ(resolveThreadCount(0), 1024u);
    unsetenv("LLCF_THREADS");
}

// ------------------------------------------------------------ RNG streams

TEST(RngStreams, PositionalDerivationIsStateless)
{
    // Stream i's seed must not depend on which seeds were queried
    // before it — the harness derives them concurrently.
    const std::uint64_t a = streamSeed(42, 17);
    streamSeed(42, 3);
    streamSeed(7, 17);
    EXPECT_EQ(streamSeed(42, 17), a);
    EXPECT_EQ(Rng::forStream(42, 17).next(), Rng(a).next());
}

TEST(RngStreams, StreamsAreDistinctAcrossMastersAndIndices)
{
    std::set<std::uint64_t> seeds;
    for (std::uint64_t master : {0ull, 1ull, 42ull, ~0ull}) {
        for (std::uint64_t i = 0; i < 256; ++i)
            seeds.insert(streamSeed(master, i));
    }
    EXPECT_EQ(seeds.size(), 4u * 256u);
}

TEST(RngStreams, StreamOutputsDoNotOverlap)
{
    // Adjacent streams of the same master must produce disjoint
    // prefixes (the whole point of splitting: no shared subsequence).
    std::set<std::uint64_t> seen;
    constexpr int kStreams = 32;
    constexpr int kDraws = 256;
    for (int s = 0; s < kStreams; ++s) {
        Rng rng = Rng::forStream(99, static_cast<std::uint64_t>(s));
        for (int d = 0; d < kDraws; ++d)
            seen.insert(rng.next());
    }
    EXPECT_EQ(seen.size(),
              static_cast<std::size_t>(kStreams) * kDraws);
}

TEST(RngStreams, StreamsAreIndividuallyUniformish)
{
    // Cheap sanity: each stream's doubles average near 0.5.
    for (std::uint64_t s = 0; s < 8; ++s) {
        Rng rng = Rng::forStream(1234, s);
        double sum = 0.0;
        for (int i = 0; i < 4000; ++i)
            sum += rng.nextDouble();
        EXPECT_NEAR(sum / 4000.0, 0.5, 0.05);
    }
}

// ------------------------------------------------------------ experiments

/** A stochastic trial body exercising metrics and outcomes. */
void
noisyTrial(TrialContext &ctx, TrialRecorder &rec)
{
    // Draw a variable number of samples so per-trial sample counts
    // differ — a stricter merge-order test than one sample per trial.
    const std::uint64_t n = 1 + ctx.rng.nextBelow(5);
    for (std::uint64_t i = 0; i < n; ++i)
        rec.metric("value", ctx.rng.nextGaussian(10.0, 2.0));
    rec.metric("trial_index", static_cast<double>(ctx.index));
    rec.outcome("success", ctx.rng.nextBool(0.7));
}

ExperimentResult
runNoisy(unsigned threads, std::size_t trials = 64,
         std::uint64_t seed = 7)
{
    ExperimentConfig cfg;
    cfg.name = "noisy";
    cfg.trials = trials;
    cfg.threads = threads;
    cfg.masterSeed = seed;
    return ExperimentRunner(cfg).run(noisyTrial);
}

TEST(Experiment, AggregatesAcrossTrials)
{
    ExperimentResult r = runNoisy(2, 32);
    ASSERT_NE(r.metric("value"), nullptr);
    ASSERT_NE(r.metric("trial_index"), nullptr);
    ASSERT_NE(r.outcome("success"), nullptr);
    EXPECT_EQ(r.metric("trial_index")->count(), 32u);
    EXPECT_EQ(r.outcome("success")->trials(), 32u);
    EXPECT_GE(r.metric("value")->count(), 32u);
    EXPECT_NEAR(r.metric("value")->mean(), 10.0, 1.0);
    EXPECT_EQ(r.metric("nope"), nullptr);
    EXPECT_EQ(r.outcome("nope"), nullptr);
}

void
threeSampleTrial(TrialContext &ctx, TrialRecorder &rec)
{
    for (int i = 0; i < 3; ++i)
        rec.metric("value", ctx.rng.nextGaussian(10.0, 2.0));
    rec.outcome("success", ctx.rng.nextBool(0.7));
}

TEST(Experiment, DeterministicAcrossThreadCounts)
{
    ExperimentResult serial = runNoisy(1);
    for (unsigned threads : {2u, 8u}) {
        ExperimentResult parallel = runNoisy(threads);
        ASSERT_EQ(parallel.threadsUsed, threads);

        // Aggregates identical, in first-recorded order.
        ASSERT_EQ(parallel.metrics().size(), serial.metrics().size());
        for (std::size_t m = 0; m < serial.metrics().size(); ++m) {
            EXPECT_EQ(parallel.metrics()[m].first,
                      serial.metrics()[m].first);
            EXPECT_EQ(parallel.metrics()[m].second.count(),
                      serial.metrics()[m].second.count());
            EXPECT_EQ(parallel.metrics()[m].second.sum(),
                      serial.metrics()[m].second.sum());
        }
        EXPECT_EQ(parallel.outcome("success")->successes(),
                  serial.outcome("success")->successes());

        // And the serialised form is byte-identical.
        JsonWriter a, b;
        serial.writeJson(a);
        parallel.writeJson(b);
        EXPECT_EQ(a.str(), b.str());
    }

    // Past the exact head: 100 trials x 3 samples puts one series in
    // the sketch phase and spans two shards.  The JSON must not depend
    // on the thread count, and must equal folding the same recorders
    // into the aggregate by hand in trial order.
    ExperimentConfig cfg;
    cfg.name = "past-head";
    cfg.trials = 100;
    cfg.masterSeed = 11;
    TrialAggregate folded;
    for (std::size_t i = 0; i < cfg.trials; ++i) {
        TrialContext ctx{i, streamSeed(cfg.masterSeed, i),
                         Rng::forStream(cfg.masterSeed, i)};
        TrialRecorder rec;
        threeSampleTrial(ctx, rec);
        folded.fold(rec);
    }
    JsonWriter want;
    want.beginObject();
    folded.writeJsonMembers(want, cfg.name, cfg.masterSeed);
    want.endObject();
    for (unsigned threads : {1u, 2u, 8u}) {
        cfg.threads = threads;
        const ExperimentResult r = ExperimentRunner(cfg).run(threeSampleTrial);
        ASSERT_NE(r.metric("value"), nullptr);
        EXPECT_EQ(r.metric("value")->count(), 300u);
        EXPECT_FALSE(r.metric("value")->exact());
        JsonWriter got;
        r.writeJson(got);
        EXPECT_EQ(got.str(), want.str()) << threads << " threads";
    }
}

TEST(Experiment, SeedChangesResults)
{
    ExperimentResult a = runNoisy(4, 64, 7);
    ExperimentResult b = runNoisy(4, 64, 8);
    EXPECT_NE(a.metric("value")->sum(), b.metric("value")->sum());
}

TEST(Experiment, SuiteJsonIsDeterministic)
{
    auto build = [](unsigned threads) {
        ExperimentSuite suite("unit");
        suite.add(runNoisy(threads, 16, 3));
        suite.add(runNoisy(threads, 8, 4));
        return suite.toJson();
    };
    const std::string doc = build(1);
    EXPECT_EQ(build(8), doc);
    EXPECT_NE(doc.find("\"benchmarks\": ["), std::string::npos);
    EXPECT_NE(doc.find("\"bench\": \"unit\""), std::string::npos);
}

TEST(Experiment, SuiteWriteFileRoundTrips)
{
    ExperimentSuite suite("unit");
    suite.add(runNoisy(2, 4, 11));
    const std::string path = "test_harness_out.json";
    ASSERT_EQ(suite.writeFile(path), path);
    std::FILE *f = std::fopen(path.c_str(), "r");
    ASSERT_NE(f, nullptr);
    std::string content;
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        content.append(buf, n);
    std::fclose(f);
    std::remove(path.c_str());
    EXPECT_EQ(content, suite.toJson() + "\n");
}

} // namespace
} // namespace llcf

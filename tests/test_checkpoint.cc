/**
 * @file
 * Tests for campaign checkpoint/resume and the fork-from-snapshot
 * execution path: exact aggregate state round-trips, atomic
 * checkpoint files, identity validation on resume, byte-identical
 * JSON from an interrupted-then-resumed campaign at mixed thread
 * counts, and the all-victims-failed fleet whose accuracy metrics are
 * legitimately absent.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "campaign/campaign.hh"
#include "campaign/checkpoint.hh"
#include "common/rng.hh"
#include "scenario/registry.hh"

namespace llcf {
namespace {

const ScenarioSpec &
forkSpec()
{
    const ScenarioSpec *spec =
        builtinScenarios().find("campaign-fork-tiny-silent-96");
    EXPECT_NE(spec, nullptr);
    return *spec;
}

std::string
tmpPath(const char *name)
{
    return testing::TempDir() + name;
}

std::string
benchEntryJson(const TrialAggregate &agg)
{
    JsonWriter w;
    w.beginObject();
    agg.writeJsonMembers(w, "x", 42);
    w.endObject();
    return w.str();
}

// ------------------------------------------ aggregate state round-trip

TEST(CampaignAggregateState, RoundTripsThroughJsonExactly)
{
    TrialAggregate original;
    for (std::size_t v = 0; v < 100; ++v) {
        TrialRecorder rec;
        rec.outcome("key_recovered", v % 3 != 0);
        rec.metric("total_cycles", 1e9 + static_cast<double>(v) * 0.1);
        rec.metric("bit_error_rate",
                   static_cast<double>(v % 7) / 100.0);
        original.fold(rec);
    }

    JsonWriter w;
    original.writeState(w);
    JsonValue doc;
    ASSERT_TRUE(parseJson(w.str(), doc));
    TrialAggregate restored;
    std::string error;
    ASSERT_TRUE(TrialAggregate::fromState(doc, restored, &error))
        << error;

    // The round trip must preserve the *emitted* bytes, not merely
    // approximate values: resumed runs serialise from restored state.
    EXPECT_EQ(benchEntryJson(original), benchEntryJson(restored));

    // ... and continue identically when more trials fold in.
    TrialRecorder more;
    more.outcome("key_recovered", true);
    more.metric("total_cycles", 2e9);
    TrialAggregate contOriginal = original;
    contOriginal.fold(more);
    restored.fold(more);
    EXPECT_EQ(benchEntryJson(contOriginal), benchEntryJson(restored));
}

// ------------------------------------------------- checkpoint files

TEST(CampaignCheckpointFile, WritesAndLoadsFullSeedRange)
{
    CampaignCheckpoint cp;
    cp.campaign = "campaign-fork-tiny-silent-96";
    // A seed above 2^53: doubles cannot carry it, the string
    // serialisation must.
    cp.masterSeed = 0xDEADBEEFCAFEF00Dull;
    cp.fleet = 100000;
    cp.shardTrials = kShardTrials;
    // One shard done: the aggregate holds exactly the trials before
    // next_trial, as the loader demands.
    cp.nextTrial = kShardTrials;
    for (std::size_t v = 0; v < kShardTrials; ++v) {
        TrialRecorder rec;
        rec.outcome("key_recovered", true);
        rec.metric("total_cycles", 12345.5);
        cp.aggregate.fold(rec);
    }

    const std::string path = tmpPath("cp_roundtrip.json");
    std::string error;
    ASSERT_TRUE(writeCampaignCheckpoint(path, cp, &error)) << error;

    CampaignCheckpoint loaded;
    ASSERT_TRUE(loadCampaignCheckpoint(path, loaded, &error)) << error;
    EXPECT_EQ(loaded.campaign, cp.campaign);
    EXPECT_EQ(loaded.masterSeed, cp.masterSeed);
    EXPECT_EQ(loaded.fleet, cp.fleet);
    EXPECT_EQ(loaded.shardTrials, cp.shardTrials);
    EXPECT_EQ(loaded.nextTrial, cp.nextTrial);
    EXPECT_EQ(loaded.aggregate.trials(), kShardTrials);
    std::remove(path.c_str());
}

/**
 * A valid checkpoint document: 64 of 66 trials done, one metric "m"
 * past its exact head (65 samples, so two sketch levels) and one
 * outcome "ok" (64 trials).
 */
std::string
sketchCheckpointJson()
{
    CampaignCheckpoint cp;
    cp.campaign = "c";
    cp.fleet = 66;
    cp.masterSeed = 7;
    cp.shardTrials = kShardTrials;
    cp.nextTrial = kShardTrials;
    for (std::size_t v = 0; v < kShardTrials; ++v) {
        TrialRecorder rec;
        rec.metric("m", static_cast<double>(v));
        if (v == 0)
            rec.metric("m", 0.5);
        rec.outcome("ok", v % 3 != 0);
        cp.aggregate.fold(rec);
    }
    return campaignCheckpointJson(cp);
}

/** @p doc with the value of the @p nth member named @p key (scalar
 *  or array) replaced by @p text. */
std::string
withMember(std::string doc, const std::string &key,
           const std::string &text, int nth = 0)
{
    const std::string tag = "\"" + key + "\": ";
    std::size_t at = doc.find(tag);
    for (int i = 0; i < nth && at != std::string::npos; ++i)
        at = doc.find(tag, at + 1);
    EXPECT_NE(at, std::string::npos) << key << " #" << nth;
    if (at == std::string::npos)
        return doc;
    const std::size_t begin = at + tag.size();
    std::size_t end = begin;
    if (doc[begin] == '[') {
        int depth = 0;
        do {
            depth += doc[end] == '[' ? 1 : doc[end] == ']' ? -1 : 0;
            ++end;
        } while (depth > 0);
    } else {
        end = doc.find_first_of(",\n}", begin);
    }
    return doc.replace(begin, end - begin, text);
}

/** "[first, fill, fill, ...]" with @p n items. */
std::string
arrayOf(std::size_t n, const std::string &first, const std::string &fill)
{
    std::string out = "[" + first;
    for (std::size_t i = 1; i < n; ++i)
        out += ", " + fill;
    return out + "]";
}

bool
loadsFrom(const std::string &doc, std::string *error)
{
    const std::string path = tmpPath("cp_case.json");
    std::FILE *f = std::fopen(path.c_str(), "w");
    EXPECT_NE(f, nullptr);
    if (!f)
        return false;
    std::fputs(doc.c_str(), f);
    std::fclose(f);
    CampaignCheckpoint out;
    const bool ok = loadCampaignCheckpoint(path, out, error);
    std::remove(path.c_str());
    return ok;
}

TEST(CampaignCheckpointFile, LoadRejectsMalformedDocument)
{
    const std::string good = sketchCheckpointJson();
    std::string error;
    ASSERT_TRUE(loadsFrom(good, &error)) << error;
    // A finished run's checkpoint may end off a shard boundary.
    const std::string done = withMember(
        withMember(withMember(good, "next_trial", "66"), "trials", "66"),
        "trials", "66", 1);
    ASSERT_TRUE(loadsFrom(done, &error)) << error;

    // Each case crashed, aborted or was accepted before the loader
    // validated its input.
    const std::pair<const char *, std::string> cases[] = {
        {"missing fields", "{\"campaign\": \"x\"}"},
        {"parity shorter than levels", withMember(good, "parity", "[1]")},
        {"parity value 2", withMember(good, "parity", "[2, 0]")},
        {"non-number parity", withMember(good, "parity", "[\"x\", 0]")},
        {"negative trials", withMember(good, "trials", "-1")},
        {"fractional trials", withMember(good, "trials", "1.5")},
        {"huge trials", withMember(good, "trials", "1e300")},
        {"negative count", withMember(good, "count", "-1")},
        {"head size != min(count, 64)", withMember(good, "head", "[1]")},
        {"non-number head item",
         withMember(good, "head", arrayOf(64, "\"x\"", "1"))},
        {"non-finite sum", withMember(good, "sum", "1e999")},
        {"level at compactor capacity",
         withMember(withMember(good, "levels", "[" + arrayOf(65, "1", "1") +
                                                   "]"),
                    "parity", "[0]")},
        {"non-array level", withMember(good, "levels", "[1, 2]")},
        {"sketch weight != count", withMember(good, "count", "64")},
        {"successes > trials", withMember(good, "successes", "100")},
        {"negative outcome trials", withMember(good, "trials", "-1", 1)},
        {"non-string metric name", withMember(good, "name", "1")},
        {"non-string campaign", withMember(good, "campaign", "1")},
        {"non-string master_seed", withMember(good, "master_seed", "7")},
        {"non-decimal master_seed",
         withMember(good, "master_seed", "\"7x\"")},
        {"empty master_seed", withMember(good, "master_seed", "\"\"")},
        {"negative fleet", withMember(good, "fleet", "-1")},
        {"zero shard width", withMember(good, "shard_trials", "0")},
        {"next_trial != aggregate trials",
         withMember(good, "next_trial", "63")},
        {"next_trial past the fleet", withMember(good, "fleet", "60")},
        {"next_trial off a shard boundary",
         withMember(withMember(good, "next_trial", "65"), "trials", "65")},
    };
    for (const auto &[label, doc] : cases) {
        error.clear();
        EXPECT_FALSE(loadsFrom(doc, &error)) << label;
        EXPECT_FALSE(error.empty()) << label;
    }
}

/** @p v as JSON text with every object's members shuffled. */
std::string
shuffledJson(const JsonValue &v, Rng &rng)
{
    std::string out;
    switch (v.kind()) {
      case JsonValue::Kind::Object: {
        std::vector<std::size_t> order(v.members().size());
        for (std::size_t i = 0; i < order.size(); ++i)
            order[i] = i;
        for (std::size_t i = order.size(); i > 1; --i)
            std::swap(order[i - 1], order[rng.nextBelow(i)]);
        for (std::size_t i : order) {
            const auto &[key, member] = v.members()[i];
            out += (out.empty() ? "" : ",") + ("\"" + jsonEscape(key)) +
                   "\":" + shuffledJson(member, rng);
        }
        return "{" + out + "}";
      }
      case JsonValue::Kind::Array:
        for (const JsonValue &item : v.items())
            out += (out.empty() ? "" : ",") + shuffledJson(item, rng);
        return "[" + out + "]";
      case JsonValue::Kind::Number:
        return jsonNumber(v.asNumber());
      case JsonValue::Kind::String:
        return "\"" + jsonEscape(v.asString()) + "\"";
      case JsonValue::Kind::Bool:
        return v.asBool() ? "true" : "false";
      case JsonValue::Kind::Null:
        break;
    }
    return "null";
}

TEST(CampaignCheckpointFile, MutatedCheckpointsAreRejectedOrSafe)
{
    // A real checkpoint: 66 forked victims over two shards, so every
    // per-victim metric is past its exact head.
    const std::string path = tmpPath("cp_mutate.json");
    std::remove(path.c_str());
    CampaignRunOptions opts;
    opts.fleet = 66;
    opts.threads = 2;
    opts.masterSeed = 7;
    opts.checkpointPath = path;
    KeyRecoveryCampaign(forkSpec()).run(opts);
    JsonValue parsed;
    std::string error;
    ASSERT_TRUE(loadJsonFile(path, parsed, &error)) << error;
    std::string doc;
    {
        std::FILE *f = std::fopen(path.c_str(), "r");
        ASSERT_NE(f, nullptr);
        char buf[4096];
        for (std::size_t n; (n = std::fread(buf, 1, sizeof(buf), f)) > 0;)
            doc.append(buf, n);
        std::fclose(f);
    }
    std::remove(path.c_str());

    // Where each number token starts, and its length.
    std::vector<std::pair<std::size_t, std::size_t>> numbers;
    for (std::size_t i = 1; i < doc.size(); ++i) {
        const char c = doc[i];
        if ((c == '-' || (c >= '0' && c <= '9')) &&
            (doc[i - 1] == ' ' || doc[i - 1] == '[')) {
            const std::size_t end =
                doc.find_first_not_of("-+.eE0123456789", i);
            numbers.emplace_back(i, end - i);
            i = end;
        }
    }
    ASSERT_FALSE(numbers.empty());

    Rng rng(20261017);
    const char *const replacements[] = {"-1", "1e300", "\"x\""};
    std::size_t rejected = 0;
    for (int k = 0; k < 400; ++k) {
        std::string mutant = doc;
        const int kind = k % 4;
        if (kind == 0) {
            mutant.resize(rng.nextBelow(doc.size()));
        } else if (kind == 1) {
            mutant[rng.nextBelow(doc.size())] ^=
                static_cast<char>(1u << rng.nextBelow(8));
        } else if (kind == 2) {
            const auto [at, len] = numbers[rng.nextBelow(numbers.size())];
            mutant.replace(at, len, replacements[rng.nextBelow(3)]);
        } else {
            mutant = shuffledJson(parsed, rng);
        }
        SCOPED_TRACE(testing::Message() << "mutant " << k);
        error.clear();
        const std::string mpath = tmpPath("cp_mutant.json");
        std::FILE *f = std::fopen(mpath.c_str(), "w");
        ASSERT_NE(f, nullptr);
        std::fwrite(mutant.data(), 1, mutant.size(), f);
        std::fclose(f);
        CampaignCheckpoint cp;
        const bool loaded = loadCampaignCheckpoint(mpath, cp, &error);
        std::remove(mpath.c_str());
        if (kind == 3) {
            EXPECT_TRUE(loaded) << "reordered keys: " << error;
        }
        if (!loaded) {
            EXPECT_FALSE(error.empty());
            ++rejected;
            continue;
        }
        // Whatever loads must take one more trial and serialise.
        TrialRecorder rec;
        for (const auto &[name, stats] : cp.aggregate.metrics())
            rec.metric(name, 1.0);
        for (const auto &[name, rate] : cp.aggregate.outcomes())
            rec.outcome(name, true);
        cp.aggregate.fold(rec);
        JsonWriter w;
        w.beginObject();
        cp.aggregate.writeJsonMembers(w, cp.campaign, cp.masterSeed);
        w.endObject();
        EXPECT_FALSE(w.str().empty());
    }
    EXPECT_GT(rejected, 100u);
}

// ----------------------------------- interrupt / resume determinism

TEST(CampaignResume, ResumedJsonMatchesUninterruptedAtAnyThreadCount)
{
    // 66 victims span two shards (64 + 2), so stopping after the
    // first shard interrupts mid-campaign.  The resumed run uses a
    // different thread count than both the interrupted prefix and the
    // reference runs — the bytes must not care.
    const ScenarioSpec &spec = forkSpec();
    const std::string cp = tmpPath("cp_resume.json");
    std::remove(cp.c_str());

    CampaignRunOptions interrupt;
    interrupt.fleet = 66;
    interrupt.threads = 8;
    interrupt.masterSeed = 7;
    interrupt.checkpointPath = cp;
    interrupt.stopAfterShards = 1;
    CampaignResult partial = KeyRecoveryCampaign(spec).run(interrupt);
    EXPECT_TRUE(partial.interrupted);
    EXPECT_EQ(partial.aggregate.trials(), kShardTrials);

    CampaignRunOptions resume;
    resume.fleet = 66;
    resume.threads = 1;
    resume.masterSeed = 7;
    resume.checkpointPath = cp;
    resume.resume = true;
    CampaignResult resumed = KeyRecoveryCampaign(spec).run(resume);
    EXPECT_FALSE(resumed.interrupted);
    EXPECT_EQ(resumed.aggregate.trials(), 66u);

    ExperimentSuite resumedSuite("e2e"), oneSuite("e2e"),
        eightSuite("e2e");
    resumedSuite.add(std::move(resumed));
    oneSuite.add(KeyRecoveryCampaign(spec).run(66, 1, 7));
    eightSuite.add(KeyRecoveryCampaign(spec).run(66, 8, 7));
    EXPECT_EQ(resumedSuite.toJson(), oneSuite.toJson());
    EXPECT_EQ(resumedSuite.toJson(), eightSuite.toJson());
    std::remove(cp.c_str());
}

TEST(CampaignResume, RejectsCheckpointOfDifferentRun)
{
    const ScenarioSpec &spec = forkSpec();
    const std::string cp = tmpPath("cp_mismatch.json");
    std::remove(cp.c_str());

    CampaignRunOptions first;
    first.fleet = 66;
    first.threads = 2;
    first.masterSeed = 7;
    first.checkpointPath = cp;
    first.stopAfterShards = 1;
    ASSERT_TRUE(KeyRecoveryCampaign(spec).run(first).interrupted);

    CampaignRunOptions wrongSeed = first;
    wrongSeed.stopAfterShards = 0;
    wrongSeed.resume = true;
    wrongSeed.masterSeed = 8;
    EXPECT_DEATH(KeyRecoveryCampaign(spec).run(wrongSeed),
                 "different run");
    std::remove(cp.c_str());
}

// ------------------------------------------- fork-path constraints

TEST(CampaignFork, RejectsNonUniformFleets)
{
    ScenarioSpec spec = forkSpec();
    spec.fleetLineIndexStep = 13;
    EXPECT_DEATH(KeyRecoveryCampaign{spec}, "uniform fleet");
    spec.fleetLineIndexStep = 0;
    spec.fleetNoises = {"silent", "quiescent-local"};
    EXPECT_DEATH(KeyRecoveryCampaign{spec}, "uniform fleet");
}

// --------------------------- all-victims-failed fleets (absent metrics)

TEST(CampaignBlindFailure, AbsentAccuracyMetricsStayAbsent)
{
    // A blind fork campaign whose Step-0 budget is hopeless: warmup
    // calibration fails, so *no* victim is ever attacked and the
    // accuracy metrics legitimately never exist.  The summary and the
    // JSON must represent that explicitly instead of inventing zeros.
    ScenarioSpec spec = forkSpec();
    spec.name = "campaign-fork-blind-doomed";
    spec.blindTopology = true;
    spec.calibBudgetMs = 0.001; // ~2000 cycles: cannot measure anything
    spec.assumedMaxUncertainty = 16;
    spec.assumedMaxWays = 8;
    spec.calibSamplePages = 96;

    CampaignResult res = KeyRecoveryCampaign(spec).run(3, 1, 42);
    EXPECT_EQ(res.aggregate.trials(), 3u);
    EXPECT_EQ(res.summary.keysRecovered, 0u);
    EXPECT_DOUBLE_EQ(res.summary.fleetSuccessRate, 0.0);
    EXPECT_EQ(res.aggregate.metric("recovered_fraction"), nullptr);
    EXPECT_EQ(res.aggregate.metric("bit_error_rate"), nullptr);
    // The one-time (wasted) warmup cost is still charged.
    const StreamingStats *warm = res.aggregate.metric("warmup_cycles");
    ASSERT_NE(warm, nullptr);
    EXPECT_EQ(warm->count(), 1u);
    EXPECT_DOUBLE_EQ(res.summary.totalAttackCycles, warm->sum());

    JsonWriter w;
    res.writeJson(w);
    const std::string doc = w.str();
    EXPECT_EQ(doc.find("recovered_fraction"), std::string::npos);
    EXPECT_EQ(doc.find("nan"), std::string::npos);
    EXPECT_NE(doc.find("\"cycles_per_recovered_key\": null"),
              std::string::npos);
}

} // namespace
} // namespace llcf

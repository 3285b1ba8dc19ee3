/**
 * @file
 * Tests for the devirtualized batched hot path: scalar-vs-batched
 * equivalence (byte-identical harness JSON across every replacement
 * policy), the scalar-vs-SIMD tag-scan differential suite (identical
 * kernels on random rows, byte-identical suite JSON and equal perf
 * counters on paper-scale machines), PerfCounters accounting
 * invariants, the slice hash's divide-free reduction, and the JSON
 * parser the perf gate reads baselines with (its nesting cap, its
 * non-finite number rejection and a mutation loop over a committed
 * baseline).
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "cache/tag_scan.hh"
#include "harness/experiment.hh"
#include "harness/json.hh"
#include "json_mutants.hh"
#include "noise/profile.hh"
#include "scenario/registry.hh"
#include "scenario/scenario.hh"
#include "sim/configs.hh"
#include "sim/machine.hh"

namespace llcf {
namespace {

std::vector<Addr>
mapLines(Machine &m, AddressSpace &as, std::size_t pages)
{
    const Addr base = as.mmapAnon(pages * kPageBytes);
    std::vector<Addr> lines;
    for (std::size_t p = 0; p < pages; ++p) {
        for (unsigned l = 0; l < kLinesPerPage; ++l) {
            lines.push_back(as.translate(base + p * kPageBytes +
                                         l * kLineBytes));
        }
    }
    (void)m;
    return lines;
}

/**
 * One mixed trial touching every batched operation; @p batched picks
 * the accessBatch path, otherwise the scalar per-element loop.  Runs
 * under a noisy profile so RNG-dependent paths (jitter, noise replay,
 * reuse predictor) are exercised too.
 */
void
mixedTrial(ReplKind repl, bool batched, TrialContext &ctx,
           TrialRecorder &rec)
{
    MachineConfig cfg = tinyTest(2);
    cfg.withSharedRepl(repl);
    NoiseProfile noise;
    ASSERT_TRUE(noiseProfileByName("cloud-run", noise));
    Machine m(cfg, noise, ctx.seed);
    auto as = m.newAddressSpace();
    const auto lines = mapLines(m, *as, 6);
    const std::span<const Addr> span(lines);

    if (batched) {
        m.accessBatch(0, span, {BatchOp::Load});
        m.accessBatch(0, span, {BatchOp::Load, true, -1});
        m.accessBatch(0, span, {BatchOp::Store});
        m.accessBatch(0, span, {BatchOp::Store, true, -1});
        m.accessBatch(0, span, {BatchOp::Flush});
        m.accessBatch(0, span, {BatchOp::Load, false, 1});
        m.accessBatch(0, span, {BatchOp::Load, true, 1});
        m.accessBatch(0, span, {BatchOp::TimedLoad});
        m.accessBatch(0, span, {BatchOp::ChaseLoad});
        m.accessBatch(0, span, {BatchOp::ProbeLoad});
        m.accessBatch(0, span, {BatchOp::Flush, true, -1});
    } else {
        for (Addr a : lines)
            m.load(0, a);
        m.accessBatch(0, span, {BatchOp::Load, true, -1});
        for (Addr a : lines)
            m.store(0, a);
        m.accessBatch(0, span, {BatchOp::Store, true, -1});
        for (Addr a : lines)
            m.clflush(0, a);
        for (Addr a : lines)
            m.loadShared(0, 1, a);
        m.accessBatch(0, span, {BatchOp::Load, true, 1});
        for (Addr a : lines)
            m.timedLoad(0, a);
        for (Addr a : lines)
            m.chaseLoad(0, a);
        for (Addr a : lines)
            m.probeLoad(0, a);
        m.accessBatch(0, span, {BatchOp::Flush, true, -1});
    }

    // Aggregate everything observable: virtual time, event counters
    // and the full PerfCounters snapshot.  Byte-identical suite JSON
    // then certifies the two paths produced identical machines.
    rec.metric("clock", static_cast<double>(m.now()));
    rec.metric("loads", static_cast<double>(m.stats().loads));
    rec.metric("stores", static_cast<double>(m.stats().stores));
    rec.metric("dram", static_cast<double>(m.stats().dramFills));
    rec.metric("noise", static_cast<double>(m.stats().noiseAccesses));
    recordPerfCounters(rec, m.perfCounters());
}

TEST(BatchedEquivalence, ByteIdenticalJsonAcrossAllPolicies)
{
    for (ReplKind repl : kAllReplKinds) {
        ExperimentSuite scalar("equiv"), batched("equiv");
        for (bool use_batch : {false, true}) {
            ExperimentConfig cfg;
            cfg.name = std::string("mixed-") + replKindName(repl);
            cfg.trials = 3;
            cfg.masterSeed = 1234;
            ExperimentRunner runner(cfg);
            ExperimentResult res = runner.run(
                [&](TrialContext &ctx, TrialRecorder &rec) {
                    mixedTrial(repl, use_batch, ctx, rec);
                });
            (use_batch ? batched : scalar).add(std::move(res));
        }
        EXPECT_EQ(scalar.toJson(), batched.toJson())
            << "policy " << replKindName(repl);
    }
}

// ---------------------------------------- scalar-vs-SIMD differential

/** Flip the force-scalar override for a scope, restoring it on exit. */
class ScopedForceScalar
{
  public:
    explicit ScopedForceScalar(bool force)
        : prev_(detail::g_tag_scan_force_scalar)
    {
        setTagScanForceScalar(force);
    }
    ~ScopedForceScalar() { setTagScanForceScalar(prev_); }

  private:
    bool prev_;
};

TEST(TagScanDifferential, KernelsAgreeOnRandomRows)
{
#if LLCF_TAG_SCAN_VECTOR
    Rng rng(2024);
    for (int iter = 0; iter < 20000; ++iter) {
        const unsigned words =
            (1 + static_cast<unsigned>(rng.nextBelow(8))) * kTagLane;
        std::vector<Addr> row(words);
        for (Addr &w : row) {
            // Mix of sentinel and line-aligned tags, like a real row.
            w = rng.nextBool(0.5) ? 0x1 : lineAlign(rng.next());
        }
        // Needle present (possibly at several slots) half the time.
        Addr needle = lineAlign(rng.next());
        if (rng.nextBool(0.5))
            needle = row[rng.nextBelow(words)];
        EXPECT_EQ(tagScanFindVector(row.data(), words, needle),
                  tagScanFindScalar(row.data(), words, needle))
            << "words " << words;
    }
#else
    GTEST_SKIP() << "scalar-only build: single kernel";
#endif
}

TEST(TagScanDifferential, ForceScalarOverrideControlsDispatch)
{
    const bool prev = detail::g_tag_scan_force_scalar;
    setTagScanForceScalar(true);
    EXPECT_FALSE(tagScanVectorActive());
    setTagScanForceScalar(false);
    EXPECT_EQ(tagScanVectorActive(), LLCF_TAG_SCAN_VECTOR != 0);
    setTagScanForceScalar(prev);
}

/**
 * One trace through a paper-scale machine touching the load, shared,
 * store, flush and probe paths, under a noisy profile so the
 * RNG-coupled paths run too.  Records everything observable; the
 * byte-identity test below runs it under each tag-scan kernel.
 */
void
scaledKernelTrial(MachineConfig (*make)(unsigned), ReplKind repl,
                  TrialContext &ctx, TrialRecorder &rec)
{
    MachineConfig cfg = make(2);
    cfg.withSharedRepl(repl);
    NoiseProfile noise;
    ASSERT_TRUE(noiseProfileByName("cloud-run", noise));
    Machine m(cfg, noise, ctx.seed);
    auto as = m.newAddressSpace();
    const Addr base = as->mmapAnon(24 * kPageBytes);
    const auto lines = as->translateLines(base, 24 * kPageBytes);
    const std::span<const Addr> span(lines);
    m.accessBatch(0, span, {BatchOp::Load});
    m.accessBatch(0, span, {BatchOp::Load, true, -1});
    m.accessBatch(1, span, {BatchOp::Store, true, -1});
    m.accessBatch(0, span, {BatchOp::Flush, true, -1});
    m.accessBatch(0, span, {BatchOp::Load, true, 1});
    m.accessBatch(0, span, {BatchOp::ProbeLoad});
    rec.metric("clock", static_cast<double>(m.now()));
    rec.metric("noise", static_cast<double>(m.stats().noiseAccesses));
    recordPerfCounters(rec, m.perfCounters());
}

TEST(TagScanDifferential, ByteIdenticalJsonOnScaledMachines)
{
    const struct
    {
        const char *name;
        MachineConfig (*make)(unsigned);
    } machines[] = {
        {"skl", scaledSkylake},
        {"icx", scaledIceLake},
    };
    for (const auto &mach : machines) {
        for (ReplKind repl : kAllReplKinds) {
            ExperimentSuite scalar("kernels"), vector("kernels");
            for (bool force : {true, false}) {
                ScopedForceScalar guard(force);
                ExperimentConfig cfg;
                cfg.name = std::string("diff-") + mach.name + '-' +
                           replKindName(repl);
                cfg.trials = 2;
                cfg.threads = 1;
                cfg.masterSeed = 20817;
                ExperimentRunner runner(cfg);
                ExperimentResult res = runner.run(
                    [&](TrialContext &ctx, TrialRecorder &rec) {
                        scaledKernelTrial(mach.make, repl, ctx, rec);
                    });
                (force ? scalar : vector).add(std::move(res));
            }
            EXPECT_EQ(scalar.toJson(), vector.toJson())
                << mach.name << ' ' << replKindName(repl);
        }
    }
}

void
expectArrayCountersEq(const ArrayCounters &a, const ArrayCounters &b,
                      const char *what)
{
    EXPECT_EQ(a.hits, b.hits) << what;
    EXPECT_EQ(a.fills, b.fills) << what;
    EXPECT_EQ(a.evictions, b.evictions) << what;
    EXPECT_EQ(a.invalidations, b.invalidations) << what;
    EXPECT_EQ(a.tagScans, b.tagScans) << what;
}

TEST(TagScanDifferential, PerfCountersIncludingTagScansMatch)
{
    // tagScans never reaches the suite JSON (recordPerfCounters emits
    // named metrics only), so the byte-identity test above cannot see
    // it; compare the raw snapshots directly.
    for (ReplKind repl : kAllReplKinds) {
        PerfCounters pc[2];
        std::size_t idx = 0;
        for (bool force : {true, false}) {
            ScopedForceScalar guard(force);
            MachineConfig cfg = scaledIceLake(2);
            cfg.withSharedRepl(repl);
            Machine m(cfg, silent(), 321);
            auto as = m.newAddressSpace();
            const Addr base = as->mmapAnon(8 * kPageBytes);
            const auto lines =
                as->translateLines(base, 8 * kPageBytes);
            m.accessBatch(0, lines, {BatchOp::Load});
            m.accessBatch(0, lines, {BatchOp::Flush, true, -1});
            m.accessBatch(0, lines, {BatchOp::Load, true, -1});
            pc[idx++] = m.perfCounters();
        }
        const char *name = replKindName(repl);
        expectArrayCountersEq(pc[0].l1, pc[1].l1, name);
        expectArrayCountersEq(pc[0].l2, pc[1].l2, name);
        expectArrayCountersEq(pc[0].llc, pc[1].llc, name);
        expectArrayCountersEq(pc[0].sf, pc[1].sf, name);
        EXPECT_EQ(pc[0].accesses, pc[1].accesses) << name;
        EXPECT_EQ(pc[0].hits, pc[1].hits) << name;
        EXPECT_EQ(pc[0].misses, pc[1].misses) << name;
        EXPECT_EQ(pc[0].simCycles, pc[1].simCycles) << name;
    }
}

// ------------------------------------------------------ perf counters

TEST(PerfCounters, ArrayEvictionsMatchFillResults)
{
    for (ReplKind repl : kAllReplKinds) {
        CacheArray arr(CacheGeometry{4, 8, 1}, repl);
        Rng rng(7);
        std::uint64_t evicted = 0, fills = 0;
        for (unsigned i = 0; i < 200; ++i) {
            FillResult fr = arr.fill(
                i % 8,
                CacheLine{(0x1000ull + i * 0x2000), CohState::Shared, 0},
                rng);
            ++fills;
            evicted += fr.evicted ? 1 : 0;
        }
        EXPECT_EQ(arr.counters().fills, fills) << replKindName(repl);
        EXPECT_EQ(arr.counters().evictions, evicted)
            << replKindName(repl);
        // 8 sets x 4 ways capacity: everything beyond it must evict.
        EXPECT_EQ(evicted, fills - 32) << replKindName(repl);
        EXPECT_EQ(arr.counters().hits, 0u);
    }
}

TEST(PerfCounters, HitsPlusMissesEqualsAccesses)
{
    MachineConfig cfg = tinyTest(2);
    NoiseProfile noise;
    ASSERT_TRUE(noiseProfileByName("cloud-run", noise));
    Machine m(cfg, noise, 99);
    auto as = m.newAddressSpace();
    const auto lines = mapLines(m, *as, 8);
    for (int round = 0; round < 3; ++round) {
        m.accessBatch(0, lines, {BatchOp::Load});
        m.accessBatch(1, lines, {BatchOp::Store, true, -1});
        m.accessBatch(0, lines, {BatchOp::Flush, true, -1});
    }
    const PerfCounters pc = m.perfCounters();
    EXPECT_GT(pc.accesses, 0u);
    EXPECT_EQ(pc.hits + pc.misses, pc.accesses);
    std::uint64_t level_sum = 0;
    for (unsigned i = 0; i < kHitLevelCount; ++i)
        level_sum += pc.levelAccesses[i];
    EXPECT_EQ(level_sum, pc.accesses);
    EXPECT_EQ(pc.levelAccesses[static_cast<unsigned>(HitLevel::Dram)],
              pc.misses);
    EXPECT_EQ(pc.simCycles, m.now());
    // The flush sweeps force repeated SF/LLC turnover.
    EXPECT_GT(pc.sf.fills, 0u);
    EXPECT_GE(pc.sf.fills, pc.sf.evictions);
    EXPECT_GE(pc.l1.fills, pc.l1.evictions);
}

TEST(PerfCounters, CoherenceDowngradeCounted)
{
    Machine m(tinyTest(2), silent(), 5);
    auto as = m.newAddressSpace();
    const Addr pa = as->translate(as->mmapAnon(kPageBytes));
    m.load(0, pa); // Exclusive, owned by core 0
    EXPECT_TRUE(m.inSf(pa));
    EXPECT_EQ(m.perfCounters().cohDowngrades, 0u);
    m.load(1, pa); // cross-core load: E -> Shared downgrade
    EXPECT_EQ(m.perfCounters().cohDowngrades, 1u);
    EXPECT_TRUE(m.inLlc(pa));
    EXPECT_FALSE(m.inSf(pa));
}

TEST(PerfCounters, CountersMetricsAppearOnlyWhenEnabled)
{
    const ScenarioSpec *spec =
        builtinScenarios().find("build-bins-tiny-lru-silent");
    ASSERT_NE(spec, nullptr);

    ExperimentResult off = runScenario(*spec, 2, 0, 42);
    EXPECT_EQ(off.metric("pc_accesses"), nullptr);

    setenv("LLCF_COUNTERS", "1", 1);
    ExperimentResult on_a = runScenario(*spec, 2, 1, 42);
    ExperimentResult on_b = runScenario(*spec, 2, 8, 42);
    unsetenv("LLCF_COUNTERS");

    ASSERT_NE(on_a.metric("pc_accesses"), nullptr);
    ASSERT_NE(on_a.metric("pc_sim_cycles"), nullptr);
    EXPECT_GT(on_a.metric("pc_accesses")->mean(), 0.0);

    // Counter metrics obey the same determinism contract as the rest
    // of the suite JSON.
    ExperimentSuite sa("scenarios"), sb("scenarios");
    sa.add(std::move(on_a));
    sb.add(std::move(on_b));
    EXPECT_EQ(sa.toJson(), sb.toJson());

    // And the trial metrics themselves must not disturb the metrics
    // recorded without counters.
    ExperimentResult off2 = runScenario(*spec, 2, 0, 42);
    ExperimentSuite soff("scenarios"), soff2("scenarios");
    soff.add(std::move(off));
    soff2.add(std::move(off2));
    EXPECT_EQ(soff.toJson(), soff2.toJson());
}

// --------------------------------------------------------- slice hash

TEST(SliceHashFastPath, ReductionMatchesModuloReference)
{
    Rng rng(11);
    for (unsigned n = 1; n <= 33; ++n) {
        OpaqueSliceHash hash(n, 0xfeedULL + n);
        for (int i = 0; i < 2000; ++i) {
            const Addr pa = lineAlign(rng.next());
            const std::uint64_t h =
                mix64((pa >> kLineBits) ^ (0xfeedULL + n));
            EXPECT_EQ(hash.slice(pa), h % n) << "slices " << n;
        }
    }
}

// -------------------------------------------------------- JSON parser

TEST(JsonParser, RoundTripsSuiteDocuments)
{
    ExperimentConfig cfg;
    cfg.name = "json-roundtrip";
    cfg.trials = 2;
    cfg.masterSeed = 3;
    ExperimentRunner runner(cfg);
    ExperimentResult res =
        runner.run([](TrialContext &ctx, TrialRecorder &rec) {
            rec.metric("value", static_cast<double>(ctx.index) + 0.25);
            rec.outcome("ok", ctx.index % 2 == 0);
        });
    ExperimentSuite suite("roundtrip");
    suite.contextValue("tolerance", 0.1);
    suite.add(std::move(res));

    JsonValue doc;
    std::string err;
    ASSERT_TRUE(parseJson(suite.toJson(), doc, &err)) << err;
    ASSERT_TRUE(doc.isObject());
    const JsonValue *tol = doc.find("context", "tolerance");
    ASSERT_NE(tol, nullptr);
    EXPECT_DOUBLE_EQ(tol->asNumber(), 0.1);
    const JsonValue *benches = doc.find("benchmarks");
    ASSERT_NE(benches, nullptr);
    ASSERT_TRUE(benches->isArray());
    ASSERT_EQ(benches->items().size(), 1u);
    const JsonValue &b = benches->items()[0];
    EXPECT_EQ(b.find("name")->asString(), "json-roundtrip");
    const JsonValue *mean = b.find("metrics", "value", "mean");
    ASSERT_NE(mean, nullptr);
    EXPECT_DOUBLE_EQ(mean->asNumber(), 0.75);
    const JsonValue *rate = b.find("outcomes", "ok", "rate");
    ASSERT_NE(rate, nullptr);
    EXPECT_DOUBLE_EQ(rate->asNumber(), 0.5);
}

TEST(JsonParser, ParsesScalarsAndEscapes)
{
    JsonValue v;
    ASSERT_TRUE(parseJson(R"({"s": "a\"b\\c\nd", "t": true,
                              "f": false, "n": null,
                              "xs": [1, -2.5, 3e2]})",
                          v, nullptr));
    EXPECT_EQ(v.find("s")->asString(), "a\"b\\c\nd");
    EXPECT_TRUE(v.find("t")->asBool());
    EXPECT_FALSE(v.find("f")->asBool());
    EXPECT_TRUE(v.find("n")->isNull());
    const auto &xs = v.find("xs")->items();
    ASSERT_EQ(xs.size(), 3u);
    EXPECT_DOUBLE_EQ(xs[0].asNumber(), 1.0);
    EXPECT_DOUBLE_EQ(xs[1].asNumber(), -2.5);
    EXPECT_DOUBLE_EQ(xs[2].asNumber(), 300.0);
    EXPECT_EQ(v.find("missing"), nullptr);
    EXPECT_EQ(v.find("xs", "nested"), nullptr);
}

TEST(JsonParser, RejectsMalformedDocuments)
{
    JsonValue v;
    std::string err;
    EXPECT_FALSE(parseJson("{", v, &err));
    EXPECT_FALSE(err.empty());
    EXPECT_FALSE(parseJson("{\"a\": }", v, nullptr));
    EXPECT_FALSE(parseJson("[1, 2", v, nullptr));
    EXPECT_FALSE(parseJson("{\"a\": 1} trailing", v, nullptr));
    EXPECT_FALSE(parseJson("\"unterminated", v, nullptr));
    EXPECT_FALSE(parseJson("nope", v, nullptr));
    EXPECT_FALSE(parseJson("", v, nullptr));
}

/** @p depth nested arrays around an empty innermost one. */
std::string
nestedArrays(std::size_t depth)
{
    return std::string(depth, '[') + std::string(depth, ']');
}

TEST(JsonParser, NestingIsCappedWithAMessage)
{
    JsonValue v;
    std::string err;
    EXPECT_TRUE(parseJson(nestedArrays(kJsonMaxDepth), v, &err)) << err;
    EXPECT_FALSE(parseJson(nestedArrays(kJsonMaxDepth + 1), v, &err));
    // The message names the offset of the first bracket too many.
    EXPECT_NE(err.find("offset " + std::to_string(kJsonMaxDepth) +
                       ": nesting too deep"),
              std::string::npos) << err;
    // Deep enough to overflow an uncapped recursive parser's stack.
    err.clear();
    EXPECT_FALSE(parseJson(std::string(100000, '['), v, &err));
    EXPECT_NE(err.find("nesting too deep"), std::string::npos) << err;
    // Objects count toward the same cap.
    std::string objects;
    for (unsigned i = 0; i <= kJsonMaxDepth; ++i)
        objects += "{\"a\": ";
    EXPECT_FALSE(parseJson(objects, v, &err));
    EXPECT_NE(err.find("nesting too deep"), std::string::npos) << err;
}

TEST(JsonParser, RejectsNonFiniteNumbers)
{
    JsonValue v;
    for (const char *doc : {"{\"a\": 1e999}", "{\"a\": -1e999}",
                            "[1, 1e999]", "-1e999"}) {
        std::string err;
        EXPECT_FALSE(parseJson(doc, v, &err)) << doc;
        EXPECT_NE(err.find("number out of range"), std::string::npos)
            << doc << ": " << err;
        EXPECT_NE(err.find("offset"), std::string::npos) << err;
    }
    // Underflow is finite (it rounds to zero) and the largest double
    // still parses.
    ASSERT_TRUE(parseJson("[1e-999, 1.7976931348623157e308]", v));
    EXPECT_EQ(v.items()[0].asNumber(), 0.0);
}

TEST(JsonParser, MutatedBaselinesAreRejectedOrParse)
{
    const std::string path =
        std::string(LLCF_REPO_ROOT) + "/BENCH_calib.json";
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in) << path;
    const std::string doc((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
    JsonValue parsed;
    std::string error;
    ASSERT_TRUE(parseJson(doc, parsed, &error)) << error;
    const auto numbers = numberTokens(doc);
    ASSERT_FALSE(numbers.empty());

    // Five mutation kinds in turn: truncation, a bit flip, a number
    // replaced, a run of '[' inserted, every object's keys reordered.
    Rng rng(20261018);
    const char *const replacements[] = {"1e999", "-1", "\"x\""};
    std::size_t rejected = 0;
    for (int k = 0; k < 400; ++k) {
        std::string mutant = doc;
        bool overflow = false;
        const int kind = k % 5;
        if (kind == 0) {
            mutant.resize(rng.nextBelow(doc.size()));
        } else if (kind == 1) {
            mutant[rng.nextBelow(doc.size())] ^=
                static_cast<char>(1u << rng.nextBelow(8));
        } else if (kind == 2) {
            const auto [at, len] = numbers[rng.nextBelow(numbers.size())];
            const auto pick = rng.nextBelow(3);
            mutant.replace(at, len, replacements[pick]);
            overflow = pick == 0;
        } else if (kind == 3) {
            mutant.insert(rng.nextBelow(doc.size() + 1),
                          rng.nextBelow(2 * kJsonMaxDepth) + 1, '[');
        } else {
            mutant = shuffledJson(parsed, rng);
        }
        SCOPED_TRACE(testing::Message() << "mutant " << k);
        error.clear();
        JsonValue v;
        const bool ok = parseJson(mutant, v, &error);
        if (kind == 4) {
            EXPECT_TRUE(ok) << "reordered keys: " << error;
        }
        if (overflow) {
            EXPECT_FALSE(ok) << "a 1e999 number parsed";
        }
        if (!ok) {
            EXPECT_FALSE(error.empty());
            ++rejected;
        }
    }
    EXPECT_GT(rejected, 150u);
}

} // namespace
} // namespace llcf

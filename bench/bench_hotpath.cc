/**
 * @file
 * Hot-path microbenchmark and CI perf gate for the cache-model access
 * loop.
 *
 * Cells are (machine x shared replacement policy); each cell drives
 * four workload shapes through Machine::accessBatch:
 *
 *  - churn:      capacity-missing sweeps (sequential + overlapped
 *                loads and a flush sweep per round) — the
 *                DRAM/SF-allocate path
 *  - resident:   a cache-resident sweep — the private-hit fast path
 *  - evtest:     the TestEviction shape (flush working set, share the
 *                target, overlapped shared traversal, probe) — the
 *                attack's inner loop
 *  - flushsweep: repeated flush sweeps over mostly-absent lines — the
 *                flush pass at the top of every TestEviction once the
 *                previous traversal has displaced the working set
 *
 * Two kinds of numbers come out:
 *
 *  - accesses/sec (wall-clock, stdout only, never serialised): the
 *    host-side throughput headline the README "Performance" section
 *    tracks.  Skipped in --smoke mode.
 *  - simulated counters (BENCH_hotpath.json): cycles/access and
 *    eviction counts per workload — deterministic for a fixed seed,
 *    which is what the CI gate compares.
 *
 *   bench_hotpath                      full run, writes the JSON
 *   bench_hotpath --smoke              1 trial/cell, no wall-clock
 *   bench_hotpath --smoke --baseline=BENCH_hotpath.json
 *                                      + regression gate: every
 *                                      *_cycles_per_access mean must
 *                                      stay inside the baseline's
 *                                      tolerance band; exits 1 if not
 *
 * The checked-in baseline at the repository root is regenerated with:
 *   ./build/bench_hotpath --smoke --json-out=BENCH_hotpath.json
 */

#include "bench_common.hh"

#include <chrono>
#include <cstdio>
#include <cstring>
#include <iterator>

#include "harness/json.hh"
#include "noise/profile.hh"
#include "sim/configs.hh"

namespace llcf {
namespace {

/** Relative drift allowed by the --smoke gate, serialised into the
 *  baseline context so the band travels with the numbers. */
constexpr double kGateTolerance = 0.10;

struct Cell
{
    const char *machineName;
    MachineConfig (*makeConfig)(unsigned);
    unsigned slices;
    ReplKind repl;
};

/** One workload execution's deterministic outcome. */
struct WorkloadRun
{
    std::uint64_t accesses = 0;
    Cycles cycles = 0;       //!< virtual cycles inside the timed region
    PerfCounters counters;   //!< machine counters at the end
    double wallSeconds = 0.0;
};

std::vector<Addr>
makeLines(Machine &m, AddressSpace &as, std::size_t pages)
{
    const Addr base = as.mmapAnon(pages * kPageBytes);
    (void)m;
    return as.translateLines(base, pages * kPageBytes);
}

/** Scale a per-machine workload: (pages, rounds) per machine kind. */
struct WorkloadScale
{
    std::size_t churnPages, churnRounds;
    std::size_t residentPages, residentRounds;
    std::size_t evtestPages, evtestRounds;
    std::size_t flushPages, flushRounds;
};

WorkloadScale
scaleFor(const MachineConfig &cfg)
{
    // Tiny machines need small footprints to still overflow/fit the
    // right levels; Skylake-scale machines get paper-plausible sizes.
    if (cfg.llc.lineCapacity() < 16384)
        return {64, 24, 12, 200, 4, 500, 16, 80};
    return {512, 4, 8, 300, 8, 200, 128, 16};
}

WorkloadRun
runChurn(const Cell &cell, std::uint64_t seed, const WorkloadScale &ws)
{
    MachineConfig cfg = cell.makeConfig(cell.slices);
    cfg.withSharedRepl(cell.repl);
    Machine m(cfg, silent(), seed);
    auto as = m.newAddressSpace();
    const auto lines = makeLines(m, *as, ws.churnPages);
    WorkloadRun run;
    const Cycles c0 = m.now();
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t r = 0; r < ws.churnRounds; ++r) {
        m.accessBatch(0, lines, {BatchOp::Load});
        run.accesses += lines.size();
        m.accessBatch(0, lines, {BatchOp::Load, true, -1});
        run.accesses += lines.size();
        m.accessBatch(0, lines, {BatchOp::Flush, true, -1});
    }
    const auto t1 = std::chrono::steady_clock::now();
    run.wallSeconds = std::chrono::duration<double>(t1 - t0).count();
    run.cycles = m.now() - c0;
    run.counters = m.perfCounters();
    return run;
}

WorkloadRun
runResident(const Cell &cell, std::uint64_t seed,
            const WorkloadScale &ws)
{
    MachineConfig cfg = cell.makeConfig(cell.slices);
    cfg.withSharedRepl(cell.repl);
    Machine m(cfg, silent(), seed);
    auto as = m.newAddressSpace();
    const auto lines = makeLines(m, *as, ws.residentPages);
    m.accessBatch(0, lines, {BatchOp::Load}); // warm
    WorkloadRun run;
    const Cycles c0 = m.now();
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t r = 0; r < ws.residentRounds; ++r) {
        m.accessBatch(0, lines, {BatchOp::Load});
        run.accesses += lines.size();
    }
    const auto t1 = std::chrono::steady_clock::now();
    run.wallSeconds = std::chrono::duration<double>(t1 - t0).count();
    run.cycles = m.now() - c0;
    run.counters = m.perfCounters();
    return run;
}

WorkloadRun
runEvtest(const Cell &cell, std::uint64_t seed, const WorkloadScale &ws)
{
    MachineConfig cfg = cell.makeConfig(cell.slices);
    cfg.withSharedRepl(cell.repl);
    Machine m(cfg, silent(), seed);
    auto as = m.newAddressSpace();
    auto lines = makeLines(m, *as, ws.evtestPages);
    const Addr ta = lines.back();
    lines.pop_back();
    WorkloadRun run;
    const Cycles c0 = m.now();
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t r = 0; r < ws.evtestRounds; ++r) {
        // The TestEviction shape (AttackSession::testEvictionLlcParallel).
        m.accessBatch(0, lines, {BatchOp::Flush, true, -1});
        m.clflush(0, ta);
        m.loadShared(0, 1, ta);
        m.accessBatch(0, lines, {BatchOp::Load, true, 1});
        m.probeLoad(0, ta);
        run.accesses += 2 * lines.size() + 3;
    }
    const auto t1 = std::chrono::steady_clock::now();
    run.wallSeconds = std::chrono::duration<double>(t1 - t0).count();
    run.cycles = m.now() - c0;
    run.counters = m.perfCounters();
    return run;
}

WorkloadRun
runFlushSweep(const Cell &cell, std::uint64_t seed,
              const WorkloadScale &ws)
{
    MachineConfig cfg = cell.makeConfig(cell.slices);
    cfg.withSharedRepl(cell.repl);
    Machine m(cfg, silent(), seed);
    auto as = m.newAddressSpace();
    const auto lines = makeLines(m, *as, ws.flushPages);
    m.accessBatch(0, lines, {BatchOp::Load}); // populate once
    WorkloadRun run;
    const Cycles c0 = m.now();
    const auto t0 = std::chrono::steady_clock::now();
    // After the first sweep the lines are gone from every structure,
    // exactly like the flush pass at the top of each TestEviction once
    // the previous traversal has displaced the working set.
    for (std::size_t r = 0; r < ws.flushRounds; ++r) {
        m.accessBatch(0, lines, {BatchOp::Flush, true, -1});
        run.accesses += lines.size();
    }
    const auto t1 = std::chrono::steady_clock::now();
    run.wallSeconds = std::chrono::duration<double>(t1 - t0).count();
    run.cycles = m.now() - c0;
    run.counters = m.perfCounters();
    return run;
}

struct Workload
{
    const char *name;
    WorkloadRun (*run)(const Cell &, std::uint64_t,
                       const WorkloadScale &);
};

constexpr Workload kWorkloads[] = {
    {"churn", runChurn},
    {"resident", runResident},
    {"evtest", runEvtest},
    {"flushsweep", runFlushSweep},
};

std::string
cellName(const Cell &cell)
{
    std::string name = "hotpath-";
    name += cell.machineName;
    name += '-';
    name += replKindName(cell.repl);
    return name;
}

ExperimentResult
runCell(const Cell &cell, std::size_t trials, bool wallclock)
{
    const WorkloadScale ws =
        scaleFor(cell.makeConfig(cell.slices));
    ExperimentConfig ecfg;
    ecfg.name = cellName(cell);
    ecfg.trials = trials;
    ecfg.masterSeed = baseSeed();
    ExperimentRunner runner(ecfg);
    ExperimentResult result =
        runner.run([&](TrialContext &ctx, TrialRecorder &rec) {
            for (std::size_t wl = 0; wl < std::size(kWorkloads); ++wl) {
                const Workload &w = kWorkloads[wl];
                WorkloadRun run =
                    w.run(cell, streamSeed(ctx.seed, wl), ws);
                const std::string p = w.name;
                rec.metric(p + "_cycles_per_access",
                           static_cast<double>(run.cycles) /
                               static_cast<double>(run.accesses));
                rec.metric(p + "_llc_evictions",
                           static_cast<double>(
                               run.counters.llc.evictions));
                rec.metric(p + "_sf_evictions",
                           static_cast<double>(
                               run.counters.sf.evictions));
                if (wl == 0)
                    recordPerfCounters(rec, run.counters);
            }
        });

    if (wallclock) {
        // Dedicated single-threaded pass so accesses/sec is not
        // distorted by harness parallelism.  Wall-clock numbers stay
        // on stdout; the serialised metrics above are all simulated.
        std::printf("  %-34s", result.name.c_str());
        for (const Workload &w : kWorkloads) {
            WorkloadRun run = w.run(cell, streamSeed(baseSeed(), 0), ws);
            std::printf("  %s %7.2f Macc/s", w.name,
                        static_cast<double>(run.accesses) /
                            run.wallSeconds / 1e6);
        }
        std::printf("\n");
    } else {
        const StreamingStats *churn =
            result.metric("churn_cycles_per_access");
        std::printf("  %-34s churn %8.2f cyc/acc\n",
                    result.name.c_str(),
                    churn && !churn->empty() ? churn->mean() : 0.0);
    }
    return result;
}

/**
 * Gate the suite against a checked-in baseline: every
 * *_cycles_per_access metric mean must stay within the baseline's
 * tolerance band.  Returns the number of violations (stale baselines
 * count as violations so the gate cannot silently pass).
 */
unsigned
gateAgainstBaseline(const ExperimentSuite &suite,
                    const std::string &path)
{
    JsonValue doc;
    if (!benchLoadBaseline(path, doc))
        return 1;
    const double tol =
        benchBaselineTolerance(doc, "tolerance", kGateTolerance);

    unsigned violations = 0;
    const char *suffix = "_cycles_per_access";
    for (const ExperimentResult &r : suite.results()) {
        const JsonValue *base = benchBaselineEntry(doc, r.name);
        if (!base) {
            std::fprintf(stderr,
                         "FAIL %s: cell missing from baseline "
                         "(regenerate %s)\n",
                         r.name.c_str(), path.c_str());
            ++violations;
            continue;
        }
        for (const auto &[metric, stats] : r.metrics()) {
            if (metric.size() < std::strlen(suffix) ||
                metric.compare(metric.size() - std::strlen(suffix),
                               std::strlen(suffix), suffix) != 0) {
                continue;
            }
            const JsonValue *mean =
                base->find("metrics", metric.c_str(), "mean");
            if (!mean || !mean->isNumber()) {
                std::fprintf(stderr,
                             "FAIL %s/%s: metric missing from "
                             "baseline (regenerate %s)\n",
                             r.name.c_str(), metric.c_str(),
                             path.c_str());
                ++violations;
                continue;
            }
            const double want = mean->asNumber();
            const double lo = want * (1.0 - tol);
            const double hi = want * (1.0 + tol);
            const double got = stats.mean();
            if (got < lo || got > hi) {
                std::fprintf(stderr,
                             "FAIL %s/%s: %.4f outside [%.4f, %.4f] "
                             "(baseline %.4f, tolerance %.0f%%)\n",
                             r.name.c_str(), metric.c_str(), got, lo,
                             hi, want, tol * 100.0);
                ++violations;
            }
        }
    }
    if (violations == 0)
        std::printf("perf gate: all cells within ±%.0f%% of %s\n",
                    tol * 100.0, path.c_str());
    return violations;
}

int
benchMain(bool smoke, const std::string &baseline)
{
    const Cell cells[] = {
        {"tiny-2sl", tinyTest, 2, ReplKind::LRU},
        {"tiny-2sl", tinyTest, 2, ReplKind::TreePLRU},
        {"tiny-2sl", tinyTest, 2, ReplKind::SRRIP},
        {"tiny-2sl", tinyTest, 2, ReplKind::Random},
        {"skylake-scaled-4sl", scaledSkylake, 4, ReplKind::LRU},
        {"skylake-scaled-4sl", scaledSkylake, 4, ReplKind::TreePLRU},
        {"skylake-scaled-4sl", scaledSkylake, 4, ReplKind::SRRIP},
        {"skylake-scaled-4sl", scaledSkylake, 4, ReplKind::Random},
        {"icelake-scaled-4sl", scaledIceLake, 4, ReplKind::LRU},
        {"icelake-scaled-4sl", scaledIceLake, 4, ReplKind::TreePLRU},
        {"icelake-scaled-4sl", scaledIceLake, 4, ReplKind::SRRIP},
        {"icelake-scaled-4sl", scaledIceLake, 4, ReplKind::Random},
    };

    benchPrintHeader("Cache hot path (machine x policy)");
    ExperimentSuite suite("hotpath");
    suite.contextValue("tolerance", kGateTolerance);
    const std::size_t trials = smoke ? 1 : trialCount(2);
    for (const Cell &cell : cells)
        suite.add(runCell(cell, trials, !smoke));

    // Gate before writing so an output path that happens to equal the
    // baseline path cannot clobber the baseline and self-gate.
    const bool gate_ok =
        baseline.empty() || gateAgainstBaseline(suite, baseline) == 0;
    const int write_rc = benchWriteSuite(suite);
    if (write_rc != 0)
        return write_rc;
    return gate_ok ? 0 : 1;
}

} // namespace
} // namespace llcf

int
main(int argc, char **argv)
{
    bool smoke = false;
    std::string baseline;
    std::vector<std::string> unknown;
    for (const std::string &arg : llcf::benchParseArgs(argc, argv)) {
        if (arg == "--smoke") {
            smoke = true;
        } else if (arg.rfind("--baseline=", 0) == 0) {
            baseline = arg.substr(sizeof("--baseline=") - 1);
        } else {
            unknown.push_back(arg);
        }
    }
    if (!llcf::benchRejectExtraArgs(unknown)) {
        std::fprintf(stderr, "bench_hotpath flags: --smoke "
                             "--baseline=BENCH_hotpath.json\n");
        return 2;
    }
    return llcf::benchMain(smoke, baseline);
}

/**
 * @file
 * Figure 3 — execution time of the parallel and sequential
 * TestEviction implementations on Cloud Run for candidate counts
 * from U to 11U (U = LLC/SF uncertainty).
 *
 * Paper reference (28 slices, U = 896): parallel TestEviction takes
 * ~135 us at 11U = 9,856 candidates, roughly two orders of magnitude
 * below sequential (~4-5 ms at the same size).  Also reproduces the
 * Section 4.3 analysis: expected background accesses during one test
 * and the probability of a noise-free parallel test.
 *
 * Runs on the harness: each (implementation, size) cell fans its
 * trials across LLCF_THREADS workers on independent RNG streams;
 * BENCH_fig3.json is identical for any thread count.
 */

#include "bench_common.hh"

#include <cmath>

namespace llcf {
namespace {

const unsigned kMultipliers[] = {1, 3, 5, 7, 9, 11};

void
runCell(ExperimentSuite &suite, bool parallel, unsigned mult)
{
    char name[48];
    std::snprintf(name, sizeof(name), "%s %2uU @ cloud",
                  parallel ? "parallel" : "sequential", mult);

    ExperimentConfig cfg;
    cfg.name = name;
    cfg.trials = trialCount(parallel ? 8 : 3);
    cfg.masterSeed = baseSeed();

    ExperimentRunner runner(cfg);
    ExperimentResult result = runner.run(
        [parallel, mult](TrialContext &ctx, TrialRecorder &rec) {
        ScenarioRig rig(benchSpec(/*env=*/1, benchSlices(), 1000.0),
                        ctx.seed);
        const unsigned u = rig.machine.config().sf.uncertainty();
        const std::size_t n = static_cast<std::size_t>(u) * mult;
        auto cands = rig.pool->candidatesAt(13);
        if (cands.size() <= n) {
            std::fprintf(stderr,
                         "fig3: candidate pool (%zu) smaller than test "
                         "size %zu; skipping cell\n",
                         cands.size(), n);
            return;
        }
        const Addr ta = cands.back();
        cands.pop_back();
        cands.resize(n);

        const Cycles start = rig.machine.now();
        if (parallel) {
            rig.session->testEvictionLlcParallel(ta, cands, n);
        } else {
            // Sequential (pointer-chase) traversal + timed check.
            Machine &m = rig.machine;
            m.clflush(0, ta);
            m.loadShared(0, 1, ta);
            for (Addr a : cands)
                m.chaseLoad(0, a);
            m.probeLoad(0, ta);
        }
        rec.metric("duration_us",
                   cyclesToUs(rig.machine.now() - start));
        rec.metric("candidates", static_cast<double>(n));
    });

    const StreamingStats *duration = result.metric("duration_us");
    const StreamingStats *cands = result.metric("candidates");
    if (duration && !duration->empty()) {
        // Section 4.3: expected background accesses during one test,
        // and the resulting probability of a noise-free test.
        NoiseProfile profile = cloudRun();
        const double rate_per_us = profile.accessesPerSetPerMs / 1000.0;
        const double expected_noise = duration->mean() * rate_per_us;
        std::printf("  %-10s %6.0f cands (%2uU): %9.1f us"
                    "   E[bg accesses]=%6.2f   P[clean]=%.3f\n",
                    parallel ? "parallel" : "sequential",
                    cands ? cands->mean() : 0.0, mult,
                    duration->mean(), expected_noise,
                    std::exp(-expected_noise));
    }
    suite.add(std::move(result));
}

int
benchMain()
{
    ExperimentSuite suite("fig3");
    benchPrintHeader("Figure 3");
    for (bool parallel : {true, false}) {
        for (unsigned mult : kMultipliers)
            runCell(suite, parallel, mult);
    }
    return benchWriteSuite(suite);
}

} // namespace
} // namespace llcf

int
main(int argc, char **argv)
{
    if (!llcf::benchRejectExtraArgs(llcf::benchParseArgs(argc, argv)))
        return 2;
    return llcf::benchMain();
}

/**
 * @file
 * Table 5 — prime and probe latencies of the two Prime+Scope
 * strategies and Parallel Probing on Cloud Run.
 *
 * Paper reference: PS-Flush prime 6,024 +- 990, PS-Alt prime
 * 2,777 +- 735, Parallel prime 1,121 +- 448 cycles; probe 94 +- 0.7
 * (Prime+Scope) vs 118 +- 0.7 (Parallel) cycles.
 *
 * Runs on the harness: per-strategy trials fan across LLCF_THREADS
 * workers; BENCH_table5.json is identical for any thread count.
 */

#include "attack/covert.hh"
#include "bench_common.hh"

namespace llcf {
namespace {

const MonitorKind kKinds[] = {MonitorKind::PsFlush, MonitorKind::PsAlt,
                              MonitorKind::Parallel};

void
runCell(ExperimentSuite &suite, MonitorKind kind)
{
    char name[48];
    std::snprintf(name, sizeof(name), "%s @ cloud",
                  monitorKindName(kind));

    ExperimentConfig cfg;
    cfg.name = name;
    cfg.trials = trialCount(6);
    cfg.masterSeed = baseSeed();

    ExperimentRunner runner(cfg);
    ExperimentResult result = runner.run(
        [kind](TrialContext &ctx, TrialRecorder &rec) {
        const std::size_t t = ctx.index;
        ScenarioRig rig(benchSpec(/*env=*/1, 4, 100.0), ctx.seed);
        const unsigned w = rig.machine.config().sf.ways;
        const Addr sender = rig.pool->at(17 + t, 9);
        auto evset = groundTruthEvictionSet(rig.machine, *rig.pool,
                                            sender, w);
        std::vector<Addr> alt;
        if (kind == MonitorKind::PsAlt) {
            alt = groundTruthEvictionSet(rig.machine, *rig.pool,
                                         sender, w, w);
        }
        CovertParams params;
        params.accessInterval = 10000;
        params.accesses = 300;
        auto out = runCovertExperiment(*rig.session, kind, evset, alt,
                                       sender, params);
        for (double v : out.latency.prime.samples())
            rec.metric("prime_cyc", v);
        for (double v : out.latency.probe.samples())
            rec.metric("probe_cyc", v);
        rec.outcome("detected", out.detectionRate > 0.5);
    });

    const StreamingStats *prime = result.metric("prime_cyc");
    const StreamingStats *probe = result.metric("probe_cyc");
    if (prime && probe && !prime->empty() && !probe->empty()) {
        std::printf("  %-10s prime %6.0f +- %5.0f cycles   probe %5.0f "
                    "+- %4.1f cycles\n",
                    monitorKindName(kind), prime->mean(),
                    prime->stddev(), probe->mean(), probe->stddev());
    }
    suite.add(std::move(result));
}

int
benchMain()
{
    ExperimentSuite suite("table5");
    benchPrintHeader("Table 5");
    for (MonitorKind kind : kKinds)
        runCell(suite, kind);
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

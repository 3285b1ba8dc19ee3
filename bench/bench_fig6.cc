/**
 * @file
 * Figure 6 — covert-channel detection rate of each monitoring
 * strategy (Parallel, PS-Flush, PS-Alt) as the sender's access
 * interval varies from 1k to 100k cycles, with the paper's
 * kCovertEpsilon = 500-cycle matching bound.
 *
 * Paper reference: at a 2k-cycle interval Parallel reaches 84.1%
 * while PS-Flush and PS-Alt manage 15.4% and 6.0%; even at 100k
 * cycles the ordering stays Parallel > PS-Flush > PS-Alt
 * (91.1% / 82.1% / 36.9%).
 *
 * Runs on the harness: per-cell trials fan across LLCF_THREADS
 * workers; BENCH_fig6.json is identical for any thread count.
 */

#include "attack/covert.hh"
#include "bench_common.hh"

namespace llcf {
namespace {

const MonitorKind kKinds[] = {MonitorKind::Parallel,
                              MonitorKind::PsFlush, MonitorKind::PsAlt};
const Cycles kIntervals[] = {1000, 2000, 5000, 7000, 10000, 50000,
                             100000};

/** Sender accesses per cell trial. */
constexpr unsigned kSenderAccesses = 400;

void
runCell(ExperimentSuite &suite, MonitorKind kind, Cycles interval)
{
    char name[64];
    std::snprintf(name, sizeof(name), "%s @ %lu cyc",
                  monitorKindName(kind),
                  static_cast<unsigned long>(interval));

    ExperimentConfig cfg;
    cfg.name = name;
    cfg.trials = trialCount(4);
    cfg.masterSeed = baseSeed();

    ExperimentRunner runner(cfg);
    ExperimentResult result = runner.run(
        [kind, interval](TrialContext &ctx, TrialRecorder &rec) {
        const std::size_t t = ctx.index;
        ScenarioRig rig(benchSpec(/*env=*/1, 4, 100.0), ctx.seed);
        const unsigned w = rig.machine.config().sf.ways;
        const Addr sender = rig.pool->at(23 + t, 31);
        auto evset = groundTruthEvictionSet(rig.machine, *rig.pool,
                                            sender, w);
        std::vector<Addr> alt;
        if (kind == MonitorKind::PsAlt) {
            alt = groundTruthEvictionSet(rig.machine, *rig.pool,
                                         sender, w, w);
        }
        CovertParams params;
        params.accessInterval = interval;
        params.accesses = kSenderAccesses;
        auto out = runCovertExperiment(*rig.session, kind, evset, alt,
                                       sender, params);
        rec.metric("detection_rate", out.detectionRate);
    });

    const StreamingStats *rates = result.metric("detection_rate");
    if (rates && !rates->empty()) {
        std::printf("  %-10s interval %6lu cyc: detection %5.1f%% "
                    "(+- %4.1f)\n",
                    monitorKindName(kind),
                    static_cast<unsigned long>(interval),
                    rates->mean() * 100.0, rates->stddev() * 100.0);
    }
    suite.add(std::move(result));
}

int
benchMain()
{
    ExperimentSuite suite("fig6");
    benchPrintHeader("Figure 6");
    for (MonitorKind kind : kKinds) {
        for (Cycles interval : kIntervals)
            runCell(suite, kind, interval);
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

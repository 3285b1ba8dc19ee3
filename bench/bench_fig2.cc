/**
 * @file
 * Figure 2 — CDF of the time between background (other-tenant)
 * accesses to a randomly chosen LLC set, measured with Prime+Probe,
 * on Cloud Run vs a quiescent local machine.
 *
 * Paper reference: ~11.5 accesses/ms/set on Cloud Run vs ~0.29 on
 * the local machine; the Cloud Run CDF reaches ~1 within ~300 us.
 *
 * Runs on the harness: the per-environment trials fan out across
 * LLCF_THREADS workers on independent RNG streams; aggregates and
 * BENCH_fig2.json are identical for any thread count.
 */

#include <utility>
#include <vector>

#include "attack/covert.hh"
#include "attack/monitor.hh"
#include "bench_common.hh"
#include "harness/experiment.hh"
#include "harness/thread_pool.hh"

namespace llcf {
namespace {

/** Background accesses kept per trial (paper: 1,000 back-to-back). */
constexpr std::size_t kAccessesPerTrial = 400;

void
runEnvironment(ExperimentSuite &suite, int env)
{
    ExperimentConfig cfg;
    cfg.name = std::string("Fig2 @ ") + benchProfileName(env);
    cfg.trials = trialCount(6);
    cfg.masterSeed = baseSeed();

    // The printed CDF needs every raw gap, in trial order; the
    // aggregate keeps only a sketch once a series outgrows its exact
    // head, so the bench keeps its own copy per trial.
    std::vector<std::vector<double>> gaps_by_trial(cfg.trials);
    ExperimentRunner runner(cfg);
    ExperimentResult result = runner.run(
        [env, &gaps_by_trial](TrialContext &ctx, TrialRecorder &rec) {
        const std::size_t t = ctx.index;
        ScenarioRig rig(benchSpec(env, 4, 100.0), ctx.seed);
        const unsigned w = rig.machine.config().sf.ways;
        const Addr target = rig.pool->at(5 + t, 44);
        auto evset = groundTruthEvictionSet(rig.machine, *rig.pool,
                                            target, w);
        auto monitor = PrimeProbeMonitor::make(MonitorKind::Parallel,
                                               *rig.session, evset);
        // Collect until enough detections or a time cap.
        const Cycles start = rig.machine.now();
        const Cycles cap = start + msToCycles(env == 0 ? 400.0 : 40.0);
        auto detections = monitor->collectTrace(cap);
        while (detections.size() > kAccessesPerTrial)
            detections.pop_back();
        for (std::size_t i = 1; i < detections.size(); ++i) {
            const double gap =
                cyclesToUs(detections[i] - detections[i - 1]);
            rec.metric("gap_us", gap);
            gaps_by_trial[t].push_back(gap);
        }
        rec.metric("accesses",
                   static_cast<double>(detections.size()));
        rec.metric("elapsed_ms", cyclesToMs(rig.machine.now() - start));
    });

    const StreamingStats *accesses = result.metric("accesses");
    const StreamingStats *elapsed = result.metric("elapsed_ms");
    const double total_accesses =
        accesses ? accesses->mean() *
                       static_cast<double>(accesses->count())
                 : 0.0;
    const double total_ms =
        elapsed ? elapsed->mean() * static_cast<double>(elapsed->count())
                : 0.0;
    const double rate = total_ms > 0.0 ? total_accesses / total_ms : 0.0;

    std::printf("  %-12s background rate %.2f accesses/ms/set\n",
                benchProfileName(env), rate);
    std::vector<double> gaps;
    for (const std::vector<double> &trial_gaps : gaps_by_trial)
        gaps.insert(gaps.end(), trial_gaps.begin(), trial_gaps.end());
    if (!gaps.empty()) {
        EmpiricalCdf cdf(std::move(gaps));
        std::printf("  CDF of inter-access time (us -> P):\n");
        for (double x : {10.0, 25.0, 50.0, 100.0, 150.0, 200.0, 300.0,
                         500.0, 1000.0, 3000.0}) {
            std::printf("    %7.0f us  %.3f\n", x, cdf.at(x));
        }
    }
    suite.add(std::move(result));
}

int
benchMain()
{
    ExperimentSuite suite("fig2");
    benchPrintHeader("Figure 2");
    for (int env = 0; env < 2; ++env)
        runEnvironment(suite, env);
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

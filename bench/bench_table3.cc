/**
 * @file
 * Table 3 — effectiveness of the state-of-the-art address-pruning
 * algorithms (Gt, GtOp, Ps, PsOp) WITHOUT candidate filtering, in a
 * quiescent local environment, on Cloud Run, and on Cloud Run during
 * the 3-5 am quiet hours.
 *
 * Paper reference (Cloud Run row): Gt 39.4% / 714 ms, GtOp 56.0% /
 * 512 ms, Ps 3.2% / 580 ms, PsOp 6.9% / 572 ms; all ~97-99% and
 * 15-56 ms in the quiescent local environment.
 *
 * Each cell is an anonymous EvsetBuild scenario executed through the
 * scenario runner, so the table shares its trial logic — and its
 * thread-count-independent determinism — with bench_suite and the
 * scenario regression tests.
 */

#include "bench_common.hh"

namespace llcf {
namespace {

const PruneAlgo kAlgos[] = {PruneAlgo::Gt, PruneAlgo::GtOp,
                            PruneAlgo::Ps, PruneAlgo::PsOp};

void
runCell(ExperimentSuite &suite, PruneAlgo algo, int env)
{
    ScenarioSpec spec = benchSpec(env, benchSlices(), 1000.0);
    char name[64];
    std::snprintf(name, sizeof(name), "%s @ %s", pruneAlgoName(algo),
                  benchProfileName(env));
    spec.name = name;
    spec.stage = ScenarioStage::EvsetBuild;
    spec.algo = algo;
    spec.useFilter = false; // Table 3 measures the raw pruners
    spec.defaultTrials = trialCount(env == 0 ? 10 : 6);

    ExperimentResult result =
        runScenario(spec, 0, 0, baseSeed());

    static const SuccessRate kNoRate;
    static const StreamingStats kNoStats;
    const SuccessRate *sr = result.outcome("success");
    const StreamingStats *times = result.metric("build_cycles");
    printRow(result.name.c_str(), sr ? *sr : kNoRate,
             times ? *times : kNoStats);
    suite.add(std::move(result));
}

int
benchMain()
{
    ExperimentSuite suite("table3");
    benchPrintHeader("Table 3");
    for (int env = 0; env < 3; ++env) {
        for (PruneAlgo algo : kAlgos)
            runCell(suite, algo, env);
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

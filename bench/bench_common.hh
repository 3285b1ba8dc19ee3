/**
 * @file
 * Shared plumbing for the reproduction benchmarks.
 *
 * Every bench binary regenerates one table or figure of the paper.
 * Times reported are *virtual* (simulated cycles at 2 GHz) — the
 * reproduction target is the shape of each result, not wall-clock.
 *
 * All benches run on the deterministic experiment harness and accept
 * the shared CLI flags parsed by benchParseArgs() (which exports them
 * to the environment so library-level knobs see them too):
 *
 *   --seed=<n>       base RNG seed            (LLCF_SEED, default 42)
 *   --trials=<n>     per-cell trial override  (LLCF_TRIALS)
 *   --threads=<n>    harness worker threads   (LLCF_THREADS)
 *   --json-out=<p>   BENCH_*.json output path (LLCF_JSON_OUT)
 *   --full-scale     paper-scale machines     (LLCF_FULL_SCALE=1)
 *   --counters       record pc_* PerfCounter metrics (LLCF_COUNTERS=1)
 */

#ifndef LLCF_BENCH_BENCH_COMMON_HH
#define LLCF_BENCH_BENCH_COMMON_HH

#include <cstdio>
#include <string>
#include <vector>

#include "common/options.hh"
#include "common/stats.hh"
#include "harness/experiment.hh"
#include "scenario/scenario.hh"

namespace llcf {

/**
 * Parse the shared bench flags out of argv, exporting recognised ones
 * into the environment (so envU64/baseSeed/... observe them), and
 * return the arguments the common parser did not consume.  Prints
 * usage and exits on --help or a malformed common flag.
 */
std::vector<std::string> benchParseArgs(int argc, char **argv);

/**
 * Report leftover args as an error.  Returns true if @p extra is
 * empty; otherwise prints the offenders to stderr and returns false.
 */
bool benchRejectExtraArgs(const std::vector<std::string> &extra);

/** Print the standard bench header (thread count + seed). */
void benchPrintHeader(const char *title);

/**
 * Write @p suite to its BENCH_*.json destination (honouring
 * LLCF_JSON_OUT) and report the path.  Returns the process exit code.
 */
int benchWriteSuite(const ExperimentSuite &suite);

// ------------------------------------------------- baseline gates
//
// Shared plumbing for benches that gate --smoke runs against a
// checked-in BENCH_*.json baseline (bench_hotpath, bench_suite).
// Gates run *before* the suite is written so a run
// whose output path equals the baseline cannot gate against itself.

/**
 * Load a baseline document and verify its shape: a "benchmarks"
 * array of objects, each with a string "name" and a whole "trials"
 * count of at least 1.  Prints the reason to stderr and returns false
 * on failure, so a stale, unreadable or misshapen baseline counts as
 * a gate violation rather than a silent pass.
 */
bool benchLoadBaseline(const std::string &path, JsonValue &doc);

/**
 * Set @p tol to the gate tolerance recorded in the baseline's
 * "context" object, or to @p def when absent — baselines carry their
 * own bands so regenerated documents and gate code cannot drift
 * apart.  A tolerance present but not a number >= 0 prints the reason
 * to stderr and returns false.
 */
bool benchBaselineTolerance(const JsonValue &doc, const std::string &path,
                            const char *key, double def, double &tol);

/** The "benchmarks" entry named @p name, or nullptr. */
const JsonValue *benchBaselineEntry(const JsonValue &doc,
                                    const std::string &name);

/** Slice count for bench machines (28 at full scale, 8 scaled). */
inline unsigned
benchSlices()
{
    return fullScale() ? 28u : 8u;
}

/** Environment index -> noise-profile name, matching the paper rows. */
inline const char *
benchNoiseName(int env)
{
    switch (env) {
      case 0:
        return "quiescent-local";
      case 1:
        return "cloud-run";
      default:
        return "cloud-run-3-5am";
    }
}

/** Environment index -> short display label. */
inline const char *
benchProfileName(int env)
{
    switch (env) {
      case 0:
        return "local";
      case 1:
        return "cloud";
      default:
        return "cloud-3-5am";
    }
}

/**
 * Anonymous Skylake-SP scenario spec for one bench environment —
 * the per-trial worlds benches build via ScenarioRig.
 */
inline ScenarioSpec
benchSpec(int env, unsigned slices, double evset_budget_ms)
{
    ScenarioSpec spec;
    spec.machine = ScenarioMachine::SkylakeSp;
    spec.slices = slices;
    spec.noise = benchNoiseName(env);
    spec.evsetBudgetMs = evset_budget_ms;
    return spec;
}

/** Emit one formatted row to stdout (the "paper table" view). */
inline void
printRow(const char *label, const SuccessRate &sr,
         const StreamingStats &times)
{
    std::printf("  %-28s succ %5.1f%%  avg %10s  med %10s  "
                "std %10s\n",
                label, sr.rate() * 100.0,
                times.empty() ? "-" : formatDuration(times.mean())
                    .c_str(),
                times.empty() ? "-" : formatDuration(times.median())
                    .c_str(),
                times.empty() ? "-" : formatDuration(times.stddev())
                    .c_str());
}

} // namespace llcf

#endif // LLCF_BENCH_BENCH_COMMON_HH

/**
 * @file
 * Environment-variable driven experiment knobs.
 *
 * Benchmarks read scale/seed knobs from the environment, so library
 * code deep inside a trial sees the same settings without threading
 * them through every call.  The bench CLI flags (--seed=, --trials=,
 * --threads=, --json-out=, --full-scale, --counters) only set these
 * variables (benchParseArgs, bench/bench_common.cc):
 *
 *   LLCF_FULL_SCALE=1  run experiments at full paper scale
 *   LLCF_SEED=<n>      base RNG seed
 *   LLCF_TRIALS=<n>    override per-experiment trial counts
 */

#ifndef LLCF_COMMON_OPTIONS_HH
#define LLCF_COMMON_OPTIONS_HH

#include <cstdint>
#include <string>

namespace llcf {

/** Read an environment variable as uint64 with a default. */
std::uint64_t envU64(const char *name, std::uint64_t def);

/** Read an environment variable as double with a default. */
double envDouble(const char *name, double def);

/** Read an environment variable as bool (unset/"0"/"false" => false). */
bool envBool(const char *name, bool def = false);

/** Read an environment variable as string with a default. */
std::string envString(const char *name, const std::string &def);

/**
 * ASCII case-insensitive string equality — for matching user-supplied
 * axis names (replacement policies, pruning algorithms) against their
 * canonical spellings.
 */
bool equalsIgnoreCase(const std::string &a, const std::string &b);

/** True iff LLCF_FULL_SCALE requests full paper-scale experiments. */
bool fullScale();

/**
 * True iff LLCF_COUNTERS asks experiment trials to record the
 * hierarchy PerfCounters as metrics.  Off by default so existing
 * BENCH_*.json outputs keep their exact historical byte content.
 */
bool countersEnabled();

/** Base experiment seed from LLCF_SEED (default 42). */
std::uint64_t baseSeed();

/** Trial count: LLCF_TRIALS if set, otherwise @p def. */
std::size_t trialCount(std::size_t def);

} // namespace llcf

#endif // LLCF_COMMON_OPTIONS_HH

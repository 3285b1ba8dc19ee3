/**
 * @file
 * The audited environment boundary: every getenv in the tree happens
 * here.  The bench CLI flags (--seed=, --trials=, --threads=,
 * --json-out=, --full-scale, --counters) only set the matching
 * variables (benchParseArgs, bench/bench_common.cc).  Every variable,
 * and who reads it:
 *
 *   LLCF_SEED=<n>        base RNG seed; the bench drivers (baseSeed)
 *   LLCF_TRIALS=<n>      per-experiment trial override; the bench
 *                        drivers (trialCount)
 *   LLCF_THREADS=<n>     harness worker count; resolveThreadCount
 *                        (harness/thread_pool.cc), capped at
 *                        kMaxThreads
 *   LLCF_JSON_OUT=<path> output document; writeBenchDocument
 *                        (harness/experiment.cc)
 *   LLCF_FULL_SCALE=1    full paper scale; the bench drivers and the
 *                        document header (fullScale)
 *   LLCF_COUNTERS=1      record "pc_*" metrics; runScenarioTrial
 *                        (countersEnabled)
 *   LLCF_SCALAR_TAGS=1   force the scalar tag scan; cache/tag_scan.hh
 *   LLCF_WS_OFFSETS=<n>  working-set offsets sampled; bench_table4
 *
 * Numeric values must be whole unsigned numbers (decimal, 0x hex or
 * 0 octal); anything else is fatal, never silently read as 0.
 */

#ifndef LLCF_COMMON_OPTIONS_HH
#define LLCF_COMMON_OPTIONS_HH

#include <cstdint>
#include <string>

namespace llcf {

/**
 * Parse @p text as a whole unsigned number (base 0: decimal, 0x hex,
 * 0 octal).  Fatal, naming @p name, on a sign, blanks, trailing
 * characters, an empty string or a value above 2^64 - 1.
 */
std::uint64_t parseU64(const char *name, const char *text);

/** Read an environment variable as uint64 with a default (unset or
 *  empty => @p def); a malformed value is fatal (see parseU64). */
std::uint64_t envU64(const char *name, std::uint64_t def);

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

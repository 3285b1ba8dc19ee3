/**
 * @file
 * Fixed-input layer microbenchmarks and the host-speed probe.
 *
 * Every microbenchmark draws its inputs from positional seeds, so the
 * work is identical on every run; only host time varies.  Repetitions
 * are interleaved across microbenchmarks and each reports the median
 * of its repetitions.
 */

#ifndef LLCF_PERFBENCH_MICRO_HH
#define LLCF_PERFBENCH_MICRO_HH

#include <string>
#include <vector>

namespace llcf::perfbench {

/** One microbenchmark result. */
struct MicroResult
{
    std::string name; //!< per-layer metric name, e.g. "crypto.sign_us"
    std::string unit; //!< "ns" or "us"
    double value = 0.0; //!< median host time per operation
};

/** Run every layer microbenchmark (a few host seconds). */
std::vector<MicroResult> runMicrobenchmarks();

/**
 * A fixed integer kernel that touches no library code: host ms for
 * one pass.  A diagnostic for telling host drift from a regression;
 * never a metric.
 */
double hostSpeedProbeMs();

} // namespace llcf::perfbench

#endif // LLCF_PERFBENCH_MICRO_HH

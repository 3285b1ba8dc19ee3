/**
 * @file
 * Latency/throughput parameters of the modelled memory hierarchy.
 *
 * All values are cycles at 2 GHz, calibrated against the magnitudes the
 * paper reports for a quiescent local Skylake-SP: Table 5 prime/probe
 * latencies, Figure 3 TestEviction durations, and Section 4.3's
 * sequential-vs-parallel gap.  Cloud contention multiplies the shared
 * levels via NoiseProfile::memLatencyMul / memThroughputMul.
 */

#ifndef LLCF_SIM_TIMING_HH
#define LLCF_SIM_TIMING_HH

namespace llcf {

/** Which level of the hierarchy served an access. */
enum class HitLevel { L1, L2, SfTransfer, Llc, Dram };

/**
 * Timing model of one machine.  Latencies are for isolated
 * (dependent) accesses; thr* are the marginal per-line costs when
 * accesses overlap with maximum memory-level parallelism.
 */
struct TimingParams
{
    double l1Hit = 4.0;        //!< L1D hit latency
    double l2Hit = 14.0;       //!< L2 hit latency
    double llcHit = 55.0;      //!< LLC hit (cross-slice average)
    double sfTransfer = 75.0;  //!< SF hit: cache-to-cache transfer
    double dram = 230.0;       //!< memory access latency

    double timedOverhead = 90.0;  //!< lfence+rdtscp pair around a load
    /**
     * Per-link overhead of a page-granular pointer chase: loop code
     * plus the TLB miss / page walk that a random page-per-line chain
     * takes on nearly every step.
     */
    double chaseOverhead = 250.0;
    double clflushCost = 60.0;    //!< one clflush instruction
    double clflushThroughput = 4.0; //!< per-line cost in a flush burst
    double parallelFixed = 12.0;  //!< fixed start-up of an MLP burst

    /** Marginal per-line cost in an overlapped (MLP) burst. */
    double thrL1 = 3.0;
    double thrL2 = 7.7;
    double thrLlc = 11.0;
    double thrDram = 15.8;

    /** Dependent-access latency of @p level (before contention). */
    double
    latency(HitLevel level) const
    {
        switch (level) {
          case HitLevel::L1:
            return l1Hit;
          case HitLevel::L2:
            return l2Hit;
          case HitLevel::SfTransfer:
            return sfTransfer;
          case HitLevel::Llc:
            return llcHit;
          case HitLevel::Dram:
            return dram;
        }
        return dram;
    }

    /** Overlapped marginal cost of @p level (before contention). */
    double
    throughputCost(HitLevel level) const
    {
        switch (level) {
          case HitLevel::L1:
            return thrL1;
          case HitLevel::L2:
            return thrL2;
          case HitLevel::SfTransfer:
            return thrLlc;
          case HitLevel::Llc:
            return thrLlc;
          case HitLevel::Dram:
            return thrDram;
        }
        return thrDram;
    }
};

// Measured-latency classification thresholds an attacker would
// calibrate.  "Measured" includes timedOverhead.

/**
 * Above this, the line was not in the prober's private caches: its SF
 * entry is gone (LLC hit or DRAM).  Between l2Hit and llcHit measured
 * latencies.
 */
constexpr double kPrivateMissThreshold = 135.0;

/**
 * Above this, the line was not even in the LLC (DRAM fetch).  Between
 * llcHit and dram measured latencies, with headroom for cloud
 * contention on the LLC path.
 */
constexpr double kLlcMissThreshold = 290.0;

} // namespace llcf

#endif // LLCF_SIM_TIMING_HH

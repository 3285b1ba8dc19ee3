/**
 * @file
 * Covert-channel evaluation of the monitoring strategies (paper
 * Section 6.1, Table 5 and Figure 6): a sender on another core
 * accesses an agreed SF set at a fixed interval; a receiver monitor
 * reports the fraction of sender accesses it detects within the
 * paper's error bound (kCovertEpsilon = 500 cycles).
 */

#ifndef LLCF_ATTACK_COVERT_HH
#define LLCF_ATTACK_COVERT_HH

#include "attack/monitor.hh"
#include "evset/candidate.hh"

namespace llcf {

/** Detection error bound (paper: 500 cycles). */
constexpr Cycles kCovertEpsilon = 500;

/** Core the sender runs on. */
constexpr unsigned kCovertSenderCore = 2;

/** Covert-channel experiment parameters. */
struct CovertParams
{
    Cycles accessInterval = 10000; //!< sender period
    unsigned accesses = 2000;      //!< sender accesses per experiment
};

/** Covert-channel experiment outcome. */
struct CovertOutcome
{
    double detectionRate = 0.0;
    SampleStats primeLatency;
    SampleStats probeLatency;
};

/**
 * Experimenter utility: pick @p ways pool addresses congruent with
 * @p target using ground truth, bypassing organic construction.
 * Used where the paper evaluates monitors in isolation (the eviction
 * set's existence is a precondition, not the subject).
 */
std::vector<Addr> groundTruthEvictionSet(const Machine &machine,
                                         const CandidatePool &pool,
                                         Addr target, unsigned ways,
                                         unsigned skip = 0);

/**
 * Run one covert-channel experiment.
 *
 * @param session Receiver context.
 * @param kind Monitoring strategy.
 * @param evset SF eviction set for the agreed set.
 * @param alt_evset Second set (PS-Alt only).
 * @param sender_line A line congruent with the agreed set, accessed
 *        by the sender core.
 */
CovertOutcome runCovertExperiment(AttackSession &session,
                                  MonitorKind kind,
                                  std::vector<Addr> evset,
                                  std::vector<Addr> alt_evset,
                                  Addr sender_line,
                                  const CovertParams &params);

/**
 * Fraction of @p sender_times with a detection in
 * (t, t + kCovertEpsilon].
 */
double matchDetections(const std::vector<Cycles> &sender_times,
                       const std::vector<Cycles> &detections);

} // namespace llcf

#endif // LLCF_ATTACK_COVERT_HH

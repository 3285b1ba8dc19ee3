#include "covert.hh"

#include <algorithm>

#include "common/log.hh"

namespace llcf {

std::vector<Addr>
groundTruthEvictionSet(const Machine &machine, const CandidatePool &pool,
                       Addr target, unsigned ways, unsigned skip)
{
    const unsigned target_set = machine.sharedSetOf(target);
    const unsigned line_index = pageLineIndex(target);
    std::vector<Addr> out;
    unsigned skipped = 0;
    for (std::size_t p = 0; p < pool.pages() && out.size() < ways; ++p) {
        const Addr a = pool.at(p, line_index);
        if (a == lineAlign(target))
            continue;
        if (machine.sharedSetOf(a) == target_set) {
            if (skipped < skip) {
                ++skipped;
                continue;
            }
            out.push_back(a);
        }
    }
    if (out.size() < ways)
        fatal("pool too small for a ground-truth eviction set "
              "(found %zu of %u)", out.size(), ways);
    return out;
}

double
matchDetections(const std::vector<Cycles> &sender_times,
                const std::vector<Cycles> &detections)
{
    if (sender_times.empty())
        return 0.0;
    std::size_t hits = 0;
    std::size_t d = 0;
    for (Cycles t : sender_times) {
        while (d < detections.size() && detections[d] <= t)
            ++d;
        if (d < detections.size() && detections[d] <= t + kCovertEpsilon)
            ++hits;
    }
    return static_cast<double>(hits) /
           static_cast<double>(sender_times.size());
}

CovertOutcome
runCovertExperiment(AttackSession &session, MonitorKind kind,
                    std::vector<Addr> evset, std::vector<Addr> alt_evset,
                    Addr sender_line, const CovertParams &params)
{
    Machine &m = session.machine();

    if (params.accesses == 0)
        fatal("covert experiment needs at least one sender access");

    // Schedule the sender's fixed-interval accesses, leaving room for
    // the receiver's initial prime.
    const Cycles start = m.now() + 100000;
    std::vector<Cycles> sender_times(params.accesses);
    for (unsigned i = 0; i < params.accesses; ++i) {
        sender_times[i] = start + static_cast<Cycles>(i) *
                          params.accessInterval;
    }
    const Cycles deadline = sender_times.back() + params.accessInterval;
    const auto stream = m.addStream(kCovertSenderCore, sender_line,
                                    sender_times);

    auto monitor = PrimeProbeMonitor::make(kind, session,
                                           std::move(evset),
                                           std::move(alt_evset));
    CovertOutcome out;
    const std::vector<Cycles> detections =
        monitor->collectTrace(deadline, &out.latency);
    m.removeStream(stream);
    out.detectionRate = matchDetections(sender_times, detections);
    return out;
}

} // namespace llcf

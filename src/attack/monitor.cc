#include "monitor.hh"

#include <algorithm>

#include "common/log.hh"

namespace llcf {

const char *
monitorKindName(MonitorKind kind)
{
    switch (kind) {
      case MonitorKind::Parallel:
        return "Parallel";
      case MonitorKind::PsFlush:
        return "PS-Flush";
      case MonitorKind::PsAlt:
        return "PS-Alt";
    }
    return "?";
}

void
PrimeProbeMonitor::record(SampleStats &stats, Cycles value)
{
    // The paper excludes outliers above 20,000 cycles (interrupts /
    // context switches).
    if (value <= 20000)
        stats.add(static_cast<double>(value));
}

std::vector<Cycles>
PrimeProbeMonitor::collectTrace(Cycles deadline)
{
    Machine &m = session_.machine();
    std::vector<Cycles> detections;
    prime();
    while (m.now() < deadline) {
        const ProbeResult r = probe();
        if (r.detected) {
            detections.push_back(m.now());
            prime();
        }
    }
    return detections;
}

std::unique_ptr<PrimeProbeMonitor>
PrimeProbeMonitor::make(MonitorKind kind, AttackSession &session,
                        std::vector<Addr> evset,
                        std::vector<Addr> alt_evset)
{
    switch (kind) {
      case MonitorKind::Parallel:
        return std::make_unique<ParallelMonitor>(session,
                                                 std::move(evset));
      case MonitorKind::PsFlush:
        return std::make_unique<PsFlushMonitor>(session,
                                                std::move(evset));
      case MonitorKind::PsAlt:
        if (alt_evset.empty())
            fatal("PS-Alt needs a second eviction set");
        return std::make_unique<PsAltMonitor>(session, std::move(evset),
                                              std::move(alt_evset));
    }
    panic("unknown monitor kind");
}

// ------------------------------------------------------ Parallel

ParallelMonitor::ParallelMonitor(AttackSession &session,
                                 std::vector<Addr> evset)
    : PrimeProbeMonitor(session), evset_(std::move(evset))
{
    Machine &m = session_.machine();

    // Calibrate the all-hit probe duration, then set the detection
    // threshold above its spread but below a memory-level miss.
    const BatchSpec stores{BatchOp::Store, true, -1};
    const BatchSpec loads{BatchOp::Load, true, -1};
    m.accessBatch(kMainCore, evset_, stores);
    SampleStats baseline;
    for (int i = 0; i < 16; ++i) {
        m.accessBatch(kMainCore, evset_, stores);
        baseline.add(static_cast<double>(
            m.accessBatch(kMainCore, evset_, loads)));
    }
    threshold_ = std::max(baseline.median() + 120.0,
                          baseline.percentile(90.0) + 60.0);
}

Cycles
ParallelMonitor::prime()
{
    Machine &m = session_.machine();
    // Traverse the eviction set 12 times with overlapped accesses;
    // no replacement-state preparation needed (Section 6.1).
    Cycles total = 0;
    for (int pass = 0; pass < 12; ++pass)
        total += m.accessBatch(kMainCore, evset_, {BatchOp::Store, true, -1});
    record(primeStats_, total);
    return total;
}

PrimeProbeMonitor::ProbeResult
ParallelMonitor::probe()
{
    Machine &m = session_.machine();
    const Cycles d = m.accessBatch(kMainCore, evset_,
                                   {BatchOp::Load, true, -1});
    record(probeStats_, d);
    return {static_cast<double>(d) > threshold_, d};
}

// ------------------------------------------------------- PS-Flush

PsFlushMonitor::PsFlushMonitor(AttackSession &session,
                               std::vector<Addr> evset)
    : PrimeProbeMonitor(session), evset_(std::move(evset))
{
}

Cycles
PsFlushMonitor::prime()
{
    Machine &m = session_.machine();
    // Load, flush, and sequentially reload so the first line ends up
    // as the set's eviction candidate.
    Cycles total = m.accessBatch(kMainCore, evset_, {BatchOp::Load});
    total += m.accessBatch(kMainCore, evset_, {BatchOp::Flush});
    total += m.accessBatch(kMainCore, evset_, {BatchOp::Load});
    record(primeStats_, total);
    return total;
}

PrimeProbeMonitor::ProbeResult
PsFlushMonitor::probe()
{
    Machine &m = session_.machine();
    // Scope: check only whether the EVC is still in the private
    // caches; a hit leaves the set's state untouched.
    const Cycles d = m.probeLoad(kMainCore, evset_.front());
    record(probeStats_, d);
    const bool miss = static_cast<double>(d) > kPrivateMissThreshold;
    return {miss, d};
}

// --------------------------------------------------------- PS-Alt

PsAltMonitor::PsAltMonitor(AttackSession &session,
                           std::vector<Addr> evset,
                           std::vector<Addr> alt_evset)
    : PrimeProbeMonitor(session)
{
    sets_[0] = std::move(evset);
    sets_[1] = std::move(alt_evset);
}

Cycles
PsAltMonitor::prime()
{
    Machine &m = session_.machine();
    // Switch to the other eviction set and prime it with a dependent
    // pointer chase; its lines displace the previous set's entries,
    // leaving the first-chased line as the EVC.
    active_ ^= 1;
    const Cycles total = m.accessBatch(kMainCore, sets_[active_],
                                       {BatchOp::Load});
    record(primeStats_, total);
    return total;
}

PrimeProbeMonitor::ProbeResult
PsAltMonitor::probe()
{
    Machine &m = session_.machine();
    const Cycles d = m.probeLoad(kMainCore, sets_[active_].front());
    record(probeStats_, d);
    const bool miss = static_cast<double>(d) > kPrivateMissThreshold;
    return {miss, d};
}

} // namespace llcf

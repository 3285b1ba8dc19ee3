#include "e2e.hh"

#include "attack/aes_recovery.hh"
#include "common/log.hh"
#include "victim/aes_victim.hh"

namespace llcf {

EndToEndAttack::EndToEndAttack(AttackSession &session, Victim &victim,
                               const TraceClassifier &classifier,
                               const NonceExtractor &extractor,
                               const E2EParams &params)
    : session_(session),
      victim_(victim),
      classifier_(classifier),
      extractor_(extractor),
      params_(params)
{
}

E2EResult
EndToEndAttack::run(const CandidatePool &pool, unsigned scan_requests)
{
    E2EResult res;
    BulkOutcome built = buildEvictionSets(session_, params_, pool,
                                          victim_.targetLineIndex(), res);
    if (!res.evsetsBuilt)
        return res;
    const ScanResult scan = scanForTarget(built.evsets, scan_requests, res);
    if (res.targetFound)
        collectTraces(built.evsets[scan.evsetIndex], res);
    return res;
}

E2EResult
EndToEndAttack::runFromScan(const BuiltEvictionSet &evset)
{
    Machine &m = session_.machine();
    E2EResult res;
    res.evsetsBuilt = true;
    res.targetFound = true;
    res.targetCorrect = m.sharedSetOf(evset.target) ==
                        m.sharedSetOf(victim_.targetLinePa());
    collectTraces(evset, res);
    return res;
}

BulkOutcome
EndToEndAttack::buildEvictionSets(AttackSession &session,
                                  const E2EParams &params,
                                  const CandidatePool &pool,
                                  unsigned line_index, E2EResult &res)
{
    Machine &m = session.machine();
    const Cycles t0 = m.now();
    EvictionSetBuilder builder(session, params.algo, params.useFilter);
    BulkOutcome built = builder.buildAtLineIndex(pool, line_index);
    res.buildTime = m.now() - t0;
    res.evsetsBuilt = !built.evsets.empty();
    return built;
}

ScanResult
EndToEndAttack::scanForTarget(const std::vector<BuiltEvictionSet> &evsets,
                              unsigned requests, E2EResult &res)
{
    // Identify the target SF set while triggering the victim; the
    // scheduled requests keep it serving across the scan.
    Machine &m = session_.machine();
    const Cycles t0 = m.now();
    victim_.serveRequests(m.now(), requests);
    TargetSetScanner scanner(session_, classifier_);
    const ScanResult scan = scanner.scan(evsets);
    res.scanTime = m.now() - t0;
    m.clearStreams();
    res.setsScanned = scan.setsScanned;
    res.targetFound = scan.found;
    res.targetCorrect =
        scan.found && m.sharedSetOf(evsets[scan.evsetIndex].target) ==
                          m.sharedSetOf(victim_.targetLinePa());
    return scan;
}

void
EndToEndAttack::collectTraces(const BuiltEvictionSet &evset,
                              E2EResult &res)
{
    Machine &m = session_.machine();
    const Cycles t0 = m.now();
    // Monitoring extends slightly past the ladder so the closing
    // boundary fetch at ladderEnd is observable; the slack stays
    // below the minimum iteration duration, so no spurious boundary
    // pair can form beyond the ladder.
    const Cycles tail_slack = kExtractMinIteration / 2;
    const bool aes = victim_.config().family == VictimFamily::AesTable;
    AesNibbleRecovery nibbles(victim_.targetLineIndex());
    for (unsigned i = 0; i < params_.tracesPerVictim; ++i) {
        const std::optional<Victim::Execution> served =
            victim_.serveRequest(m.now() + 1000);
        if (!served) {
            // The victim produced no execution (request quota spent,
            // service gone).  Return what was recovered so far as a
            // partial result.
            warn("e2e: victim produced no execution for request "
                 "%u/%u; returning a partial result",
                 i + 1, params_.tracesPerVictim);
            break;
        }
        const Victim::Execution &exec = *served;
        // The attacker monitors from request dispatch to response.
        auto monitor = PrimeProbeMonitor::make(MonitorKind::Parallel,
                                               session_, evset.sfSet);
        if (exec.ladderStart > m.now())
            m.idle(exec.ladderStart - m.now());
        auto detections = monitor->collectTrace(exec.ladderEnd +
                                                tail_slack);
        m.clearStreams();

        ExtractionScore sc;
        if (aes) {
            sc = scoreAesTrace(detections, exec);
            nibbles.addTrace(detections, exec);
        } else {
            auto bits = extractor_.extract(detections);
            sc = extractor_.score(bits, exec);
        }
        ++res.tracesCollected;
        res.recoveredFraction.add(sc.recoveredFraction());
        if (sc.recoveredBits > 0)
            res.bitErrorRate.add(sc.bitErrorRate());
        res.traceRecords.push_back({exec.keyEpoch,
                                    sc.recoveredFraction(),
                                    sc.recoveredBits > 0,
                                    sc.bitErrorRate()});
    }
    if (aes && res.tracesCollected > 0) {
        const auto &victim = static_cast<const AesTableVictim &>(victim_);
        const auto guesses = nibbles.recover();
        res.aesNibblesTotal = static_cast<unsigned>(guesses.size());
        for (const auto &g : guesses) {
            const std::uint8_t truth =
                victim.keyBytes()[g.byteIndex] >> 4;
            res.aesNibblesCorrect += g.nibble == truth;
        }
    }
    res.extractTime = m.now() - t0;
}

ExtractionScore
EndToEndAttack::scoreAesTrace(const std::vector<Cycles> &detections,
                              const Victim::Execution &exec)
{
    // Line-granular leakage: the per-window prediction is simply
    // "was the monitored line touched", compared against the ground
    // truth bit of every window.
    ExtractionScore sc;
    sc.totalBits = exec.bits.size();
    std::size_t cursor = 0;
    for (std::size_t i = 0; i + 1 < exec.iterationStarts.size(); ++i) {
        const Cycles lo = exec.iterationStarts[i];
        const Cycles hi = exec.iterationStarts[i + 1];
        while (cursor < detections.size() && detections[cursor] < lo)
            ++cursor;
        const bool predicted =
            cursor < detections.size() && detections[cursor] < hi;
        ++sc.recoveredBits;
        sc.bitErrors += predicted != (exec.bits[i] != 0);
    }
    return sc;
}

unsigned
EndToEndAttack::scanRequestCount(const Victim &victim,
                                 const ScannerParams &scanner)
{
    const double scan_sec = cyclesToSec(scanner.timeout);
    if (victim.config().arrival.active()) {
        // Open loop: the arrival process, not the service time,
        // decides how many requests land in the scan window.
        const double expected =
            victim.config().arrival.ratePerSec * scan_sec;
        return std::max<unsigned>(
            4, static_cast<unsigned>(expected * 1.2) + 2);
    }
    return std::max<unsigned>(
        4, static_cast<unsigned>(
               scan_sec /
               cyclesToSec(victim.expectedRequestCycles(
                   victim.expectedIterations())) * 1.2) +
               2);
}

} // namespace llcf

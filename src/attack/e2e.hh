/**
 * @file
 * The end-to-end cross-tenant attack (paper Section 7.3): build
 * eviction sets at the target page offset (Step 1), identify the
 * target SF set with the PSD scanner (Step 2), then monitor it across
 * repeated victim signings and extract nonce bits (Step 3).
 */

#ifndef LLCF_ATTACK_E2E_HH
#define LLCF_ATTACK_E2E_HH

#include "attack/extractor.hh"
#include "attack/scanner.hh"

namespace llcf {

/** End-to-end attack parameters. */
struct E2EParams
{
    PruneAlgo algo = PruneAlgo::BinS;
    bool useFilter = true;
    unsigned tracesPerVictim = 10; //!< signings monitored (paper: 10)
    ScannerParams scanner{};
};

/** End-to-end attack outcome. */
struct E2EResult
{
    bool evsetsBuilt = false;
    bool targetFound = false;   //!< the scanner returned a set
    bool targetCorrect = false; //!< ... and it is the true target set

    /**
     * Signings actually monitored in Step 3.  May fall short of
     * E2EParams::tracesPerVictim when the victim stops producing
     * executions (e.g. its request quota runs out); the result is
     * then partial, never invalid.
     */
    unsigned tracesCollected = 0;

    Cycles buildTime = 0;
    Cycles scanTime = 0;
    Cycles extractTime = 0;

    unsigned setsScanned = 0; //!< Step 2: sets the scanner probed

    Cycles
    totalTime() const
    {
        return buildTime + scanTime + extractTime;
    }

    /** Per-trace recovered fraction of nonce bits. */
    SampleStats recoveredFraction;
    /** Per-trace bit error rate among recovered bits. */
    SampleStats bitErrorRate;

    /** One monitored trace's scores, tagged with its key epoch so
        rotation campaigns can re-group per epoch (DESIGN.md §11). */
    struct TraceRecord
    {
        unsigned keyEpoch = 0;
        double recoveredFraction = 0.0;
        bool hasBitErrorRate = false;
        double bitErrorRate = 0.0;
    };

    /** Per-trace records in collection order. */
    std::vector<TraceRecord> traceRecords;

    /** AES family: key-byte upper nibbles scored (0 or 4). */
    unsigned aesNibblesTotal = 0;
    /** AES family: ... of which match the true key. */
    unsigned aesNibblesCorrect = 0;
};

/**
 * Orchestrates the full attack against one victim.
 *
 * The classifier and extractor are trained offline (on hosts the
 * attacker controls) and passed in ready to use, as in the paper.
 */
class EndToEndAttack
{
  public:
    EndToEndAttack(AttackSession &session, Victim &victim,
                   const TraceClassifier &classifier,
                   const NonceExtractor &extractor,
                   const E2EParams &params = {});

    /**
     * Run Steps 1-3.  @p pool provides the attacker's candidate
     * pages.  The victim is triggered by the attack itself (the
     * attacker can send requests to the victim service):
     * @p scan_requests victim requests keep it signing across the
     * Step-2 scan window (scanRequestCount sizes them).  Each step
     * runs only when the previous one succeeded; with
     * E2EParams::tracesPerVictim == 0 the attack stops after Step 2.
     */
    E2EResult run(const CandidatePool &pool, unsigned scan_requests);

    /**
     * Run Step 3 only, against an eviction set already identified by a
     * previous scan.  This is the forked-victim path of fleet
     * campaigns: when every victim in the fleet maps its target at the
     * same line index and the machine world is restored from the
     * post-scan snapshot, Steps 1-2 are valid fleet-wide and each
     * additional key costs only the monitoring loop.  The returned
     * result has zero build/scan time and re-derives targetCorrect
     * against *this* victim's target line.
     */
    E2EResult runFromScan(const BuiltEvictionSet &evset);

    /**
     * Step 1: eviction sets for every SF set at page line
     * @p line_index (the attacker knows the library layout, Section
     * 7.1).  Sets @p res's buildTime and evsetsBuilt.  Static because
     * a fleet's forked warm-up builds before any victim exists.
     */
    static BulkOutcome buildEvictionSets(AttackSession &session,
                                         const E2EParams &params,
                                         const CandidatePool &pool,
                                         unsigned line_index,
                                         E2EResult &res);

    /**
     * Step 2: serve @p requests victim requests and scan @p evsets for
     * the victim's target SF set.  Sets @p res's scanTime,
     * setsScanned, targetFound and targetCorrect; the returned scan
     * names the set found.
     */
    ScanResult scanForTarget(const std::vector<BuiltEvictionSet> &evsets,
                             unsigned requests, E2EResult &res);

    /**
     * Requests Step 2 schedules to keep @p victim signing across the
     * scan window, sized from the scanner timeout and the victim's
     * expected request duration.  Exposed so quota sizing (tests,
     * campaign specs) shares the attack's own arithmetic.
     */
    static unsigned scanRequestCount(const Victim &victim,
                                     const ScannerParams &scanner);

  private:
    /** Step 3, the monitoring/extraction loop shared by both entry
     *  points; accumulates traces and extractTime into @p res. */
    void collectTraces(const BuiltEvictionSet &evset, E2EResult &res);

    /** AES family: per-window line-touch prediction vs ground truth. */
    static ExtractionScore scoreAesTrace(
        const std::vector<Cycles> &detections,
        const Victim::Execution &exec);

    AttackSession &session_;
    Victim &victim_;
    const TraceClassifier &classifier_;
    const NonceExtractor &extractor_;
    E2EParams params_;
};

} // namespace llcf

#endif // LLCF_ATTACK_E2E_HH

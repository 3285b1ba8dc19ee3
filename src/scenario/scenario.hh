/**
 * @file
 * Named end-to-end attack scenarios.
 *
 * A scenario is one point in the experiment matrix the paper sweeps
 * by hand: a host microarchitecture, a shared-cache replacement
 * policy, an environment noise profile, a pruning algorithm and
 * attacker knobs, plus a pipeline-stage selector choosing how deep
 * into the attack the scenario drives (eviction-set construction
 * only, PSD scanning, or the full nonce-recovery attack).
 *
 * Scenarios execute on the deterministic experiment harness: every
 * trial builds its whole world (machine, attacker session, candidate
 * pool, victim) from its positional RNG stream, so a scenario's
 * aggregate — and its BENCH_scenarios.json serialisation — is
 * byte-identical at any worker-thread count.
 */

#ifndef LLCF_SCENARIO_SCENARIO_HH
#define LLCF_SCENARIO_SCENARIO_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "attack/e2e.hh"
#include "calib/prober.hh"
#include "defense/defense.hh"
#include "evset/builder.hh"
#include "harness/experiment.hh"
#include "noise/profile.hh"

namespace llcf {

/** How deep into the attack pipeline a scenario drives. */
enum class ScenarioStage
{
    EvsetBuild, //!< Step 1 only: one SF eviction set per trial
    Scan,       //!< Steps 1-2: bulk build + PSD target-set scan
    EndToEnd,   //!< Steps 1-3: full EndToEndAttack with extraction
    Campaign,   //!< Steps 1-3 against a whole victim fleet (one
                //!< victim world per harness trial; see src/campaign/)
    Calibrate,  //!< Step 0 only: blind topology calibration, gated on
                //!< per-field accuracy vs the oracle (see src/calib/)
};

/** Human-readable stage name. */
const char *scenarioStageName(ScenarioStage stage);

/**
 * The bench suite a cell belongs to (bench_suite --suite=<name>).
 * Derived from the spec by scenarioSuite(), never declared, so a new
 * cell lands in exactly one suite and one committed baseline.
 */
enum class ScenarioSuite
{
    Scenarios, //!< the single-victim matrix (Steps 1-3, no axis set)
    E2e,       //!< victim-fleet campaigns (BENCH_e2e.json)
    FullScale, //!< fullScaleOnly campaigns (e2e under --full-scale)
    Calib,     //!< Step-0 blind calibration (BENCH_calib.json)
    Defense,   //!< any cell deploying or measuring a defense
    Traffic,   //!< any cell setting a traffic-axis knob
};

/** The suite's JSON "bench" name, which --suite= also spells (the
 *  fullscale tier is reached as --suite=e2e --full-scale). */
const char *scenarioSuiteName(ScenarioSuite suite);

/**
 * A bound a cell declares on one of its own series: the regime it
 * expects (the attack succeeds, the attack dies, or it degrades to an
 * explicit scored miss).  bench_suite checks it on every run, with or
 * without a baseline, so "defense wins" and "attack broken" can never
 * look alike.  A missing series always fails.
 */
struct ScenarioExpectation
{
    /** Which aggregate the bound applies to. */
    enum class Series { OutcomeRate, MetricMean };

    /** The comparison the value must satisfy against the bound. */
    enum class Cmp { Below, AtMost, AtLeast, Above };

    Series kind = Series::OutcomeRate;
    std::string name; //!< outcome/metric name; empty = none declared
    Cmp cmp = Cmp::AtLeast;
    double bound = 0.0;
    std::string reason; //!< what a violation means, for the report

    bool declared() const { return !name.empty(); }
};

/** Host selector, kept symbolic so specs stay declarative. */
enum class ScenarioMachine { SkylakeSp, IceLakeSp, ScaledSkylake, TinyTest };

/** Human-readable machine-kind name. */
const char *scenarioMachineName(ScenarioMachine machine);

/**
 * Full declarative description of one scenario: the registry key
 * plus everything needed to rebuild its world from a trial seed.
 */
struct ScenarioSpec
{
    std::string name;        //!< registry key, e.g. "build-bins-skl-lru-cloud"
    std::string description; //!< one-line intent, shown by --list

    // ------------------------------------------------- matrix axes
    ScenarioMachine machine = ScenarioMachine::TinyTest; //!< host kind
    unsigned slices = 2;                  //!< host slice count
    ReplKind sharedRepl = ReplKind::LRU;  //!< LLC + SF policy
    std::string noise = "quiescent-local"; //!< NoiseProfile name
    PruneAlgo algo = PruneAlgo::BinS;     //!< Step-1 pruning algorithm
    bool useFilter = true; //!< L2-driven candidate filtering
    ScenarioStage stage = ScenarioStage::EvsetBuild; //!< pipeline depth

    /** Host-side defense deployed against the attacker (the defense
     *  axis; see src/defense/).  Default = undefended host. */
    DefenseSpec defense;

    // --------------------------------------------- attacker knobs
    double evsetBudgetMs = 100.0; //!< per-set construction budget
    double candidateFactor = 3.0; //!< pool size factor (N = f*U*W)

    // --------------------------------------------- stage-specific
    unsigned tracesPerVictim = 2;    //!< EndToEnd: signings monitored
    unsigned trainTargetTraces = 20; //!< Scan/EndToEnd: classifier
    unsigned trainNontargetTraces = 40;
    double scanTimeoutSec = 10.0;    //!< Scan/EndToEnd scanner timeout

    // --------------------------------------- campaign (Stage::Campaign)
    // A campaign runs a fleet of victim services — one per harness
    // trial — through the full Step 1-3 pipeline.  Victims differ
    // positionally: victim v gets its own RNG streams (and therefore
    // its own ECDSA key), its own target page offset, and its noise
    // profile from the rotation below.

    /** Victims in the fleet (the campaign's defaultTrials). */
    unsigned fleetSize = 4;

    /** Per-victim noise rotation; empty = every victim uses noise. */
    std::vector<std::string> fleetNoises;

    /** Victim v's target page-line index: fleetLineIndex(v). */
    unsigned fleetLineIndexBase = 21;
    unsigned fleetLineIndexStep = 13;

    /** (fleetLineIndexBase + fleetLineIndexStep * v) % 64. */
    unsigned
    fleetLineIndex(std::size_t v) const
    {
        return static_cast<unsigned>(
            (fleetLineIndexBase +
             static_cast<std::uint64_t>(fleetLineIndexStep) * v) %
            kLinesPerPage);
    }

    /** Per-victim request quota (0 = unlimited); see VictimConfig. */
    std::uint64_t victimRequestQuota = 0;

    /**
     * Fork victims from a warmed-world snapshot instead of rebuilding
     * the whole world per trial: each campaign worker builds ONE
     * world (machine, session, classifier, Step-1 eviction sets, the
     * one-time Step-2 scan), snapshots it, and every victim trial
     * restores the snapshot and runs only the Step-3 monitoring loop
     * against its own key.  This is what makes >= 10^5-victim fleets
     * tractable.  Requires a uniform fleet — fleetLineIndexStep == 0
     * and no fleetNoises rotation — so the scanned eviction set is
     * valid for every victim (fatal otherwise).
     */
    bool forkVictims = false;

    /** Paper-scale campaign: belongs to the full-scale tier that
     *  bench_suite --suite=e2e runs only under --full-scale. */
    bool fullScaleOnly = false;

    /** A victim's key counts as recovered iff the correct SF set was
     *  monitored and the mean recovered fraction / bit error rate of
     *  its traces clear these bands.  With key rotation the same
     *  bands apply per epoch (DESIGN.md §11). */
    double keyMinRecoveredFraction = 0.35;
    double keyMaxBitErrorRate = 0.35;

    // ------------------------------------------------ traffic axis
    // Heavy-traffic realism: which service family the victim runs,
    // open-loop offered load, mid-campaign key rotation, and the
    // scanner's adaptive budget allocation.  All default-off so
    // every pre-existing cell keeps its serialized bytes.

    /** Victim service family (ECDSA ladder or T-table AES). */
    VictimFamily victimFamily = VictimFamily::EcdsaLadder;

    /** Open-loop victim request arrivals (inactive = closed loop). */
    ArrivalSpec victimArrival;

    /** Co-tenant services emitting pinned offered load (0 = none). */
    unsigned coTenants = 0;

    /** Per-co-tenant mean arrival rate (requests per second). */
    double coTenantRps = 0.0;

    /** Victim requests per key epoch (0 = never rotate). */
    std::uint64_t rotateKeys = 0;

    /** Scanner uses UCB bandit budget allocation (Step 2). */
    bool adaptiveScan = false;

    /** True iff any traffic-axis knob is set; such cells belong to
     *  the traffic suite (see scenarioSuite()). */
    bool
    trafficDomain() const
    {
        return victimFamily != VictimFamily::EcdsaLadder ||
               victimArrival.active() || coTenants > 0 ||
               rotateKeys > 0 || adaptiveScan;
    }

    // ------------------------------------ Step 0 (Stage::Calibrate
    // scenarios, and any stage with blindTopology set)

    /**
     * Blind-topology mode: the attacker session starts with *no*
     * shared-cache geometry (consulting it pre-calibration is fatal),
     * sizes its candidate pool from the assumed bounds below, and
     * runs the Step-0 TopologyProber before its attack stages.
     * Stage Calibrate implies blind and stops after Step 0; every
     * other stage calibrates first and records the calibration
     * outcomes alongside its own, with a failed Step 0 degrading to
     * explicit failure outcomes.  A blind Campaign additionally
     * charges the calibration cycles to the per-key cost.
     */
    bool blindTopology = false;

    double calibBudgetMs = 400.0; //!< Step-0 virtual-time budget
    unsigned calibTargets = 2;    //!< independent calibration targets
    unsigned calibSamplePages = 160; //!< U-estimator scan window

    /** Blind pool-sizing priors (see requiredPagesBlind): upper
     *  bounds the attacker assumes for U and W before measuring. */
    unsigned assumedMaxUncertainty = 96;
    unsigned assumedMaxWays = 14;

    std::size_t defaultTrials = 4; //!< trials when the caller passes 0

    /** The cell's declared regime bound (none by default). */
    ScenarioExpectation expect;

    /** Instantiate the host config (slices + shared policy applied). */
    MachineConfig machineConfig() const;

    /** Resolve the noise profile; fatal on an unknown name. */
    NoiseProfile noiseProfile() const;

    /** True iff the attacker session must start without geometry
     *  (Stage::Calibrate always does; other stages opt in). */
    bool
    blind() const
    {
        return blindTopology || stage == ScenarioStage::Calibrate;
    }

    /** The Step-0 prober configuration this spec implies. */
    CalibrationConfig calibrationConfig() const;

    /** The Steps 1-3 attack parameters this spec implies. */
    E2EParams attackParams() const;
};

/**
 * The one suite @p spec belongs to: defense cells first, then
 * traffic cells, then by stage (campaigns split by fullScaleOnly,
 * calibrations, and the single-victim matrix for the rest).
 */
ScenarioSuite scenarioSuite(const ScenarioSpec &spec);

/**
 * Check @p entry -- the cell's "benchmarks" entry in a suite JSON
 * document -- against @p expect.  True when nothing is declared or
 * the bound holds; otherwise false, with the violation written to
 * @p why.  A missing or null series fails.
 */
bool meetsExpectation(const ScenarioExpectation &expect,
                      const JsonValue &entry, std::string *why);

/**
 * One trial's world, rebuilt per trial from the spec and the trial's
 * stream seed: machine, attacker session, candidate pool.  Machine,
 * attacker and victim randomness are derived positionally from the
 * seed, so two rigs from the same (spec, seed) are identical.
 */
struct ScenarioRig
{
    ScenarioRig(const ScenarioSpec &spec, std::uint64_t seed);

    /** Seed for this trial's victim service and co-tenant load: the
     *  Scan and EndToEnd victim itself; a campaign's production
     *  victim and training replica on the sub-streams below. */
    std::uint64_t victimSeed() const { return victimSeed_; }

    Machine machine; //!< this trial's simulated host

    /** Attacker context; starts blind iff spec.blind(). */
    std::unique_ptr<AttackSession> session;

    std::unique_ptr<CandidatePool> pool; //!< attacker candidate pages

  private:
    std::uint64_t victimSeed_ = 0;
};

/** Sub-streams of a campaign rig's victimSeed(), shared by the
 *  rebuild and fork paths: the production victim and the
 *  attacker-side replica the classifier trains on. */
constexpr std::uint64_t kProductionVictimStream = 0;
constexpr std::uint64_t kTrainingReplicaStream = 1;

/**
 * Execute one trial of @p spec as one staged pipeline: the rig, Step 0
 * if spec.blind(), then the victim, watchdog, classifier and load,
 * then Steps 1-3 -- stopping at spec.stage.  Each stage records its
 * series (see recordStageSeries):
 *
 *  - Calibrate: the Step-0 series only (see recordCalibration)
 *  - EvsetBuild: outcome "success"; metrics "build_cycles", "attempts"
 *  - Scan: outcomes "evsets_built", "target_found", "target_correct";
 *    metrics "build_cycles", "scan_cycles", "sets_scanned"
 *  - EndToEnd: the scan outcomes; metrics "build_cycles",
 *    "scan_cycles", "extract_cycles", "total_cycles", the per-trace
 *    "recovered_fraction" / "bit_error_rate" samples, and for the AES
 *    family "aes_nibbles_total" / "aes_nibbles_correct"
 *  - Campaign: the scan outcomes plus "key_recovered" (and under key
 *    rotation the per-epoch "epoch_key_recovered" outcomes and
 *    "traffic_epochs" / "traffic_epoch_keys" metrics); the EndToEnd
 *    cycle metrics plus "traces_collected" and the per-trace samples
 *
 * A trial that stops early -- a failed Step 0, an empty Step 1, a scan
 * that finds nothing -- records the same outcome and metric names as
 * a full run, as explicit false / 0 (per-trace samples are absent: no
 * trace was taken).  A blind trial also records the Step-0 series
 * first; axis cells add "def_*" and "traffic_*"; campaigns always
 * record "pc_*", other stages only under LLCF_COUNTERS.
 *
 * Uses only @p ctx state — never ambient randomness — so the harness
 * determinism contract holds.
 */
void runScenarioTrial(const ScenarioSpec &spec, TrialContext &ctx,
                      TrialRecorder &rec);

/** What a trial's stages produced; a stage that never ran keeps the
 *  defaults, which record as explicit false / 0. */
struct StageResults
{
    BuildOutcome single;    //!< EvsetBuild's one eviction set
    E2EResult attack;       //!< Steps 1-3 against the victim
    Cycles calibCycles = 0; //!< Step 0, charged into total_cycles
};

/** Record @p r under spec.stage's outcome and metric names, in the
 *  order runScenarioTrial documents. */
void recordStageSeries(const ScenarioSpec &spec, const StageResults &r,
                       TrialRecorder &rec);

/**
 * Run @p spec on the experiment harness.
 *
 * @param trials 0 = spec.defaultTrials.
 * @param threads 0 = LLCF_THREADS / hardware concurrency.
 * @param masterSeed Root of the per-trial RNG streams.
 */
ExperimentResult runScenario(const ScenarioSpec &spec,
                             std::size_t trials = 0, unsigned threads = 0,
                             std::uint64_t masterSeed = 42);

/**
 * Train the PSD trace classifier the way the paper does — offline,
 * on a controlled victim instance of the same host class — using the
 * rig's session, pool and the scenario's training-trace counts.
 * Campaign trials train on an attacker-side replica victim, so the
 * production victim's request quota stays untouched.
 */
TraceClassifier trainScenarioClassifier(const ScenarioSpec &spec,
                                        ScenarioRig &rig,
                                        Victim &victim);

/**
 * Run Step 0 for a blind rig: probe the topology with the spec's
 * calibration knobs and, when the result is valid, adopt it into the
 * rig's session so the attack stages can proceed.  Fatal when called
 * on a non-blind rig (the session already has oracle geometry — the
 * calibration would silently measure nothing new).
 */
CalibratedTopology runScenarioCalibration(const ScenarioSpec &spec,
                                          ScenarioRig &rig);

/**
 * Record a calibration's outcomes/metrics under the canonical names:
 * outcome "calibrated" plus one "<field>_match" per report field and
 * "topology_match" for the conjunction; metrics "calib_cycles",
 * "calib_test_evictions", "calib_confidence" and the measured
 * geometry fields.
 */
void recordCalibration(TrialRecorder &rec,
                       const CalibratedTopology &calib,
                       const CalibrationReport &report);

/**
 * Record one trial's hierarchy PerfCounters under the canonical
 * "pc_*" metric names (accesses, hit/miss split, LLC/SF evictions,
 * coherence downgrades, simulated cycles and cycles-per-access).
 * Scenario trials call this when LLCF_COUNTERS is set (see
 * countersEnabled()); bench_hotpath records them unconditionally.
 */
void recordPerfCounters(TrialRecorder &rec, const PerfCounters &pc);

/**
 * Record one trial's defense event totals under the canonical
 * "def_*" metric names (re-keys, lines remapped, watchdog
 * probe/miss/fire counts plus the windowed self-miss rate), and —
 * when @p working_set is non-null and non-empty — the fraction of
 * those victim lines still cached anywhere ("def_victim_resident":
 * the residency cost re-keying and partition pressure impose on the
 * victim's own working set).  runScenarioTrial calls this iff
 * spec.defense.recordsMetrics(), so undefended cells keep their
 * serialized shape byte-identical.
 */
void recordDefenseMetrics(TrialRecorder &rec, const Machine &machine,
                          const std::vector<Addr> *working_set);

/**
 * Arm the machine's self-eviction watchdog on @p victim's working set
 * (target + decoy lines) iff the machine deploys one.  Called by the
 * victim-bearing stages right after victim construction so the
 * watchdog observes the whole attack window.
 */
void maybeArmScenarioWatchdog(Machine &machine, const Victim &victim);

/**
 * Build the trial's victim from the spec's traffic axis: family,
 * open-loop arrival spec, and rotation interval applied on top of
 * the caller's line index / quota / seed.  Pre-traffic cells hit the
 * identical EcdsaLadderVictim construction path.
 */
std::unique_ptr<Victim> makeScenarioVictim(const ScenarioSpec &spec,
                                           Machine &machine,
                                           std::uint64_t seed,
                                           unsigned line_index,
                                           std::uint64_t quota);

/**
 * Register the spec's co-tenant offered load as pinned machine
 * streams spanning the remainder of the trial (no-op returning null
 * when spec.coTenants == 0).  Call after classifier training —
 * training is offline on attacker-controlled hosts — and before
 * Step 1, so build, scan and monitor all contend with the load.
 */
std::unique_ptr<CoTenantLoad> makeScenarioLoad(const ScenarioSpec &spec,
                                               Machine &machine,
                                               std::uint64_t seed);

/**
 * Record the traffic axis's per-trial metrics (traffic_* series) iff
 * spec.trafficDomain(): offered rate, arrivals served, mean queue
 * delay, scheduled co-tenant accesses.  Keeps non-traffic cells'
 * serialized shape untouched.
 */
void maybeRecordTraffic(const ScenarioSpec &spec, TrialRecorder &rec,
                        const Victim &victim, const CoTenantLoad *load);

} // namespace llcf

#endif // LLCF_SCENARIO_SCENARIO_HH

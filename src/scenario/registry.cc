#include "registry.hh"

#include <string>
#include <utility>

#include "common/log.hh"

namespace llcf {
namespace {

/** Short noise key used in scenario names -> profile name. */
const char *
noiseFor(const char *key)
{
    const std::string k(key);
    if (k == "local")
        return "quiescent-local";
    if (k == "cloud")
        return "cloud-run";
    if (k == "quiet")
        return "cloud-run-3-5am";
    if (k == "silent")
        return "silent";
    fatal("unknown noise key '%s'", key);
}

/** Spec skeleton shared by the scenario families below. */
ScenarioSpec
base(const char *name, const char *description, ScenarioStage stage,
     ScenarioMachine machine, unsigned slices, ReplKind repl,
     const char *noise_key, PruneAlgo algo)
{
    ScenarioSpec s;
    s.name = name;
    s.description = description;
    s.stage = stage;
    s.machine = machine;
    s.slices = slices;
    s.sharedRepl = repl;
    s.noise = noiseFor(noise_key);
    s.algo = algo;
    return s;
}

/**
 * Campaign skeleton: full Step 1-3 fleets keep the per-victim cost in
 * check with the lighter classifier-training budget and scan timeout
 * the timing probes validated (recovery rates are unchanged).
 */
ScenarioSpec
campaignBase(const char *name, const char *description,
             ScenarioMachine machine, unsigned slices, ReplKind repl,
             const char *noise_key, unsigned fleet)
{
    ScenarioSpec s = base(name, description, ScenarioStage::Campaign,
                          machine, slices, repl, noise_key,
                          PruneAlgo::BinS);
    s.fleetSize = fleet;
    s.defaultTrials = fleet;
    s.trainTargetTraces = 10;
    s.trainNontargetTraces = 20;
    s.scanTimeoutSec = 3.0;
    return s;
}

/**
 * Defense e2e matrix skeleton: a full Step 1-3 attack on the tiny
 * host.  Defended cells time out instead of completing: a blocked
 * eviction signal burns the whole scan timeout per training trace and
 * per scanned set, and a partition burns the whole per-set
 * construction budget for every set in the scan group, so the
 * undefended ~ms budgets are trimmed hard (still >10x headroom over
 * the observed undefended costs) and training is kept to a dozen
 * traces — the same knobs on every cell of the matrix, baseline row
 * included, so overheads stay comparable.
 */
ScenarioSpec
defenseE2eBase(const char *name, const char *description)
{
    ScenarioSpec s = base(name, description, ScenarioStage::EndToEnd,
                          ScenarioMachine::TinyTest, 2, ReplKind::LRU,
                          "silent", PruneAlgo::BinS);
    s.defaultTrials = 2;
    s.scanTimeoutSec = 0.1;
    s.evsetBudgetMs = 1.0;
    s.trainTargetTraces = 6;
    s.trainNontargetTraces = 12;
    return s;
}

/**
 * Calibration skeleton: Step-0-only scenarios measuring blind
 * topology recovery accuracy and cost (the calib suite).
 */
ScenarioSpec
calibBase(const char *name, const char *description,
          ScenarioMachine machine, unsigned slices, ReplKind repl,
          const char *noise_key)
{
    ScenarioSpec s = base(name, description, ScenarioStage::Calibrate,
                          machine, slices, repl, noise_key,
                          PruneAlgo::BinS);
    s.defaultTrials = 2;
    // At the full-size hosts' U=64 a 160-page window yields too few
    // congruence hits for a stable estimate; membership tests are
    // cheap (two short TestEvictions each), so scan wider.
    s.calibSamplePages = 896;
    return s;
}

ScenarioRegistry
makeBuiltins()
{
    using M = ScenarioMachine;
    using R = ReplKind;
    using A = PruneAlgo;
    using St = ScenarioStage;
    using Ex = ScenarioExpectation;
    ScenarioRegistry reg;

    // ---- Eviction-set construction across hosts, policies, noise.
    reg.add(base("build-gt-skl-lru-local",
                 "Group testing on quiescent Skylake-SP (Table 3 row)",
                 St::EvsetBuild, M::SkylakeSp, 4, R::LRU, "local",
                 A::Gt));
    // Stress cell: at the 11/12-way Skylake geometry a Tree-PLRU
    // LLC/SF defeats single-pass traversal, so no build succeeds (0 of
    // 4 trials at seed 42) — declared: the attack dies.
    {
        ScenarioSpec s = base(
            "build-gtop-skl-plru-cloud",
            "Stress: optimised group testing vs Tree-PLRU LLC/SF",
            St::EvsetBuild, M::SkylakeSp, 4, R::TreePLRU, "cloud",
            A::GtOp);
        s.expect = {Ex::Series::OutcomeRate, "success", Ex::Cmp::AtMost,
                    0.0,
                    "group testing built an eviction set against a "
                    "Tree-PLRU LLC/SF; the stress cell no longer "
                    "documents the collapse"};
        reg.add(s);
    }
    reg.add(base("build-ps-skl-srrip-local",
                 "Prime+Scope pruning under SRRIP on a quiet host",
                 St::EvsetBuild, M::SkylakeSp, 4, R::SRRIP, "local",
                 A::Ps));
    // Stress cell: single-pass eviction-set traversal rarely displaces
    // the target under random replacement, so construction mostly
    // fails (1 of 4 trials succeeds at seed 42) — declared: degraded,
    // at most one build in four.
    {
        ScenarioSpec s = base(
            "build-psop-skl-random-cloud",
            "Stress: recharging Prime+Scope vs a Random LLC/SF",
            St::EvsetBuild, M::SkylakeSp, 4, R::Random, "cloud",
            A::PsOp);
        s.expect = {Ex::Series::OutcomeRate, "success", Ex::Cmp::AtMost,
                    0.25,
                    "recharging Prime+Scope succeeds in more than one "
                    "build in four against a Random LLC/SF; the stress "
                    "cell no longer documents the degradation"};
        reg.add(s);
    }
    reg.add(base("build-bins-skl-lru-cloud",
                 "Binary-search pruning on Cloud Run (Table 4 row)",
                 St::EvsetBuild, M::SkylakeSp, 4, R::LRU, "cloud",
                 A::BinS));
    reg.add(base("build-bins-skl-lru-quiet",
                 "Binary-search pruning in the 3-5 am quiet hours",
                 St::EvsetBuild, M::SkylakeSp, 4, R::LRU, "quiet",
                 A::BinS));
    reg.add(base("build-gt-icx-lru-cloud",
                 "Group testing on Ice Lake-SP (Section 5.3.2 host)",
                 St::EvsetBuild, M::IceLakeSp, 4, R::LRU, "cloud",
                 A::Gt));
    reg.add(base("build-bins-icx-lru-local",
                 "Binary-search pruning on a quiescent Ice Lake-SP",
                 St::EvsetBuild, M::IceLakeSp, 4, R::LRU, "local",
                 A::BinS));

    // ---- Deterministic regression anchors (tight tolerance bands).
    {
        ScenarioSpec s = base(
            "build-bins-tiny-lru-silent",
            "Regression anchor: BinS on the tiny machine, zero noise",
            St::EvsetBuild, M::TinyTest, 2, R::LRU, "silent", A::BinS);
        s.defaultTrials = 6;
        reg.add(s);
    }
    {
        ScenarioSpec s = base(
            "build-bins-sklscaled-lru-local",
            "Regression anchor: BinS on a 2-slice scaled Skylake",
            St::EvsetBuild, M::ScaledSkylake, 2, R::LRU, "local",
            A::BinS);
        s.defaultTrials = 3;
        reg.add(s);
    }

    // ---- Scanner stage: PSD target-set identification.
    {
        ScenarioSpec s = base(
            "scan-bins-tiny-lru-local",
            "PSD scan finds the victim's SF set on a quiet tiny host",
            St::Scan, M::TinyTest, 2, R::LRU, "local", A::BinS);
        s.defaultTrials = 3;
        s.scanTimeoutSec = 3.0;
        reg.add(s);
    }
    {
        ScenarioSpec s = base(
            "scan-bins-tiny-srrip-silent",
            "PSD scan with an SRRIP-managed LLC/SF, zero noise",
            St::Scan, M::TinyTest, 2, R::SRRIP, "silent", A::BinS);
        s.defaultTrials = 3;
        s.scanTimeoutSec = 3.0;
        reg.add(s);
    }
    {
        ScenarioSpec s = base(
            "scan-bins-tiny-plru-silent",
            "PSD scan with a Tree-PLRU LLC/SF, zero noise",
            St::Scan, M::TinyTest, 2, R::TreePLRU, "silent", A::BinS);
        s.defaultTrials = 3;
        s.scanTimeoutSec = 3.0;
        reg.add(s);
    }

    // ---- Full end-to-end nonce recovery.
    {
        ScenarioSpec s = base(
            "e2e-bins-tiny-lru-silent",
            "Full attack recovers nonce bits on the tiny machine",
            St::EndToEnd, M::TinyTest, 2, R::LRU, "silent", A::BinS);
        s.defaultTrials = 2;
        s.scanTimeoutSec = 3.0;
        reg.add(s);
    }
    {
        ScenarioSpec s = base(
            "e2e-gt-tiny-srrip-local",
            "Full attack via group testing under SRRIP replacement",
            St::EndToEnd, M::TinyTest, 2, R::SRRIP, "local", A::Gt);
        s.defaultTrials = 2;
        s.scanTimeoutSec = 3.0;
        reg.add(s);
    }

    // ---- Key-recovery campaigns: full-pipeline victim fleets
    // (the e2e suite; see scenarioSuite()).
    reg.add(campaignBase(
        "campaign-skl-lru-quiet-1",
        "Single-tenant anchor: one victim on a quiet Skylake-SP",
        M::SkylakeSp, 2, R::LRU, "quiet", 1));
    reg.add(campaignBase(
        "campaign-skl-lru-quiet-16",
        "Fleet headline: 16 victims on Skylake-SP in the quiet hours",
        M::SkylakeSp, 2, R::LRU, "quiet", 16));
    reg.add(campaignBase(
        "campaign-skl-lru-cloud-4",
        "4-victim fleet on Skylake-SP under Cloud Run noise",
        M::SkylakeSp, 2, R::LRU, "cloud", 4));
    reg.add(campaignBase(
        "campaign-icx-lru-cloud-4",
        "4-victim fleet on Ice Lake-SP under Cloud Run noise",
        M::IceLakeSp, 2, R::LRU, "cloud", 4));
    {
        // Mixed-environment fleet of rate-limited victims: noise
        // rotates per victim and each service has a request quota, so
        // the partial-result paths stay exercised end to end.
        ScenarioSpec s = campaignBase(
            "campaign-tiny-quota-mixed-4",
            "Quota'd 4-victim fleet across mixed noise environments",
            M::TinyTest, 2, R::LRU, "local", 4);
        s.fleetNoises = {"silent", "quiescent-local"};
        s.scanTimeoutSec = 1.0;
        s.victimRequestQuota = 200;
        reg.add(s);
    }
    {
        // Fork-mode anchor: a uniform fleet wide enough to span two
        // checkpoint shards (64 trials each), so the snapshot-fork
        // and interrupt/resume paths stay covered at CI speed.
        ScenarioSpec s = campaignBase(
            "campaign-fork-tiny-silent-96",
            "Forked 96-victim uniform fleet on the tiny silent host",
            M::TinyTest, 2, R::LRU, "silent", 96);
        s.forkVictims = true;
        s.fleetLineIndexStep = 0; // uniform layout: fork prerequisite
        s.scanTimeoutSec = 1.0;
        s.tracesPerVictim = 1;
        reg.add(s);
    }
    {
        // The paper-scale tier (--suite=e2e --full-scale): 10^5 forked
        // victims off one warmed world, streaming aggregation keeping
        // per-metric memory O(1).  Far too large for the default
        // selection; CI gates a LLCF_TRIALS-reduced fleet against the
        // committed BENCH_fullscale.json (its bands are
        // count-independent).
        ScenarioSpec s = campaignBase(
            "campaign-fork-tiny-silent-100k",
            "Full-scale fleet: 100,000 forked victims, one warmup",
            M::TinyTest, 2, R::LRU, "silent", 100000);
        s.forkVictims = true;
        s.fullScaleOnly = true;
        s.fleetLineIndexStep = 0;
        s.scanTimeoutSec = 1.0;
        s.tracesPerVictim = 1;
        reg.add(s);
    }

    // ---- Step-0 blind topology calibration (the calib suite):
    // oracle-free recovery of W_LLC / W_SF / slices / uncertainty,
    // gated per field against the true config.  The oracle
    // counterparts of these cells are the build-*/campaign-*
    // scenarios above, which consume MachineConfig directly.
    reg.add(calibBase(
        "calib-skl-lru-quiet",
        "Blind calibration on Skylake-SP in the quiet hours",
        M::SkylakeSp, 2, R::LRU, "quiet"));
    reg.add(calibBase(
        "calib-skl-lru-cloud",
        "Blind calibration on Skylake-SP under Cloud Run noise",
        M::SkylakeSp, 2, R::LRU, "cloud"));
    // Stress cell: Tree-PLRU defeats single-pass traversal at the
    // 11/12-way Skylake geometry, so Step 0 never calibrates — the
    // declared expectation pins that the attack dies here.
    {
        ScenarioSpec s = calibBase(
            "calib-skl-plru-quiet",
            "Stress: blind calibration vs a Tree-PLRU LLC/SF",
            M::SkylakeSp, 2, R::TreePLRU, "quiet");
        s.expect = {Ex::Series::OutcomeRate, "calibrated", Ex::Cmp::AtMost,
                    0.0,
                    "blind calibration survived a Tree-PLRU LLC/SF; the "
                    "stress cell no longer documents the degradation"};
        reg.add(s);
    }
    reg.add(calibBase(
        "calib-icx-lru-quiet",
        "Blind calibration on Ice Lake-SP (16-way SF) when quiet",
        M::IceLakeSp, 2, R::LRU, "quiet"));
    reg.add(calibBase(
        "calib-icx-lru-cloud",
        "Blind calibration on Ice Lake-SP under Cloud Run noise",
        M::IceLakeSp, 2, R::LRU, "cloud"));
    {
        // Deterministic anchor: tiny machine, zero noise, small
        // assumed bounds so the whole Step 0 runs in milliseconds.
        ScenarioSpec s = calibBase(
            "calib-tiny-lru-silent",
            "Regression anchor: blind calibration, tiny host, silent",
            M::TinyTest, 2, R::LRU, "silent");
        s.defaultTrials = 3;
        s.assumedMaxUncertainty = 16;
        s.assumedMaxWays = 8;
        s.calibSamplePages = 96;
        reg.add(s);
    }

    // ---- Defense axis (the defense suite; any cell whose defense
    // records metrics lands there): the attacker pipeline vs host-side
    // defenses.  Cell names use the "defense-<kind>-..." prefix so the
    // build-*/scan-*/e2e-* selections stay stage-pure.  Baseline
    // "none" cells set measure so the def_* series exists as a
    // same-shaped reference row for overhead comparisons.
    {
        ScenarioSpec s = defenseE2eBase(
            "defense-none-tiny-e2e",
            "Undefended baseline row for the tiny e2e defense matrix");
        s.defense.measure = true;
        s.expect = {Ex::Series::OutcomeRate, "target_correct",
                    Ex::Cmp::AtLeast, 0.50,
                    "the undefended attack itself is broken, so every "
                    "defense result is meaningless"};
        reg.add(s);
    }
    {
        // CEASER with a static key: the keyed index hash alone does
        // not stop the attack — congruence is scrambled but stable,
        // so eviction sets still build and still evict.
        ScenarioSpec s = defenseE2eBase(
            "defense-rekey-off-tiny-e2e",
            "Static-key CEASER: keyed index hash, never re-keyed");
        s.defense.kind = DefenseKind::KeyedRekey;
        s.defense.rekeyIntervalMs = 0.0;
        s.expect = {Ex::Series::OutcomeRate, "target_correct",
                    Ex::Cmp::AtLeast, 0.50,
                    "a static keyed index hash now stops the attack"};
        reg.add(s);
    }
    {
        // Eviction sets still build between re-keys, but every re-key
        // dissolves their congruence before the scan classifies the
        // target set: the attack dies at the scan (declared).
        ScenarioSpec s = defenseE2eBase(
            "defense-rekey-slow-tiny-e2e",
            "Keyed index hash re-keyed every 500 us of virtual time");
        s.defense.kind = DefenseKind::KeyedRekey;
        s.defense.rekeyIntervalMs = 0.5;
        s.expect = {Ex::Series::OutcomeRate, "target_correct",
                    Ex::Cmp::AtMost, 0.0,
                    "re-keying every 500 us no longer stops the "
                    "attack"};
        reg.add(s);
    }
    {
        ScenarioSpec s = defenseE2eBase(
            "defense-rekey-fast-tiny-e2e",
            "Keyed index hash re-keyed every 50 us of virtual time");
        s.defense.kind = DefenseKind::KeyedRekey;
        s.defense.rekeyIntervalMs = 0.05;
        s.expect = {Ex::Series::OutcomeRate, "target_correct",
                    Ex::Cmp::AtMost, 0.0,
                    "re-keying every 50 us no longer stops the attack"};
        reg.add(s);
    }
    {
        // CAT on the LLC only: on the 4-way tiny host, walling off
        // half the LLC ways starves eviction-set construction
        // outright — every per-set build burns its whole (trimmed)
        // budget and the attack dies at the build stage.
        ScenarioSpec s = defenseE2eBase(
            "defense-waypart-tiny-e2e",
            "CAT-style LLC way partition reserving the victim's ways");
        s.defense.kind = DefenseKind::WayPart;
        s.defense.protectedWays = 2;
        s.expect = {Ex::Series::OutcomeRate, "target_correct",
                    Ex::Cmp::AtMost, 0.0,
                    "the LLC way partition no longer stops the attack "
                    "at the build stage"};
        reg.add(s);
    }
    {
        ScenarioSpec s = defenseE2eBase(
            "defense-sfpart-tiny-e2e",
            "SF way partition: attacker fills can't evict victim SF "
            "entries");
        s.defense.kind = DefenseKind::SfPart;
        s.defense.protectedWays = 2;
        // The victim's SF entries live in protected ways, so its
        // fetches never evict the attacker's primed lines and the
        // probes see no victim activity: the attack dies (declared).
        s.expect = {Ex::Series::OutcomeRate, "target_correct",
                    Ex::Cmp::AtMost, 0.0,
                    "the SF way partition no longer stops the attack"};
        reg.add(s);
    }
    {
        // Priming the victim's sets spikes its misses, and each spike
        // re-keys the index hash under the attacker's eviction sets
        // (declared: the attack dies).
        ScenarioSpec s = defenseE2eBase(
            "defense-watchdog-tiny-e2e",
            "Self-eviction watchdog triggering re-keys when probed "
            "misses spike");
        s.defense.kind = DefenseKind::Watchdog;
        s.expect = {Ex::Series::OutcomeRate, "target_correct",
                    Ex::Cmp::AtMost, 0.0,
                    "the self-eviction watchdog no longer stops the "
                    "attack"};
        reg.add(s);
    }
    {
        ScenarioSpec s = base(
            "defense-waypart-tiny-scan",
            "PSD scan vs an LLC way partition on the tiny host",
            St::Scan, M::TinyTest, 2, R::LRU, "silent", A::BinS);
        s.defaultTrials = 3;
        s.scanTimeoutSec = 0.1; // knobs of defenseE2eBase above
        s.evsetBudgetMs = 1.0;
        s.trainTargetTraces = 6;
        s.trainNontargetTraces = 12;
        s.defense.kind = DefenseKind::WayPart;
        s.defense.protectedWays = 2;
        // The partition starves Step 1 (no set builds), so the attack
        // dies before the scan and the scan series record explicit
        // misses.
        s.expect = {Ex::Series::OutcomeRate, "target_found", Ex::Cmp::AtMost,
                    0.0,
                    "the LLC way partition no longer stops the scan "
                    "stage, or the scan series went missing"};
        reg.add(s);
    }
    {
        // The kill cell: the re-key interval sits inside a single
        // eviction-set construction window, so cross-page congruence
        // dissolves mid-build and success collapses below 10%
        // (the declared expectation below pins that ceiling).
        ScenarioSpec s = base(
            "defense-rekey-fast-tiny-build",
            "Kill cell: re-keying inside the build window starves "
            "eviction-set construction",
            St::EvsetBuild, M::TinyTest, 2, R::LRU, "silent", A::BinS);
        s.defaultTrials = 6;
        // Construction needs ~75 us of stable congruence and a 100 ms
        // budget lets it retry through occasional re-keys; a 10 us
        // interval leaves no window wide enough, so the trimmed 10 ms
        // budget is spent failing (succ < 10%, declared below).
        s.evsetBudgetMs = 10.0;
        s.defense.kind = DefenseKind::KeyedRekey;
        s.defense.rekeyIntervalMs = 0.01;
        s.expect = {Ex::Series::OutcomeRate, "success", Ex::Cmp::Below, 0.10,
                    "the re-key interval no longer kills eviction-set "
                    "construction"};
        reg.add(s);
    }
    {
        // Control for the kill cell: same machine and algorithm, but
        // the interval spans many build windows, so construction
        // survives (declared below) — together the two cells bracket
        // the re-key interval at which the attack dies.
        ScenarioSpec s = base(
            "defense-rekey-slow-tiny-build",
            "Control: re-keying slower than the build window leaves "
            "construction alive",
            St::EvsetBuild, M::TinyTest, 2, R::LRU, "silent", A::BinS);
        s.defaultTrials = 6;
        s.defense.kind = DefenseKind::KeyedRekey;
        s.defense.rekeyIntervalMs = 0.5;
        s.expect = {Ex::Series::OutcomeRate, "success", Ex::Cmp::AtLeast,
                    0.50,
                    "slow re-keying now kills eviction-set construction "
                    "too (the kill/control bracket is gone)"};
        reg.add(s);
    }
    {
        // A 50 us interval is far shorter than one Skylake-SP build
        // window, so no build finishes on one key (declared).
        ScenarioSpec s = base(
            "defense-rekey-skl-build",
            "Fast re-keying vs eviction-set construction on "
            "Skylake-SP",
            St::EvsetBuild, M::SkylakeSp, 2, R::LRU, "local", A::BinS);
        s.defaultTrials = 3;
        s.defense.kind = DefenseKind::KeyedRekey;
        s.defense.rekeyIntervalMs = 0.05;
        s.expect = {Ex::Series::OutcomeRate, "success", Ex::Cmp::AtMost,
                    0.0,
                    "re-keying every 50 us no longer kills eviction-set "
                    "construction on Skylake-SP"};
        reg.add(s);
    }
    {
        // Partitioning protects victim residency, not the mapping:
        // eviction sets still build fine inside the attacker's own
        // partition — the cell documents that non-result.
        ScenarioSpec s = base(
            "defense-sfpart-icx-build",
            "SF partition does not stop eviction-set construction "
            "(Ice Lake)",
            St::EvsetBuild, M::IceLakeSp, 2, R::LRU, "local", A::BinS);
        s.defaultTrials = 3;
        s.defense.kind = DefenseKind::SfPart;
        s.defense.protectedWays = 2;
        s.expect = {Ex::Series::OutcomeRate, "success", Ex::Cmp::AtLeast,
                    0.50,
                    "the SF partition now stops eviction-set "
                    "construction"};
        reg.add(s);
    }
    {
        // Step 0 under a static keyed hash: blind calibration measures
        // geometry through the randomized mapping (the control of the
        // fast re-key cell below; declared).
        ScenarioSpec s = calibBase(
            "defense-rekey-off-tiny-calib",
            "Blind calibration through a static keyed index hash",
            M::TinyTest, 2, R::LRU, "silent");
        s.defaultTrials = 3;
        s.assumedMaxUncertainty = 16;
        s.assumedMaxWays = 8;
        s.calibSamplePages = 96;
        s.defense.kind = DefenseKind::KeyedRekey;
        s.defense.rekeyIntervalMs = 0.0;
        s.expect = {Ex::Series::OutcomeRate, "calibrated", Ex::Cmp::AtLeast,
                    0.50,
                    "a static keyed hash now stops blind calibration"};
        reg.add(s);
    }
    {
        // Re-keying every 50 us dissolves the congruence Step 0
        // measures, so calibration never succeeds.
        ScenarioSpec s = calibBase(
            "defense-rekey-fast-tiny-calib",
            "Blind calibration degrades under fast re-keying",
            M::TinyTest, 2, R::LRU, "silent");
        s.defaultTrials = 3;
        s.assumedMaxUncertainty = 16;
        s.assumedMaxWays = 8;
        s.calibSamplePages = 96;
        s.defense.kind = DefenseKind::KeyedRekey;
        s.defense.rekeyIntervalMs = 0.05;
        s.expect = {Ex::Series::OutcomeRate, "calibrated", Ex::Cmp::AtMost,
                    0.0,
                    "fast re-keying no longer stops blind calibration"};
        reg.add(s);
    }
    {
        ScenarioSpec s = campaignBase(
            "defense-rekey-tiny-campaign-2",
            "2-victim fleet attacked through periodic re-keying",
            M::TinyTest, 2, R::LRU, "silent", 2);
        s.scanTimeoutSec = 0.3;
        s.defense.kind = DefenseKind::KeyedRekey;
        // Mild interval: several re-keys per victim attack, yet most
        // training traces stay inside one key epoch.  The scan never
        // finds a target set before a re-key moves it, so no victim's
        // key is recovered (declared).
        s.defense.rekeyIntervalMs = 2.0;
        s.expect = {Ex::Series::OutcomeRate, "key_recovered",
                    Ex::Cmp::AtMost, 0.0,
                    "re-keying every 2 ms no longer stops fleet key "
                    "recovery"};
        reg.add(s);
    }

    // ---- Blind campaigns: Step 0 feeds Steps 1-3 with calibrated
    // topology; calibration cycles count toward cycles-per-key.
    {
        ScenarioSpec s = campaignBase(
            "campaign-blind-skl-quiet-2",
            "Blind 2-victim fleet: calibrate, then attack Skylake-SP",
            M::SkylakeSp, 2, R::LRU, "quiet", 2);
        s.blindTopology = true;
        reg.add(s);
    }
    {
        ScenarioSpec s = campaignBase(
            "campaign-blind-tiny-silent-2",
            "Blind 2-victim fleet on the tiny silent anchor host",
            M::TinyTest, 2, R::LRU, "silent", 2);
        s.blindTopology = true;
        s.assumedMaxUncertainty = 16;
        s.assumedMaxWays = 8;
        s.calibSamplePages = 96;
        s.scanTimeoutSec = 1.0;
        reg.add(s);
    }

    // ---- Traffic axis (the traffic suite; any cell setting a
    // traffic knob lands there): open-loop arrival
    // processes, the AES table-lookup victim family, co-tenant load,
    // key rotation and the adaptive scanner.  Cell names use the
    // "traffic-" prefix so the stage-pure selections stay stable.
    {
        ScenarioSpec s = base(
            "traffic-poisson-skl-scan",
            "PSD scan of an open-loop Poisson ECDSA victim on "
            "Skylake-SP",
            St::Scan, M::SkylakeSp, 2, R::LRU, "local", A::BinS);
        s.defaultTrials = 2;
        s.scanTimeoutSec = 3.0;
        s.victimArrival.kind = ArrivalKind::Poisson;
        s.victimArrival.ratePerSec = 60.0;
        reg.add(s);
    }
    {
        ScenarioSpec s = base(
            "traffic-bursty-icx-scan",
            "PSD scan of a bursty on/off ECDSA victim on Ice Lake-SP",
            St::Scan, M::IceLakeSp, 2, R::LRU, "local", A::BinS);
        s.defaultTrials = 2;
        s.scanTimeoutSec = 3.0;
        s.victimArrival.kind = ArrivalKind::Bursty;
        s.victimArrival.ratePerSec = 60.0;
        reg.add(s);
    }
    {
        ScenarioSpec s = base(
            "traffic-poisson-tiny-e2e",
            "Full attack against an open-loop Poisson ECDSA victim",
            St::EndToEnd, M::TinyTest, 2, R::LRU, "silent", A::BinS);
        s.defaultTrials = 2;
        s.scanTimeoutSec = 3.0;
        s.victimArrival.kind = ArrivalKind::Poisson;
        s.victimArrival.ratePerSec = 120.0;
        reg.add(s);
    }
    {
        // The AES nibble-recovery anchor: the attacker monitors one
        // T-table line across table-lookup encryptions and recovers
        // the four observable key-byte upper nibbles by elimination.
        ScenarioSpec s = base(
            "traffic-aes-tiny-e2e",
            "Full attack recovers AES key nibbles from one T-table "
            "line",
            St::EndToEnd, M::TinyTest, 2, R::LRU, "silent", A::BinS);
        s.defaultTrials = 2;
        s.scanTimeoutSec = 3.0;
        s.tracesPerVictim = 12;
        s.victimFamily = VictimFamily::AesTable;
        s.victimArrival.kind = ArrivalKind::Poisson;
        s.victimArrival.ratePerSec = 200.0;
        s.expect = {Ex::Series::MetricMean, "aes_nibbles_correct",
                    Ex::Cmp::AtLeast, 1.0,
                    "the AES line-granular extractor no longer "
                    "recovers key material"};
        reg.add(s);
    }
    {
        ScenarioSpec s = base(
            "traffic-aes-bursty-tiny-scan",
            "PSD scan locks onto a bursty AES table-lookup victim",
            St::Scan, M::TinyTest, 2, R::LRU, "silent", A::BinS);
        s.defaultTrials = 3;
        s.scanTimeoutSec = 3.0;
        s.victimFamily = VictimFamily::AesTable;
        s.victimArrival.kind = ArrivalKind::Bursty;
        s.victimArrival.ratePerSec = 400.0;
        reg.add(s);
    }
    {
        // Co-tenant contention: pinned open-loop load streams share
        // the LLC/SF with the attack, so probes contend with offered
        // load end to end.
        ScenarioSpec s = base(
            "traffic-cotenant-tiny-e2e",
            "Full attack with two co-tenants offering open-loop load",
            St::EndToEnd, M::TinyTest, 2, R::LRU, "silent", A::BinS);
        s.defaultTrials = 2;
        s.scanTimeoutSec = 3.0;
        s.coTenants = 2;
        s.coTenantRps = 3000.0;
        reg.add(s);
    }
    {
        // The degraded-but-explicit cell: the arrival rate leaves the
        // victim idle for most of the scan window, so the scanner
        // usually times out — recorded as target_found = false, never
        // a crash or a silent success.
        ScenarioSpec s = base(
            "traffic-sparse-tiny-scan",
            "Degraded cell: a sparse open-loop victim starves the "
            "scan",
            St::Scan, M::TinyTest, 2, R::LRU, "silent", A::BinS);
        s.defaultTrials = 3;
        // Finding this victim takes ~190-260 ms of scanning at
        // 8 rps; the 150 ms budget forces the explicit scored miss
        // the expectation pins (degrade, never crash).
        s.scanTimeoutSec = 0.15;
        s.victimArrival.kind = ArrivalKind::Poisson;
        s.victimArrival.ratePerSec = 8.0;
        s.expect = {Ex::Series::OutcomeRate, "target_found", Ex::Cmp::AtMost,
                    0.50,
                    "the sparse victim must starve the scan into an explicit "
                    "scored miss, not a success or a missing series"};
        reg.add(s);
    }
    {
        ScenarioSpec s = base(
            "traffic-adaptive-tiny-scan",
            "UCB-adaptive scan of an open-loop Poisson ECDSA victim",
            St::Scan, M::TinyTest, 2, R::LRU, "silent", A::BinS);
        s.defaultTrials = 3;
        s.scanTimeoutSec = 3.0;
        s.adaptiveScan = true;
        s.victimArrival.kind = ArrivalKind::Poisson;
        s.victimArrival.ratePerSec = 120.0;
        reg.add(s);
    }
    {
        // Key rotation: the victim re-keys every 4 requests, so the
        // campaign scores each key epoch independently (DESIGN.md
        // §11) and the headline counts epochs, not victims.
        ScenarioSpec s = campaignBase(
            "traffic-rotate-tiny-campaign-2",
            "2-victim fleet with mid-campaign key rotation every 4 "
            "requests",
            M::TinyTest, 2, R::LRU, "silent", 2);
        s.scanTimeoutSec = 1.0;
        s.rotateKeys = 4;
        s.tracesPerVictim = 10; // spans three key epochs per victim
        ScenarioSpec rotate = s;
        s.expect = {Ex::Series::MetricMean, "traffic_epochs", Ex::Cmp::Above,
                    1.0,
                    "rotation never advanced; per-epoch scoring is untested"};
        reg.add(s);

        // The keys-per-cycle-budget curve: the same fleet at Step-2
        // budgets bracketing its ~15 ms scan (starved, tight, slack),
        // each row reporting the epoch keys recovered in that time.
        for (const unsigned ms : {5u, 20u, 1000u}) {
            const std::string budget = std::to_string(ms) + " ms";
            ScenarioSpec b = rotate;
            b.name = "traffic-budget-" + std::to_string(ms) + "ms";
            b.description = "Rotation campaign at a " + budget +
                            " Step-2 budget (keys-per-cycle-budget curve)";
            b.scanTimeoutSec = ms / 1e3;
            // Declared regimes: the starved budget must kill the
            // attack, the tight and slack ones must let it succeed.
            if (ms < 15)
                b.expect = {Ex::Series::OutcomeRate, "key_recovered",
                            Ex::Cmp::AtMost, 0.0,
                            "a 5 ms budget starves the ~15 ms scan; a "
                            "recovered key means the budget is not "
                            "enforced"};
            else
                b.expect = {Ex::Series::OutcomeRate, "key_recovered",
                            Ex::Cmp::AtLeast, 0.5,
                            "a budget above the ~15 ms scan must "
                            "recover keys; the attack is broken"};
            reg.add(b);
        }
    }

    return reg;
}

} // namespace

void
ScenarioRegistry::add(ScenarioSpec spec)
{
    if (find(spec.name))
        fatal("duplicate scenario name '%s'", spec.name.c_str());
    if (spec.name.empty())
        fatal("scenario must have a name");
    specs_.push_back(std::move(spec));
}

const ScenarioSpec *
ScenarioRegistry::find(std::string_view name) const
{
    for (const auto &s : specs_) {
        if (s.name == name)
            return &s;
    }
    return nullptr;
}

std::vector<const ScenarioSpec *>
ScenarioRegistry::select(std::string_view patterns) const
{
    std::vector<bool> picked(specs_.size(), false);
    std::size_t start = 0;
    while (start <= patterns.size()) {
        std::size_t comma = patterns.find(',', start);
        if (comma == std::string_view::npos)
            comma = patterns.size();
        std::string_view pat = patterns.substr(start, comma - start);
        start = comma + 1;
        if (pat.empty())
            continue;
        bool matched = false;
        const bool glob = !pat.empty() && pat.back() == '*';
        const std::string_view prefix =
            glob ? pat.substr(0, pat.size() - 1) : pat;
        for (std::size_t i = 0; i < specs_.size(); ++i) {
            const std::string &name = specs_[i].name;
            const bool hit = glob
                                 ? name.compare(0, prefix.size(),
                                                prefix) == 0
                                 : name == pat;
            if (hit) {
                picked[i] = true;
                matched = true;
            }
        }
        if (!matched)
            fatal("no scenario matches '%.*s' (try --list)",
                  static_cast<int>(pat.size()), pat.data());
    }
    std::vector<const ScenarioSpec *> out;
    for (std::size_t i = 0; i < specs_.size(); ++i) {
        if (picked[i])
            out.push_back(&specs_[i]);
    }
    return out;
}

const ScenarioRegistry &
builtinScenarios()
{
    static const ScenarioRegistry reg = makeBuiltins();
    return reg;
}

} // namespace llcf

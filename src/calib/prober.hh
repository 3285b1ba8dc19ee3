/**
 * @file
 * Step 0: blind topology calibration.
 *
 * Every other stage of the pipeline assumes the attacker knows the
 * shared-cache geometry (W_LLC, W_SF, slice count, slice-hash shape).
 * On a real public-cloud host it does not — the paper's attack is
 * credible precisely because eviction sets can be built on unknown
 * hardware.  The TopologyProber recovers the whole TopologyView from
 * timing observations alone, using only AttackSession primitives:
 *
 *  1. **W_LLC** — blindReduceToMinimal() shrinks a candidate pool to
 *     a minimal LLC eviction set without knowing the way count; the
 *     minimal size *is* the associativity.  Measured on several
 *     independent targets; the majority wins and the agreement
 *     fraction becomes the confidence.
 *  2. **W_SF** — congruent addresses (found by substitution tests)
 *     are appended to a minimal LLC set one at a time until the SF
 *     TestEviction fires; the first firing size is W_SF.
 *  3. **Uncertainty U** — a fixed window of pool pages is membership-
 *     tested against each target; congruence is Bernoulli(1/U), so
 *     U ~ tests/hits.
 *  4. **Slice count** — pages congruent with the target at one page
 *     offset are re-tested at a second offset.  The set-index bits
 *     above the page offset are offset-invariant, but the opaque
 *     slice hash re-rolls: the survival rate of congruence across
 *     offsets is ~1/slices.  A small integer grid then snaps (slices,
 *     uncontrolled index bits) to the pair most consistent with both
 *     raw estimators.
 *
 * The result is a CalibratedTopology the session adopts in place of
 * oracle geometry, plus a fitted SliceHashParams record (the opaque
 * family member with the estimated slice count; the salt is
 * unobservable by design, and any salt is observation-equivalent up
 * to slice relabeling).  compareToOracle() produces the per-field
 * match/mismatch accounting benches and tests gate on — it is the
 * only function here that may read MachineConfig, and it is
 * experimenter-side reporting, never attack input.
 *
 * Determinism: the prober draws randomness exclusively from the
 * session RNG and advances only the session's machine clock, so a
 * calibration trial obeys the harness byte-determinism contract
 * (DESIGN.md §8).
 */

#ifndef LLCF_CALIB_PROBER_HH
#define LLCF_CALIB_PROBER_HH

#include <vector>

#include "common/flat_set.hh"
#include "evset/algorithms.hh"
#include "evset/candidate.hh"
#include "evset/session.hh"

namespace llcf {

/** Page-line index the primary probes run at. */
constexpr unsigned kCalibLineIndex = 5;

/** Second line index for the cross-offset slice survival probe. */
constexpr unsigned kCalibCrossLineIndex = 37;
static_assert(kCalibLineIndex != kCalibCrossLineIndex,
              "calibration needs two distinct probe line indices");

/** Independent calibration targets (majority vote over W). */
constexpr unsigned kCalibTargets = 2;

/** Blind reductions attempted per target before giving up. */
constexpr unsigned kCalibAttemptsPerTarget = 3;

/** Knobs of one Step-0 calibration run (the fixed probe plan is the
 *  constants above). */
struct CalibrationConfig
{
    /** Pool pages membership-scanned per target (the U estimator's
     *  sample window). */
    unsigned samplePages = 128;

    /** Sanity cap on any measured associativity. */
    unsigned maxWays = 32;

    /** Virtual-time budget for the whole calibration. */
    double budgetMs = 400.0;
};

/**
 * What Step 0 recovered: the adoptable attacker view, the fitted
 * slice-hash family record, the raw (pre-snap) estimators, and the
 * cost accounting campaigns charge against recovered keys.
 */
struct CalibratedTopology
{
    /** False when the core measurements (W_LLC / W_SF) failed inside
     *  the budget; the view must not be adopted then. */
    bool valid = false;

    /** The adoptable view (fromOracle == false). */
    TopologyView view;

    /** Fitted family record: opaque kind, measured slice count,
     *  salt 0 (unobservable; equivalent up to slice relabeling). */
    SliceHashParams hashModel;

    double uncertaintyRaw = 0.0; //!< tests/hits before integer snap
    double slicesRaw = 0.0;      //!< 1/survival-rate before snap

    /** Product of the per-stage confidences in [0, 1]: W agreement
     *  fractions and the evidence mass behind the U / slice
     *  estimators. */
    double confidence = 0.0;

    double wLlcAgreement = 0.0; //!< targets agreeing with the vote
    double wSfAgreement = 0.0;

    unsigned membershipTests = 0; //!< U-estimator sample size
    unsigned membershipHits = 0;
    unsigned survivalTests = 0;   //!< cross-offset congruence samples
    unsigned survivalHits = 0;

    /** Recall self-measurement: fresh votes on known-congruent pages
     *  estimate the congruence test's own false-negative rate, which
     *  debiases the U estimator under tenant noise. */
    unsigned recallTests = 0;
    unsigned recallPasses = 0;

    Cycles cycles = 0;              //!< virtual time Step 0 consumed
    std::uint64_t testEvictions = 0; //!< TestEviction executions
};

/** One calibrated field vs the oracle (experimenter-side report). */
struct CalibrationFieldReport
{
    const char *field = "";  //!< e.g. "w_llc"
    double measured = 0.0;
    double expected = 0.0;
    bool match = false;
};

/** Per-field match/mismatch accounting of one calibration. */
struct CalibrationReport
{
    std::vector<CalibrationFieldReport> fields;
    unsigned matches = 0; //!< fields whose measured == expected
    bool allMatch = false;
};

/**
 * Compare a calibration against the true machine configuration.
 * Experimenter-side accounting (the one sanctioned oracle read in
 * this module); attack code never consumes the result.
 */
CalibrationReport compareToOracle(const CalibratedTopology &calib,
                                  const MachineConfig &cfg);

/**
 * Runs Step 0 against a (typically blind) attack session.  The pool
 * provides the attacker pages; all probing randomness comes from the
 * session RNG.
 */
class TopologyProber
{
  public:
    TopologyProber(AttackSession &session, const CandidatePool &pool,
                   const CalibrationConfig &cfg = {});

    /** Execute the calibration; see the file comment for the plan. */
    CalibratedTopology calibrate();

    const CalibrationConfig &config() const { return cfg_; }

  private:
    /** State accumulated for one calibration target. */
    struct TargetProbe
    {
        std::size_t taPage = 0;  //!< pool page of the target
        Addr ta = 0;             //!< target at kCalibLineIndex
        std::vector<Addr> minSet;          //!< minimal LLC set
        std::vector<std::size_t> congruentPages; //!< scan hits
        unsigned wSf = 0;        //!< measured SF ways (0 = failed)
    };

    /** Minimal LLC eviction set for @p ta (retries inside deadline). */
    std::vector<Addr> minimalSetFor(Addr ta, unsigned line_index,
                                    Cycles deadline);

    /** Substitution congruence test of @p cand against a minimal set
     *  for @p ta (best-of-three vote, balancing false negatives and
     *  false positives under noise). */
    bool congruent(Addr ta, const std::vector<Addr> &min_set, Addr cand);

    /** Stage 3: membership-scan the sample window for @p probe. */
    void membershipScan(TargetProbe &probe, Cycles deadline,
                        CalibratedTopology &out);

    /** Stage 2: measure W_SF by extension until the SF test fires.
     *  Its continuation scan past the sample window is itself a
     *  congruence-sampling walk, so its tests pool into @p out's
     *  membership counts (variance reduction for the U estimator). */
    unsigned measureSfWays(TargetProbe &probe, Cycles deadline,
                           CalibratedTopology &out);

    /** Stage 4: cross-offset survival counting for @p probe. */
    void survivalProbe(TargetProbe &probe, Cycles deadline,
                       CalibratedTopology &out);

    /** Snap the raw estimators to integer (slices, index bits). */
    static void snapGeometry(CalibratedTopology &out);

    AttackSession &session_;
    const CandidatePool &pool_;
    CalibrationConfig cfg_;

    /** Page-frame base -> pool page index, for mapping eviction-set
     *  members back to their pages. */
    FlatMap<Addr, std::size_t> pageOfBase_;
};

} // namespace llcf

#endif // LLCF_CALIB_PROBER_HH

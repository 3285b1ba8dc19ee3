/**
 * @file
 * Target-set identification in the frequency domain (paper Sections
 * 6.2 and 7.2, Table 6): collect a short Prime+Probe access trace per
 * candidate SF set, estimate its power spectral density with Welch's
 * method, and classify target vs non-target with an SVM trained on
 * labelled traces (polynomial kernel, like the paper's scikit-learn
 * model).  A trace reaches the classifier only when its detection
 * count passes the preliminary [kScanMinAccesses, kScanMaxAccesses]
 * filter; the paper's extra nonce-shaped false-positive filter for
 * WholeSys is not modelled (DESIGN.md §12).
 */

#ifndef LLCF_ATTACK_SCANNER_HH
#define LLCF_ATTACK_SCANNER_HH

#include "attack/monitor.hh"
#include "evset/builder.hh"
#include "ml/svm.hh"
#include "signal/welch.hh"
#include "victim/victim.hh"

namespace llcf {

/** Preliminary filter lower bound on a trace's detections. */
constexpr unsigned kScanMinAccesses = 50;

/** Preliminary filter upper bound on a trace's detections. */
constexpr unsigned kScanMaxAccesses = 400;

/** UCB exploration constant (adaptive mode only). */
constexpr double kUcbExplore = 1.2;

/** Scanner parameters (paper Section 7.2).  PSD estimation uses the
 *  default WelchParams. */
struct ScannerParams
{
    Cycles traceDuration = usToCycles(500.0);
    Cycles binCycles = 1024;    //!< event-binning resolution
    Cycles timeout = secToCycles(60.0);
    /**
     * Bandit-style budget allocation: instead of shuffled sweeps,
     * pick the next set to trace by UCB over per-set activity
     * rewards (deterministic: ties break to the lowest index and no
     * session RNG is drawn).  Pays off under offered load, where
     * most sets show some traffic and uniform sweeping wastes
     * monitoring budget on quiet sets.
     */
    bool adaptive = false;
};

/**
 * SVM-backed classifier over PSD features of an access trace.
 */
class TraceClassifier
{
  public:
    explicit TraceClassifier(const ScannerParams &params = {});

    /** PSD feature vector of a detection-timestamp trace. */
    std::vector<double> features(const std::vector<Cycles> &rel_times)
        const;

    /** Fit the scaler and SVM on labelled feature rows. */
    void train(Dataset data);

    /** True iff the trace looks like the target set. */
    bool isTarget(const std::vector<double> &feature_row) const;

    /** Metrics on a labelled validation set. */
    BinaryMetrics validate(const Dataset &data) const;

    const ScannerParams &params() const { return params_; }

  private:
    ScannerParams params_;
    StandardScaler scaler_;
    KernelSvm svm_;
};

/**
 * Generates labelled training traces by monitoring target and
 * non-target sets of a controlled victim — the offline training the
 * paper performs on hosts it owns (Section 7.2).
 */
class ScannerTrainer
{
  public:
    ScannerTrainer(AttackSession &session, Victim &victim,
                   const CandidatePool &pool);

    /**
     * Collect @p per_class labelled traces of each class and return
     * the feature dataset (+1 = target set).
     */
    Dataset collect(const TraceClassifier &featurizer,
                    unsigned target_traces, unsigned nontarget_traces);

  private:
    AttackSession &session_;
    Victim &victim_;
    const CandidatePool &pool_;
};

/** Scan outcome (Table 6 metrics). */
struct ScanResult
{
    bool found = false;
    std::size_t evsetIndex = 0; //!< index into the scanned evsets
    Cycles elapsed = 0;
    unsigned setsScanned = 0;

    /** Sets scanned per second of virtual time. */
    double
    scanRate() const
    {
        const double sec = cyclesToSec(elapsed);
        return sec > 0.0 ? setsScanned / sec : 0.0;
    }
};

/**
 * The online scanner: sweeps candidate eviction sets while the victim
 * serves requests, classifying each trace until the target is found
 * or the timeout expires.
 */
class TargetSetScanner
{
  public:
    TargetSetScanner(AttackSession &session,
                     const TraceClassifier &classifier);

    /**
     * Scan @p evsets repeatedly until a positive classification or
     * timeout.  The caller must keep the victim executing (e.g. by
     * pre-scheduling requests across the scan window).
     */
    ScanResult scan(const std::vector<BuiltEvictionSet> &evsets);

  private:
    AttackSession &session_;
    const TraceClassifier &classifier_;
};

} // namespace llcf

#endif // LLCF_ATTACK_SCANNER_HH

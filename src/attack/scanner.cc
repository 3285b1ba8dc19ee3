#include "scanner.hh"

#include <algorithm>
#include <cmath>

#include "attack/covert.hh"
#include "common/log.hh"

namespace llcf {

TraceClassifier::TraceClassifier(const ScannerParams &params)
    : params_(params),
      svm_(SvmParams{SvmKernel::Polynomial, 2.0, 3.0, 0.05, 1.0, 1e-3,
                     6, 20000, 7})
{
}

std::vector<double>
TraceClassifier::features(const std::vector<Cycles> &rel_times) const
{
    const std::vector<double> binned =
        binEvents(rel_times, params_.traceDuration, params_.binCycles);
    const double fs = kCpuGhz * 1e9 /
                      static_cast<double>(params_.binCycles);
    const PsdEstimate psd = welchPsd(binned, fs);

    std::vector<double> row;
    if (!psd.valid()) {
        // Degenerate PSD (trace too short for one Welch segment):
        // return an empty row — a flagged "no feature" marker — so no
        // fabricated all-zero spectrum ever reaches the SVM.
        return row;
    }
    // Log-power spectrum, normalised by total power so the SVM sees
    // spectral *shape* rather than trace intensity.
    const double total = std::max(psd.totalPower(), 1e-12);
    row.reserve(psd.power.size());
    for (double p : psd.power)
        row.push_back(std::log10(p / total + 1e-9));
    return row;
}

void
TraceClassifier::train(Dataset data)
{
    scaler_.fit(data);
    scaler_.transform(data);
    svm_.fit(data);
}

bool
TraceClassifier::isTarget(const std::vector<double> &feature_row) const
{
    // An empty row is the "no feature" marker from features(): never
    // the target (scoring it would read past the scaler's dims).
    if (feature_row.empty())
        return false;
    std::vector<double> scaled = feature_row;
    scaler_.transform(scaled);
    return svm_.predict(scaled) > 0;
}

BinaryMetrics
TraceClassifier::validate(const Dataset &data) const
{
    BinaryMetrics m;
    for (std::size_t i = 0; i < data.size(); ++i)
        m.add(data.y[i], isTarget(data.x[i]) ? 1 : -1);
    return m;
}

// ------------------------------------------------------------ trainer

ScannerTrainer::ScannerTrainer(AttackSession &session, Victim &victim,
                               const CandidatePool &pool)
    : session_(session), victim_(victim), pool_(pool)
{
}

Dataset
ScannerTrainer::collect(const TraceClassifier &featurizer,
                        unsigned target_traces, unsigned nontarget_traces)
{
    Machine &m = session_.machine();
    const auto &params = featurizer.params();
    // Set sizing follows the attacker's (possibly calibrated) W_SF;
    // the membership labels below stay ground truth — training is
    // offline on hosts the experimenter controls.
    const unsigned w_sf = session_.topology().wSf;
    Dataset data;

    // Ground-truth eviction sets: training is offline on hosts the
    // experimenter controls (Section 7.2's mmap-based validation).
    const std::vector<Addr> target_set = groundTruthEvictionSet(
        m, pool_, victim_.targetLinePa(), w_sf);

    auto collect_one = [&](const std::vector<Addr> &evset, int label) {
        // Keep the victim running across the trace window.
        auto execs = victim_.serveRequests(m.now(), 1);
        if (execs.empty()) {
            // Training victim exhausted (request quota): skip the
            // sample rather than index an empty execution list.
            warn("scanner trainer: victim produced no execution; "
                 "skipping a label-%+d trace", label);
            m.clearStreams();
            return;
        }
        // Start the trace somewhere inside the ladder for positive
        // examples; random phase otherwise.
        Cycles begin = m.now();
        if (label > 0) {
            const Cycles span = execs[0].ladderEnd -
                                execs[0].ladderStart;
            begin = execs[0].ladderStart +
                    session_.rng().nextBelow(std::max<Cycles>(
                        1, span > params.traceDuration ?
                           span - params.traceDuration : 1));
        }
        if (begin > m.now())
            m.idle(begin - m.now());
        auto monitor = PrimeProbeMonitor::make(MonitorKind::Parallel,
                                               session_, evset);
        const Cycles t0 = m.now();
        auto detections = monitor->collectTrace(t0 +
                                                params.traceDuration);
        for (auto &d : detections)
            d -= t0;
        auto row = featurizer.features(detections);
        if (!row.empty()) // skip flagged degenerate-PSD traces
            data.add(std::move(row), label);
        // Let the victim finish so streams drain.
        if (execs[0].requestEnd > m.now())
            m.idle(execs[0].requestEnd - m.now());
        m.clearStreams();
    };

    for (unsigned i = 0; i < target_traces; ++i)
        collect_one(target_set, +1);

    for (unsigned i = 0; i < nontarget_traces; ++i) {
        // Random non-target set: a random pool address (excluding
        // those congruent with the real target), or a decoy line's
        // set for the hard negatives.
        std::vector<Addr> evset;
        if (i % 4 == 0 && !victim_.decoyPas().empty()) {
            const Addr decoy = victim_.decoyPas()[
                i / 4 % victim_.decoyPas().size()];
            evset = groundTruthEvictionSet(m, pool_, decoy, w_sf);
        } else {
            for (;;) {
                const Addr ta = pool_.at(
                    session_.rng().nextBelow(pool_.pages()),
                    session_.rng().nextBelow(kLinesPerPage));
                if (m.sharedSetOf(ta) ==
                    m.sharedSetOf(victim_.targetLinePa()))
                    continue;
                evset = groundTruthEvictionSet(m, pool_, ta, w_sf, 1);
                break;
            }
        }
        collect_one(evset, -1);
    }
    return data;
}

// ------------------------------------------------------------ scanner

TargetSetScanner::TargetSetScanner(AttackSession &session,
                                   const TraceClassifier &classifier)
    : session_(session), classifier_(classifier)
{
}

ScanResult
TargetSetScanner::scan(const std::vector<BuiltEvictionSet> &evsets)
{
    if (classifier_.params().adaptive)
        return scanAdaptive(evsets);
    Machine &m = session_.machine();
    const auto &params = classifier_.params();
    ScanResult res;
    const Cycles start = m.now();
    const Cycles deadline = start + params.timeout;

    std::vector<std::size_t> order(evsets.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;

    while (m.now() < deadline && !res.found) {
        session_.rng().shuffle(order);
        for (std::size_t idx : order) {
            if (m.now() >= deadline)
                break;
            auto monitor = PrimeProbeMonitor::make(
                MonitorKind::Parallel, session_, evsets[idx].sfSet);
            const Cycles t0 = m.now();
            auto detections =
                monitor->collectTrace(t0 + params.traceDuration);
            ++res.setsScanned;
            if (detections.size() < kScanMinAccesses ||
                detections.size() > kScanMaxAccesses)
                continue;
            for (auto &d : detections)
                d -= t0;
            if (!classifier_.isTarget(classifier_.features(detections)))
                continue;
            res.found = true;
            res.evsetIndex = idx;
            break;
        }
    }
    res.elapsed = m.now() - start;
    return res;
}

ScanResult
TargetSetScanner::scanAdaptive(
    const std::vector<BuiltEvictionSet> &evsets)
{
    Machine &m = session_.machine();
    const auto &params = classifier_.params();
    ScanResult res;
    const Cycles start = m.now();
    const Cycles deadline = start + params.timeout;
    if (evsets.empty()) {
        res.elapsed = m.now() - start;
        return res;
    }

    // UCB1 over candidate sets.  Reward: 1.0 for a classifier
    // positive, 0.5 for in-band activity, 0 otherwise — sets showing
    // plausible traffic get revisited first, quiet sets decay to the
    // exploration floor.  Everything is deterministic: unscanned
    // sets go first in index order and the argmax breaks ties on the
    // lowest index, so identical trials replay identically at any
    // thread count.
    std::vector<double> reward(evsets.size(), 0.0);
    std::vector<std::uint64_t> pulls(evsets.size(), 0);
    std::uint64_t total = 0;

    while (m.now() < deadline && !res.found) {
        std::size_t pick = evsets.size();
        for (std::size_t i = 0; i < evsets.size(); ++i) {
            if (pulls[i] == 0) {
                pick = i;
                break;
            }
        }
        if (pick == evsets.size()) {
            double best = -1.0;
            const double logn =
                std::log(static_cast<double>(std::max<std::uint64_t>(
                    total, 2)));
            for (std::size_t i = 0; i < evsets.size(); ++i) {
                const double n = static_cast<double>(pulls[i]);
                const double ucb =
                    reward[i] / n + kUcbExplore * std::sqrt(logn / n);
                if (ucb > best) { // strict: ties keep the lowest index
                    best = ucb;
                    pick = i;
                }
            }
        }

        auto monitor = PrimeProbeMonitor::make(
            MonitorKind::Parallel, session_, evsets[pick].sfSet);
        const Cycles t0 = m.now();
        auto detections =
            monitor->collectTrace(t0 + params.traceDuration);
        ++res.setsScanned;
        ++pulls[pick];
        ++total;
        if (detections.size() < kScanMinAccesses ||
            detections.size() > kScanMaxAccesses)
            continue;
        reward[pick] += 0.5;
        for (auto &d : detections)
            d -= t0;
        if (!classifier_.isTarget(classifier_.features(detections)))
            continue;
        reward[pick] += 0.5;
        res.found = true;
        res.evsetIndex = pick;
    }
    res.elapsed = m.now() - start;
    return res;
}

} // namespace llcf

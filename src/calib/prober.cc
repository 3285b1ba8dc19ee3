#include "prober.hh"

#include <algorithm>
#include <cmath>

#include "common/log.hh"

namespace llcf {
namespace {

/** Majority value of @p votes; agreement = winners / votes. */
unsigned
majority(const std::vector<unsigned> &votes, double *agreement)
{
    unsigned best = 0;
    std::size_t best_count = 0;
    for (unsigned v : votes) {
        std::size_t count = 0;
        for (unsigned w : votes) {
            if (w == v)
                ++count;
        }
        // Strict > keeps the first-seen value on ties: deterministic.
        if (count > best_count) {
            best = v;
            best_count = count;
        }
    }
    *agreement = votes.empty() ? 0.0
                               : static_cast<double>(best_count) /
                                     static_cast<double>(votes.size());
    return best;
}

} // namespace

TopologyProber::TopologyProber(AttackSession &session,
                               const CandidatePool &pool,
                               const CalibrationConfig &cfg)
    : session_(session), pool_(pool), cfg_(cfg)
{
    pageOfBase_.reserve(pool_.pages());
    for (std::size_t p = 0; p < pool_.pages(); ++p)
        pageOfBase_.emplace(pool_.at(p, 0), p);
}

std::vector<Addr>
TopologyProber::minimalSetFor(Addr ta, unsigned line_index,
                              Cycles deadline)
{
    for (unsigned attempt = 0; attempt < kCalibAttemptsPerTarget;
         ++attempt) {
        if (session_.expired(deadline))
            break;
        std::vector<Addr> cands = pool_.candidatesAt(line_index);
        std::erase(cands, ta);
        session_.rng().shuffle(cands);
        auto red = blindReduceToMinimal(session_, ta, std::move(cands),
                                        deadline, TestTarget::Llc);
        if (red.success && red.evset.size() <= cfg_.maxWays)
            return std::move(red.evset);
    }
    return {};
}

bool
TopologyProber::congruent(Addr ta, const std::vector<Addr> &min_set,
                          Addr cand)
{
    // Substitution probe: the minimal set with its last member
    // swapped for the candidate evicts the target iff the candidate
    // is congruent too.  Best-of-three vote: requiring two
    // *consecutive* positives would bias toward false negatives under
    // tenant noise, and the U estimator is sensitive to exactly that.
    std::vector<Addr> probe = min_set;
    probe.back() = cand;
    const bool a =
        session_.testEvictionLlcParallel(ta, probe, probe.size());
    const bool b =
        session_.testEvictionLlcParallel(ta, probe, probe.size());
    if (a == b)
        return a;
    return session_.testEvictionLlcParallel(ta, probe, probe.size());
}

void
TopologyProber::membershipScan(TargetProbe &probe, Cycles deadline,
                               CalibratedTopology &out)
{
    FlatSet<Addr> member_base;
    for (Addr a : probe.minSet)
        member_base.insert(a & ~static_cast<Addr>(kPageBytes - 1));
    const std::size_t window =
        std::min<std::size_t>(cfg_.samplePages, pool_.pages());
    for (std::size_t p = 0; p < window; ++p) {
        if (session_.expired(deadline))
            return;
        if (p == probe.taPage)
            continue;
        const Addr cand = pool_.at(p, kCalibLineIndex);
        if (member_base.count(
                cand & ~static_cast<Addr>(kPageBytes - 1))) {
            // A minimal-set member inside the window is a verified
            // congruent sample.  It cannot re-run the substitution
            // vote (swapping it in duplicates a member), but it must
            // stay in the estimator: members are 100% congruent, so
            // dropping them from both counts would deflate the hit
            // rate and inflate U.
            ++out.membershipTests;
            ++out.membershipHits;
            continue;
        }
        ++out.membershipTests;
        if (congruent(probe.ta, probe.minSet, cand)) {
            ++out.membershipHits;
            probe.congruentPages.push_back(p);
        }
    }
}

unsigned
TopologyProber::measureSfWays(TargetProbe &probe, Cycles deadline,
                              CalibratedTopology &out)
{
    auto sf_evicts = [&](const std::vector<Addr> &set) {
        return session_.testEvictionSfParallel(probe.ta, set,
                                               set.size()) &&
               session_.testEvictionSfParallel(probe.ta, set,
                                               set.size());
    };

    std::vector<Addr> current = probe.minSet;
    if (sf_evicts(current))
        return static_cast<unsigned>(current.size()); // W_SF == W_LLC

    // Extend with congruent pages: the scan hits first, then keep
    // scanning the pool past the sample window.
    FlatSet<Addr> used;
    used.insert(pool_.at(probe.taPage, 0));
    for (Addr a : current)
        used.insert(a & ~static_cast<Addr>(kPageBytes - 1));

    auto extend_with = [&](std::size_t page, bool record) -> int {
        const Addr base = pool_.at(page, 0);
        if (!used.insert(base))
            return 0;
        const Addr cand = pool_.at(page, kCalibLineIndex);
        // Continuation-scan tests (record == true) are fresh
        // congruence samples; pool them into the U estimator.  The
        // scan-hit replays are already counted.
        if (record)
            ++out.membershipTests;
        if (!congruent(probe.ta, probe.minSet, cand))
            return 0;
        if (record)
            ++out.membershipHits;
        current.push_back(cand);
        if (record)
            probe.congruentPages.push_back(page);
        if (current.size() > cfg_.maxWays)
            return -1; // runaway: SF test never fired
        if (sf_evicts(current))
            return 1;
        return 0;
    };

    // Scan hits are substitution-confirmed already; consume them
    // first (by index: the pool continuation below records new hits
    // into the same vector).
    const std::size_t known_hits = probe.congruentPages.size();
    for (std::size_t i = 0; i < known_hits; ++i) {
        if (session_.expired(deadline))
            return 0;
        const int r = extend_with(probe.congruentPages[i], false);
        if (r != 0)
            return r > 0 ? static_cast<unsigned>(current.size()) : 0;
    }
    // Continue past the membership-scan window (its pages were all
    // tested above or during the scan; re-testing would double-count
    // correlated samples into the U estimator).
    for (std::size_t p =
             std::min<std::size_t>(cfg_.samplePages, pool_.pages());
         p < pool_.pages(); ++p) {
        if (session_.expired(deadline))
            return 0;
        const int r = extend_with(p, true);
        if (r != 0)
            return r > 0 ? static_cast<unsigned>(current.size()) : 0;
    }
    return 0;
}

void
TopologyProber::survivalProbe(TargetProbe &probe, Cycles deadline,
                              CalibratedTopology &out)
{
    const Addr ta2 = pool_.at(probe.taPage, kCalibCrossLineIndex);
    const std::vector<Addr> min_set2 =
        minimalSetFor(ta2, kCalibCrossLineIndex, deadline);
    if (min_set2.empty())
        return; // no survival data; snapGeometry falls back

    FlatSet<Addr> exclude;
    exclude.insert(pool_.at(probe.taPage, 0));
    for (Addr a : min_set2)
        exclude.insert(a & ~static_cast<Addr>(kPageBytes - 1));

    // Every page here is congruent with the target page at
    // kCalibLineIndex: the set-index bits above the page offset carry
    // over to any offset, so cross-offset survival measures only
    // whether the slice hash re-rolled onto the same slice (~1/S).
    std::vector<std::size_t> pages = probe.congruentPages;
    for (Addr a : probe.minSet) {
        const auto *e =
            pageOfBase_.find(a & ~static_cast<Addr>(kPageBytes - 1));
        if (e)
            pages.push_back(e->second);
    }
    for (std::size_t p : pages) {
        if (session_.expired(deadline))
            return;
        if (p == probe.taPage)
            continue;
        if (exclude.count(pool_.at(p, 0))) {
            // A min_set2 member among our L0-congruent pages is a
            // verified survivor (congruent at both offsets).  It
            // cannot be substitution-tested against its own set, but
            // skipping it would deflate the survival rate — these
            // pages are survivors with certainty.
            ++out.survivalTests;
            ++out.survivalHits;
            continue;
        }
        ++out.survivalTests;
        if (congruent(ta2, min_set2, pool_.at(p, kCalibCrossLineIndex)))
            ++out.survivalHits;
    }
}

void
TopologyProber::snapGeometry(CalibratedTopology &out)
{
    // Raw estimators, censored when a count came back empty: zero
    // hits in T tests only bounds the value below by ~T.  The
    // observed hit rate is (1/U) * recall, so the measured recall of
    // the congruence vote divides back out (clamped: a recall
    // estimate below one-half says the vote itself is broken, and
    // scaling by it would just amplify its noise).
    double recall = 1.0;
    if (out.recallTests > 0) {
        recall = std::max(0.5,
                          static_cast<double>(out.recallPasses) /
                              static_cast<double>(out.recallTests));
    }
    double u_raw = 1.0;
    if (out.membershipTests > 0) {
        u_raw = out.membershipHits > 0
                    ? recall *
                          static_cast<double>(out.membershipTests) /
                          static_cast<double>(out.membershipHits)
                    : static_cast<double>(out.membershipTests + 1);
    }
    double s_raw = 1.0;
    bool s_known = false;
    if (out.survivalTests > 0) {
        s_known = true;
        // Survival hits are suppressed by the same false negatives.
        s_raw = out.survivalHits > 0
                    ? recall *
                          static_cast<double>(out.survivalTests) /
                          static_cast<double>(out.survivalHits)
                    : static_cast<double>(out.survivalTests + 1);
        s_raw = std::max(1.0, s_raw);
    }
    out.uncertaintyRaw = u_raw;
    out.slicesRaw = s_known ? s_raw : 0.0;

    // Joint integer snap: pick (uncontrolled bits u, slices s) whose
    // implied U = 2^u * s and slice count best match both raw
    // estimators in log space.  First minimum wins: deterministic.
    const double log_u = std::log(std::max(1.0, u_raw));
    const double log_s = std::log(std::max(1.0, s_raw));
    unsigned best_u = 0, best_s = 1;
    double best_cost = 0.0;
    bool first = true;
    for (unsigned u = 0; u <= 12; ++u) {
        for (unsigned s = 1; s <= 64; ++s) {
            const double log_total =
                std::log(static_cast<double>(1u << u) *
                         static_cast<double>(s));
            const double eu = log_total - log_u;
            const double es =
                std::log(static_cast<double>(s)) - log_s;
            const double cost = eu * eu + es * es;
            if (first || cost < best_cost) {
                first = false;
                best_cost = cost;
                best_u = u;
                best_s = s;
            }
        }
    }
    out.view.uncontrolledIndexBits = best_u;
    out.view.slices = best_s;
}

CalibratedTopology
TopologyProber::calibrate()
{
    Machine &m = session_.machine();
    const Cycles t0 = m.now();
    const std::uint64_t tests0 = session_.testCount();
    const Cycles deadline = t0 + msToCycles(cfg_.budgetMs);

    CalibratedTopology out;
    auto finish = [&]() -> CalibratedTopology & {
        out.cycles = m.now() - t0;
        out.testEvictions = session_.testCount() - tests0;
        return out;
    };

    // Stage 1: minimal LLC sets on independent targets.
    std::vector<TargetProbe> probes;
    std::vector<unsigned> w_llc_votes;
    for (unsigned t = 0; t < kCalibTargets; ++t) {
        if (session_.expired(deadline))
            break;
        TargetProbe probe;
        probe.taPage = session_.rng().nextBelow(pool_.pages());
        probe.ta = pool_.at(probe.taPage, kCalibLineIndex);
        probe.minSet =
            minimalSetFor(probe.ta, kCalibLineIndex, deadline);
        if (probe.minSet.empty())
            continue;
        w_llc_votes.push_back(
            static_cast<unsigned>(probe.minSet.size()));
        probes.push_back(std::move(probe));
    }
    if (probes.empty())
        return finish(); // invalid: nothing measurable in budget
    const unsigned w_llc = majority(w_llc_votes, &out.wLlcAgreement);

    // Stage 3 first (its hits feed the SF extension): membership scan
    // on every target whose minimal size matches the vote.
    for (TargetProbe &probe : probes) {
        if (probe.minSet.size() == w_llc)
            membershipScan(probe, deadline, out);
    }

    // Stage 2: W_SF by extension until the SF TestEviction fires.
    std::vector<unsigned> w_sf_votes;
    for (TargetProbe &probe : probes) {
        if (probe.minSet.size() != w_llc)
            continue;
        probe.wSf = measureSfWays(probe, deadline, out);
        if (probe.wSf)
            w_sf_votes.push_back(probe.wSf);
    }
    if (w_sf_votes.empty())
        return finish(); // invalid: SF ways unmeasurable
    const unsigned w_sf = majority(w_sf_votes, &out.wSfAgreement);

    // Recall self-measurement: fresh votes on pages already known
    // congruent.  Conditioning on the original pass does not bias
    // this — noise is independent across votes given congruence.
    for (TargetProbe &probe : probes) {
        if (probe.minSet.size() != w_llc || probe.wSf != w_sf)
            continue;
        const std::size_t n =
            std::min<std::size_t>(probe.congruentPages.size(), 8);
        for (std::size_t i = 0; i < n; ++i) {
            const Addr cand =
                pool_.at(probe.congruentPages[i], kCalibLineIndex);
            for (int r = 0; r < 2; ++r) {
                if (session_.expired(deadline))
                    break;
                ++out.recallTests;
                if (congruent(probe.ta, probe.minSet, cand))
                    ++out.recallPasses;
            }
        }
        break; // one well-measured target suffices
    }

    // Stage 4: slice survival on the first well-measured target (one
    // extra reduction; further targets add cost, little information).
    for (TargetProbe &probe : probes) {
        if (probe.minSet.size() == w_llc && probe.wSf == w_sf) {
            survivalProbe(probe, deadline, out);
            break;
        }
    }

    out.view.wLlc = w_llc;
    out.view.wSf = w_sf;
    out.view.fromOracle = false;
    snapGeometry(out);
    out.hashModel =
        SliceHashParams::opaque(out.view.slices, /*salt=*/0);
    out.confidence =
        out.wLlcAgreement * out.wSfAgreement *
        std::min(1.0, static_cast<double>(out.membershipHits) / 4.0) *
        std::min(1.0, static_cast<double>(out.survivalTests) / 6.0);
    // A deadline-starved run can measure the way counts yet collect
    // no class-structure evidence at all; adopting its U=1/slices=1
    // fallback would silently cripple the attack, so such a run is
    // a failed calibration, not a low-confidence one.
    out.valid =
        w_llc > 0 && w_sf >= w_llc && out.membershipTests > 0;
    return finish();
}

CalibrationReport
compareToOracle(const CalibratedTopology &calib,
                const MachineConfig &cfg)
{
    CalibrationReport rep;
    auto field = [&rep](const char *name, double measured,
                        double expected) {
        CalibrationFieldReport f;
        f.field = name;
        f.measured = measured;
        f.expected = expected;
        f.match = measured == expected;
        if (f.match)
            ++rep.matches;
        rep.fields.push_back(f);
    };
    const TopologyView &v = calib.view;
    field("w_llc", v.wLlc, cfg.llc.ways);
    field("w_sf", v.wSf, cfg.sf.ways);
    field("slices", v.slices, cfg.sf.slices);
    field("uncontrolled_index_bits", v.uncontrolledIndexBits,
          cfg.sf.uncontrolledIndexBits());
    field("uncertainty", v.uncertainty(), cfg.sf.uncertainty());
    field("sets_per_slice", v.setsPerSlice(), cfg.sf.sets);
    rep.allMatch = calib.valid && rep.matches == rep.fields.size();
    return rep;
}

} // namespace llcf

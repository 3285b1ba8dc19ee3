#include "builder.hh"

#include <algorithm>

#include "common/flat_set.hh"
#include "common/log.hh"

namespace llcf {

EvictionSetBuilder::EvictionSetBuilder(AttackSession &session,
                                       PruneAlgo algo, bool use_filter)
    : session_(session),
      pruner_(makePruner(algo)),
      useFilter_(use_filter),
      filter_(session)
{
}

std::optional<std::vector<Addr>>
EvictionSetBuilder::extendToSf(Addr ta, const std::vector<Addr> &llc_set,
                               const std::vector<Addr> &cands,
                               Cycles deadline)
{
    const TopologyView &topo = session_.topology();
    const unsigned w_llc = static_cast<unsigned>(llc_set.size());
    // W_SF - W_LLC further congruent addresses are needed: 1 on
    // Skylake-SP (12- vs 11-way) but 4 on Ice Lake-SP (16- vs
    // 12-way).  LLC and SF share the set mapping and slice hash, so
    // LLC-congruence is the membership test.
    const unsigned needed =
        topo.wSf > w_llc ? topo.wSf - w_llc : 1;

    FlatSet<Addr> exclude(llc_set.begin(), llc_set.end());
    exclude.insert(ta);
    std::vector<Addr> extras;
    // Substitution probe: llc_set with its last member swapped for the
    // candidate — the set evicts ta again iff the candidate is
    // congruent too.
    std::vector<Addr> probe = llc_set;
    for (Addr x : cands) {
        if (session_.expired(deadline))
            return std::nullopt;
        if (exclude.count(x))
            continue;
        probe.back() = x;
        // Two consecutive positives damp noise-induced false
        // congruence, as in the per-candidate SF test this replaces.
        if (!session_.testEvictionLlcParallel(ta, probe, probe.size()) ||
            !session_.testEvictionLlcParallel(ta, probe, probe.size()))
            continue;
        extras.push_back(x);
        exclude.insert(x);
        if (extras.size() < needed)
            continue;
        // Full-set confirmation against the SF; two consecutive
        // positives damp noise-induced false hits.
        std::vector<Addr> full = llc_set;
        full.insert(full.end(), extras.begin(), extras.end());
        if (session_.testEvictionSfParallel(ta, full, full.size()) &&
            session_.testEvictionSfParallel(ta, full, full.size())) {
            return extras;
        }
        // Confirmation failed: drop the latest pick and keep looking.
        exclude.erase(extras.back());
        extras.pop_back();
    }
    return std::nullopt;
}

std::optional<BuiltEvictionSet>
EvictionSetBuilder::attemptBuild(Addr ta, const std::vector<Addr> &cands,
                                 Cycles deadline, unsigned *backtracks)
{
    const unsigned w_llc = session_.topology().wLlc;

    std::vector<Addr> working = cands;
    session_.rng().shuffle(working);

    PruneResult pr = pruner_->prune(session_, ta, std::move(working),
                                    w_llc, deadline, TestTarget::Llc);
    if (backtracks)
        *backtracks += pr.backtracks;
    if (!pr.success)
        return std::nullopt;

    auto ext = extendToSf(ta, pr.evset, cands, deadline);
    if (!ext)
        return std::nullopt;

    BuiltEvictionSet evset;
    evset.target = ta;
    evset.llcSet = pr.evset;
    evset.sfSet = pr.evset;
    evset.sfSet.insert(evset.sfSet.end(), ext->begin(), ext->end());
    return evset;
}

bool
EvictionSetBuilder::validateGroundTruth(const BuiltEvictionSet &evset)
    const
{
    const Machine &m = session_.machine();
    if (evset.sfSet.size() != m.config().sf.ways)
        return false;
    const unsigned target_set = m.sharedSetOf(evset.target);
    for (Addr a : evset.sfSet) {
        if (m.sharedSetOf(a) != target_set)
            return false;
    }
    return true;
}

BuildOutcome
EvictionSetBuilder::buildForTarget(Addr ta, std::vector<Addr> cands)
{
    BuildOutcome out;
    Machine &m = session_.machine();
    const Cycles start = m.now();
    const Cycles deadline = start + session_.evsetBudget();

    std::vector<Addr> working = std::move(cands);
    bool filtered = false;
    for (unsigned a = 0; a < kMaxAttempts; ++a) {
        if (session_.expired(deadline))
            break;
        ++out.attempts;

        if (useFilter_ && !filtered) {
            auto l2set = filter_.buildL2EvictionSet(ta, working,
                                                    deadline);
            if (!l2set)
                continue; // attempt consumed by a failed filter build
            working = filter_.filter(*l2set, working);
            filtered = true;
            if (working.size() < session_.topology().wSf)
                break; // filtering left too few candidates
        }

        auto built = attemptBuild(ta, working, deadline,
                                  &out.backtracks);
        if (built) {
            out.success = true;
            out.evset = std::move(*built);
            out.groundTruthValid = validateGroundTruth(out.evset);
            break;
        }
    }
    out.elapsed = m.now() - start;
    return out;
}

Cycles
EvictionSetBuilder::partitionBudget() const
{
    const auto &l2 = session_.machine().config().l2;
    return session_.evsetBudget() * (4 * l2.uncertainty() + 16);
}

bool
EvictionSetBuilder::coveredByExisting(
    Addr ta, const std::vector<BuiltEvictionSet> &sets)
{
    if (sets.empty())
        return false;
    std::vector<Addr> union_lines;
    union_lines.reserve(sets.size() * sets.front().sfSet.size());
    for (const auto &s : sets) {
        union_lines.insert(union_lines.end(), s.sfSet.begin(),
                           s.sfSet.end());
    }
    return session_.testEvictionLlcParallel(ta, union_lines,
                                            union_lines.size());
}

void
EvictionSetBuilder::buildClass(std::vector<Addr> members,
                               BulkOutcome &out)
{
    Machine &m = session_.machine();
    const unsigned w_sf = session_.topology().wSf;
    session_.rng().shuffle(members);

    std::vector<BuiltEvictionSet> class_sets;
    FlatSet<Addr> consumed;

    for (std::size_t idx = 0; idx < members.size(); ++idx) {
        const Addr ta = members[idx];
        if (consumed.count(ta))
            continue;
        // Remaining candidate pool for this target.
        std::vector<Addr> working;
        working.reserve(members.size() - idx);
        for (std::size_t j = idx + 1; j < members.size(); ++j) {
            if (!consumed.count(members[j]))
                working.push_back(members[j]);
        }
        if (working.size() < w_sf)
            break; // ran out of candidates

        if (coveredByExisting(ta, class_sets))
            continue; // this SF set already has an eviction set

        const Cycles deadline = m.now() + session_.evsetBudget();
        for (unsigned a = 0; a < kMaxAttempts; ++a) {
            if (session_.expired(deadline))
                break;
            auto built = attemptBuild(ta, working, deadline, nullptr);
            if (built) {
                for (Addr used : built->sfSet)
                    consumed.insert(used);
                class_sets.push_back(std::move(*built));
                break;
            }
        }
    }

    // Account the class results, deduplicating by ground-truth set.
    FlatSet<unsigned> seen_sets;
    for (const auto &s : out.evsets)
        seen_sets.insert(m.sharedSetOf(s.target));
    for (auto &s : class_sets) {
        ++out.builtSets;
        if (validateGroundTruth(s) &&
            !seen_sets.count(m.sharedSetOf(s.target))) {
            ++out.validSets;
            seen_sets.insert(m.sharedSetOf(s.target));
        }
        out.evsets.push_back(std::move(s));
    }
}

BulkOutcome
EvictionSetBuilder::buildAtLineIndex(const CandidatePool &pool,
                                     unsigned line_index)
{
    Machine &m = session_.machine();
    BulkOutcome out;
    // The attacker's own coverage expectation: its (possibly
    // calibrated) uncertainty U, not the oracle's.
    out.expectedSets = session_.topology().uncertainty();
    const Cycles start = m.now();

    std::vector<Addr> cands = pool.candidatesAt(line_index);
    if (useFilter_) {
        // The partition deadline must stay far above the undefended
        // cost (so it never trips and changes bytes) but finite: a
        // defense that starves L2 priming (an SF partition back-
        // invalidating primed lines) otherwise leaves the pruner
        // churning inside an hour-scale horizon instead of failing
        // the build explicitly.
        const Cycles far = m.now() + partitionBudget();
        auto classes = filter_.partition(std::move(cands), far);
        for (auto &cls : classes)
            buildClass(std::move(cls.members), out);
    } else {
        buildClass(std::move(cands), out);
    }
    out.elapsed = m.now() - start;
    return out;
}

BulkOutcome
EvictionSetBuilder::buildWholeSystem(const CandidatePool &pool,
                                     std::vector<unsigned> line_indices)
{
    Machine &m = session_.machine();
    if (line_indices.empty()) {
        line_indices.resize(kLinesPerPage);
        for (unsigned i = 0; i < kLinesPerPage; ++i)
            line_indices[i] = i;
    }

    BulkOutcome out;
    out.expectedSets = session_.topology().uncertainty() *
                       static_cast<unsigned>(line_indices.size());
    const Cycles start = m.now();

    if (useFilter_) {
        // Build the L2 classes once at line index 0 and reuse them at
        // every other offset via same-page shifts (Section 5.3.1).
        // Same finite horizon as buildAtLineIndex.
        const Cycles far = m.now() + partitionBudget();
        auto base_classes = filter_.partition(pool.candidatesAt(0), far);
        for (unsigned li : line_indices) {
            auto classes = CandidateFilter::shiftClasses(base_classes,
                                                         li);
            for (auto &cls : classes)
                buildClass(std::move(cls.members), out);
        }
    } else {
        for (unsigned li : line_indices)
            buildClass(pool.candidatesAt(li), out);
    }
    out.elapsed = m.now() - start;
    return out;
}

} // namespace llcf

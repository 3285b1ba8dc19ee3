#include "filter.hh"

#include <algorithm>
#include <cmath>

#include "common/flat_set.hh"
#include "evset/candidate.hh"

namespace llcf {

CandidateFilter::CandidateFilter(AttackSession &session)
    : session_(session)
{
}

std::optional<std::vector<Addr>>
CandidateFilter::buildL2EvictionSet(Addr ta,
                                    const std::vector<Addr> &cands,
                                    Cycles deadline)
{
    const auto &l2 = session_.machine().config().l2;
    const std::size_t need = static_cast<std::size_t>(
        std::ceil(kCandidateFactor * l2.uncertainty() * l2.ways));

    if (cands.size() < l2.ways)
        return std::nullopt;

    std::vector<Addr> sample(cands.begin(),
                             cands.begin() +
                             std::min(cands.size(), need));

    PruneResult pr = pruner_.prune(session_, ta, std::move(sample),
                                   l2.ways, deadline,
                                   TestTarget::PrivateL2);
    if (!pr.success)
        return std::nullopt;
    return pr.evset;
}

std::vector<Addr>
CandidateFilter::filter(const std::vector<Addr> &l2_evset,
                        const std::vector<Addr> &cands)
{
    std::vector<Addr> kept;
    kept.reserve(cands.size() / 8);
    Machine &m = session_.machine();
    for (Addr a : cands) {
        // Skip the eviction set's own members; they are congruent by
        // construction and retained by the caller via the class'
        // member list.
        if (std::find(l2_evset.begin(), l2_evset.end(), a) !=
            l2_evset.end()) {
            kept.push_back(a);
            continue;
        }
        // Flush the working set so every access is a fresh L2 fill
        // (see AttackSession::testEvictionLlcParallel).
        m.accessBatch(kMainCore, l2_evset, {BatchOp::Flush, true, -1});
        m.clflush(kMainCore, a);
        m.load(kMainCore, a);
        m.accessBatch(kMainCore, l2_evset, {BatchOp::Load, true, -1});
        if (session_.probePrivateMiss(a))
            kept.push_back(a);
    }
    return kept;
}

std::vector<CandidateFilter::L2Class>
CandidateFilter::partition(std::vector<Addr> cands, Cycles deadline)
{
    std::vector<L2Class> classes;
    const auto &l2 = session_.machine().config().l2;
    const unsigned max_classes = l2.uncertainty();
    unsigned consecutive_failures = 0;

    while (!cands.empty() && classes.size() < max_classes) {
        if (session_.expired(deadline) || consecutive_failures > 4)
            break;
        const Addr ta = cands.front();
        // The target itself must not appear among the candidates the
        // eviction set is built from.
        std::vector<Addr> rest(cands.begin() + 1, cands.end());

        auto l2set = buildL2EvictionSet(ta, rest, deadline);
        if (!l2set) {
            ++consecutive_failures;
            // Rotate so a different target is tried next.
            std::rotate(cands.begin(), cands.begin() + 1, cands.end());
            continue;
        }
        consecutive_failures = 0;

        L2Class cls;
        cls.l2Evset = *l2set;
        cls.members = filter(cls.l2Evset, rest);
        // ta itself belongs to the class.
        if (std::find(cls.members.begin(), cls.members.end(), ta) ==
            cls.members.end()) {
            cls.members.push_back(ta);
        }

        // Remove the class members from the remaining pool.
        FlatSet<Addr> member_set(cls.members.begin(),
                                 cls.members.end());
        std::vector<Addr> remaining;
        remaining.reserve(cands.size() - cls.members.size());
        for (Addr a : cands) {
            if (!member_set.count(a))
                remaining.push_back(a);
        }
        cands = std::move(remaining);
        classes.push_back(std::move(cls));
    }
    return classes;
}

std::vector<CandidateFilter::L2Class>
CandidateFilter::shiftClasses(const std::vector<L2Class> &at_zero,
                              unsigned line_index)
{
    std::vector<L2Class> out;
    out.reserve(at_zero.size());
    for (const auto &cls : at_zero) {
        L2Class shifted;
        shifted.l2Evset =
            CandidatePool::shiftToLineIndex(cls.l2Evset, line_index);
        shifted.members =
            CandidatePool::shiftToLineIndex(cls.members, line_index);
        out.push_back(std::move(shifted));
    }
    return out;
}

} // namespace llcf

#include "algorithms.hh"

#include <algorithm>

#include "common/log.hh"
#include "common/options.hh"

namespace llcf {

const char *
pruneAlgoName(PruneAlgo algo)
{
    switch (algo) {
      case PruneAlgo::Gt:
        return "Gt";
      case PruneAlgo::GtOp:
        return "GtOp";
      case PruneAlgo::Ps:
        return "Ps";
      case PruneAlgo::PsOp:
        return "PsOp";
      case PruneAlgo::BinS:
        return "BinS";
    }
    return "?";
}

bool
parsePruneAlgo(const std::string &name, PruneAlgo &out)
{
    for (PruneAlgo algo : kAllPruneAlgos) {
        if (equalsIgnoreCase(name, pruneAlgoName(algo))) {
            out = algo;
            return true;
        }
    }
    return false;
}

bool
verifyEvictionSet(AttackSession &session, Addr ta,
                  const std::vector<Addr> &evset, unsigned votes,
                  TestTarget target)
{
    unsigned positive = 0;
    for (unsigned v = 0; v < votes; ++v) {
        if (session.testEviction(target, ta, evset, evset.size()))
            ++positive;
    }
    return positive * 2 > votes;
}

// ------------------------------------------------------ group testing

PruneResult
GroupTestPruner::prune(AttackSession &session, Addr ta,
                       std::vector<Addr> cands, unsigned target_ways,
                       Cycles deadline, TestTarget target)
{
    PruneResult res;
    const unsigned W = target_ways;
    std::vector<Addr> set = std::move(cands);
    std::vector<std::vector<Addr>> removed_stack;

    if (set.size() < W)
        return res;

    // The full candidate set must evict Ta to begin with.
    if (!session.testEviction(target, ta, set, set.size()))
        return res;

    std::vector<Addr> trial;
    while (set.size() > W) {
        if (session.expired(deadline))
            return res;

        const unsigned G = std::min<std::size_t>(W + 1, set.size());
        const std::size_t n = set.size();

        // Contiguous group boundaries.
        std::vector<std::size_t> bounds(G + 1);
        for (unsigned g = 0; g <= G; ++g)
            bounds[g] = n * g / G;

        std::vector<bool> kept(G, true);
        bool any_removed = false;
        for (unsigned g = 0; g < G; ++g) {
            if (session.expired(deadline))
                return res;
            // Trial = all kept groups except g.
            trial.clear();
            for (unsigned h = 0; h < G; ++h) {
                if (h == g || !kept[h])
                    continue;
                trial.insert(trial.end(), set.begin() + bounds[h],
                             set.begin() + bounds[h + 1]);
            }
            if (trial.size() < W)
                continue;
            if (session.testEviction(target, ta, trial, trial.size())) {
                kept[g] = false;
                removed_stack.emplace_back(set.begin() + bounds[g],
                                           set.begin() + bounds[g + 1]);
                any_removed = true;
                if (earlyTermination_)
                    break;
            }
        }

        if (any_removed) {
            trial.clear();
            for (unsigned h = 0; h < G; ++h) {
                if (!kept[h])
                    continue;
                trial.insert(trial.end(), set.begin() + bounds[h],
                             set.begin() + bounds[h + 1]);
            }
            set = trial;
            continue;
        }

        // Stuck: a previous removal likely discarded congruent
        // addresses on a false-positive test.  Backtrack by restoring
        // the most recently removed group [Vila et al.].
        if (res.backtracks >= kMaxBacktracks)
            return res;
        ++res.backtracks;
        if (removed_stack.empty())
            return res;
        set.insert(set.end(), removed_stack.back().begin(),
                   removed_stack.back().end());
        removed_stack.pop_back();
    }

    if (set.size() != W)
        return res;
    if (!verifyEvictionSet(session, ta, set, 3, target))
        return res;
    res.success = true;
    res.evset = std::move(set);
    return res;
}

// -------------------------------------------------------- Prime+Scope

PruneResult
PrimeScopePruner::prune(AttackSession &session, Addr ta,
                        std::vector<Addr> cands, unsigned target_ways,
                        Cycles deadline, TestTarget target)
{
    PruneResult res;
    const unsigned W = target_ways;
    if (cands.size() < W)
        return res;

    std::vector<Addr> evset;
    evset.reserve(W);

    // Multiple passes over the candidate list are allowed: with an
    // LRU-like target, each detection requires ~W congruent
    // insertions after the previous re-prime, so a single pass finds
    // only a few members.
    const bool llc_target = target == TestTarget::Llc;
    if (llc_target)
        session.shareLine(ta);
    else
        session.machine().load(kMainCore, ta);
    std::size_t i = 0;
    std::size_t steps = 0;
    const std::size_t max_steps = cands.size() * 64;
    while (evset.size() < W && steps < max_steps) {
        if ((steps & 0x3f) == 0 && session.expired(deadline))
            return res;
        ++steps;
        if (i >= cands.size())
            i = 0;
        const Addr candidate = cands[i];

        // Skip already-accepted members.
        if (std::find(evset.begin(), evset.end(), candidate) !=
            evset.end()) {
            ++i;
            continue;
        }

        if (llc_target)
            session.seqSharedAccess(candidate);
        else
            session.machine().chaseLoad(kMainCore,
                                        candidate);
        const bool evicted = llc_target ? session.probeLlcMiss(ta)
                                        : session.probePrivateMiss(ta);
        if (evicted) {
            // Ta left the LLC: the last access completed an eviction,
            // so the last accessed candidate is congruent.
            evset.push_back(candidate);
            if (evset.size() == W)
                break;
            // Re-prime: the detection probe refetched Ta privately;
            // restore it to the target structure.
            if (llc_target)
                session.shareLine(ta);
            if (recharge_) {
                // PsOp (Appendix A): recharge the upcoming scan window
                // with candidates from the back of the list.
                const std::size_t window =
                    std::min<std::size_t>(cands.size() / 4,
                                          cands.size() - i - 1);
                if (window > 1) {
                    std::rotate(cands.begin() + i + 1,
                                cands.end() - window, cands.end());
                }
            }
        }
        ++i;
    }

    if (evset.size() != W)
        return res;
    if (!verifyEvictionSet(session, ta, evset, 3, target))
        return res;
    res.success = true;
    res.evset = std::move(evset);
    return res;
}

// ------------------------------------------------------ binary search

PruneResult
BinarySearchPruner::prune(AttackSession &session, Addr ta,
                          std::vector<Addr> cands, unsigned target_ways,
                          Cycles deadline, TestTarget target)
{
    PruneResult res;
    const unsigned W = target_ways;
    const std::size_t N = cands.size();
    if (N < W)
        return res;

    // Figure 4, 0-based: after iteration i, cands[0..i] are congruent
    // and the first UB addresses always contain W congruent addresses.
    std::size_t UB = N;

    // The invariant needs the full set to evict Ta.
    if (!session.testEviction(target, ta, cands, N))
        return res;

    for (unsigned i = 0; i < W; ++i) {
        std::size_t LB = i;     // first i entries are found congruent
        bool redo = true;
        while (redo) {
            redo = false;
            while (UB - LB != 1) {
                if (session.expired(deadline))
                    return res;
                const std::size_t n = (LB + UB) / 2;
                if (session.testEviction(target, ta, cands, n))
                    UB = n;
                else
                    LB = n;
            }
            // cands[UB-1] is the W-th congruent address of the prefix.
            std::swap(cands[i], cands[UB - 1]);

            // Detect the erroneous state a false-positive test causes:
            // the first UB addresses should still evict Ta.
            if (!session.testEviction(target, ta, cands, UB)) {
                if (res.backtracks >= kMaxBacktracks)
                    return res;
                ++res.backtracks;
                // Recover by widening UB with a large stride until the
                // prefix evicts again, then redo this iteration.
                const std::size_t stride = std::max<std::size_t>(8, N / 16);
                std::swap(cands[i], cands[UB - 1]); // undo the swap
                while (UB < N) {
                    if (session.expired(deadline))
                        return res;
                    UB = std::min(N, UB + stride);
                    if (session.testEviction(target, ta, cands, UB))
                        break;
                }
                if (UB >= N &&
                    !session.testEviction(target, ta, cands, N)) {
                    return res; // candidate set no longer sufficient
                }
                LB = i;
                redo = true;
            }
        }
    }

    std::vector<Addr> evset(cands.begin(), cands.begin() + W);
    if (!verifyEvictionSet(session, ta, evset, 3, target))
        return res;
    res.success = true;
    res.evset = std::move(evset);
    return res;
}

BlindReduceResult
blindReduceToMinimal(AttackSession &session, Addr ta,
                     std::vector<Addr> cands, Cycles deadline,
                     TestTarget target)
{
    BlindReduceResult out;
    auto test = [&](const std::vector<Addr> &s) {
        ++out.tests;
        return session.testEviction(target, ta, s, s.size());
    };

    // The pool must evict to begin with (one retry damps noise).
    if (cands.empty() || (!test(cands) && !test(cands)))
        return out;

    std::vector<Addr> s = std::move(cands);
    bool changed = true;
    while (changed && !session.expired(deadline)) {
        changed = false;
        // Try removing progressively smaller blocks; a removal
        // sticks iff the remainder still evicts the target.
        for (std::size_t block = s.size() / 2; block >= 1;
             block /= 2) {
            std::size_t i = 0;
            while (i < s.size() && s.size() > block) {
                if (session.expired(deadline))
                    return out;
                const std::size_t cut = std::min(block, s.size() - i);
                std::vector<Addr> t;
                t.reserve(s.size() - cut);
                t.insert(t.end(), s.begin(),
                         s.begin() + static_cast<long>(i));
                t.insert(t.end(),
                         s.begin() + static_cast<long>(i + cut),
                         s.end());
                if (!t.empty() && test(t)) {
                    s = std::move(t);
                    changed = true;
                } else {
                    i += cut;
                }
            }
        }
    }

    // Two consecutive positives confirm the survivor still evicts —
    // a reduction broken by a noise-lucky removal fails here instead
    // of reporting a too-small "associativity".
    if (session.expired(deadline) || !test(s) || !test(s))
        return out;
    out.success = true;
    out.evset = std::move(s);
    return out;
}

std::unique_ptr<Pruner>
makePruner(PruneAlgo algo)
{
    switch (algo) {
      case PruneAlgo::Gt:
        return std::make_unique<GroupTestPruner>(true);
      case PruneAlgo::GtOp:
        return std::make_unique<GroupTestPruner>(false);
      case PruneAlgo::Ps:
        return std::make_unique<PrimeScopePruner>(false);
      case PruneAlgo::PsOp:
        return std::make_unique<PrimeScopePruner>(true);
      case PruneAlgo::BinS:
        return std::make_unique<BinarySearchPruner>();
    }
    panic("unknown pruning algorithm");
}

} // namespace llcf

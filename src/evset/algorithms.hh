/**
 * @file
 * Address-pruning algorithms (paper Sections 2.2.1, 5.2, Appendix A).
 *
 * Given a target address Ta and a candidate set containing at least W
 * congruent addresses, a pruner reduces the candidates to a minimal
 * LLC eviction set of W addresses:
 *
 *  - Gt    : group testing [Vila et al., Qureshi] with backtracking
 *            and early termination, using parallel TestEviction.
 *  - GtOp  : the paper's optimised group testing — no early
 *            termination, pruning larger groups per round.
 *  - Ps    : Prime+Scope [Purnal et al.]: sequential scan; after each
 *            candidate access a non-promoting scope probe of Ta tells
 *            whether the last access completed an eviction.
 *  - PsOp  : Prime+Scope with the paper's "recharge" optimisation:
 *            after a congruent address is found, candidates from the
 *            back of the list are moved near the front.
 *  - BinS  : the paper's binary-search pruner (Figure 4) with the
 *            stride-recovery backtracking of Section 5.2.
 */

#ifndef LLCF_EVSET_ALGORITHMS_HH
#define LLCF_EVSET_ALGORITHMS_HH

#include <memory>
#include <vector>

#include "evset/session.hh"

namespace llcf {

/** Selectable pruning algorithms. */
enum class PruneAlgo { Gt, GtOp, Ps, PsOp, BinS };

/** Human-readable algorithm name (paper nomenclature). */
const char *pruneAlgoName(PruneAlgo algo);

/** All pruning algorithms, for sweep-style experiments. */
inline constexpr PruneAlgo kAllPruneAlgos[] = {
    PruneAlgo::Gt, PruneAlgo::GtOp, PruneAlgo::Ps, PruneAlgo::PsOp,
    PruneAlgo::BinS};

/** Outcome of one pruning attempt. */
struct PruneResult
{
    bool success = false;
    std::vector<Addr> evset; //!< W addresses believed congruent
    unsigned backtracks = 0;
};

/**
 * Abstract pruning algorithm.  Implementations must stop when the
 * absolute deadline passes and report failure.
 */
class Pruner
{
  public:
    virtual ~Pruner() = default;

    virtual PruneAlgo kind() const = 0;

    /**
     * Reduce @p cands to a minimal eviction set of @p target_ways
     * addresses for the cache set of @p ta in @p target.
     *
     * @param session Attacker context providing TestEviction.
     * @param ta Target address (not included in the eviction set).
     * @param cands Candidate addresses; consumed (reordered freely).
     * @param target_ways Associativity W of the target structure.
     * @param deadline Absolute virtual time to give up at.
     * @param target Structure to evict from (LLC or private L2).
     */
    virtual PruneResult prune(AttackSession &session, Addr ta,
                              std::vector<Addr> cands,
                              unsigned target_ways, Cycles deadline,
                              TestTarget target = TestTarget::Llc) = 0;
};

/** Group testing; @p early_termination distinguishes Gt from GtOp. */
class GroupTestPruner : public Pruner
{
  public:
    explicit GroupTestPruner(bool early_termination)
        : earlyTermination_(early_termination)
    {
    }

    PruneAlgo
    kind() const override
    {
        return earlyTermination_ ? PruneAlgo::Gt : PruneAlgo::GtOp;
    }

    PruneResult prune(AttackSession &session, Addr ta,
                      std::vector<Addr> cands, unsigned target_ways,
                      Cycles deadline,
                      TestTarget target = TestTarget::Llc) override;

  private:
    bool earlyTermination_;
};

/** Prime+Scope; @p recharge distinguishes PsOp from Ps. */
class PrimeScopePruner : public Pruner
{
  public:
    explicit PrimeScopePruner(bool recharge) : recharge_(recharge) {}

    PruneAlgo
    kind() const override
    {
        return recharge_ ? PruneAlgo::PsOp : PruneAlgo::Ps;
    }

    PruneResult prune(AttackSession &session, Addr ta,
                      std::vector<Addr> cands, unsigned target_ways,
                      Cycles deadline,
                      TestTarget target = TestTarget::Llc) override;

  private:
    bool recharge_;
};

/** The paper's binary-search pruner (Figure 4). */
class BinarySearchPruner : public Pruner
{
  public:
    PruneAlgo kind() const override { return PruneAlgo::BinS; }

    PruneResult prune(AttackSession &session, Addr ta,
                      std::vector<Addr> cands, unsigned target_ways,
                      Cycles deadline,
                      TestTarget target = TestTarget::Llc) override;
};

/** Factory. */
std::unique_ptr<Pruner> makePruner(PruneAlgo algo);

/**
 * Verify a pruned eviction set by repeated TestEviction (majority of
 * @p votes).  Attacker-visible check; ground-truth validation lives
 * in the builder / tests.
 */
bool verifyEvictionSet(AttackSession &session, Addr ta,
                       const std::vector<Addr> &evset, unsigned votes = 3,
                       TestTarget target = TestTarget::Llc);

/** Outcome of a blind (associativity-unknown) reduction. */
struct BlindReduceResult
{
    bool success = false;
    std::vector<Addr> evset; //!< minimal set; its size measures W
    unsigned tests = 0;      //!< TestEviction executions consumed
};

/**
 * Reduce @p cands to a *minimal* eviction set for @p ta without
 * knowing the target associativity — the group-testing primitive
 * Step-0 calibration rests on, usable before the slice hash or any
 * way count has been measured.  Shrinking blocks are removed while
 * the remainder still evicts (each removal re-tested by TestEviction),
 * then single members, until no member can be dropped; the final
 * size *is* the measured associativity.  Noise can break a reduction
 * (a false-positive test discards needed members); the final double
 * verification catches that and reports failure so callers retry.
 */
BlindReduceResult blindReduceToMinimal(AttackSession &session, Addr ta,
                                       std::vector<Addr> cands,
                                       Cycles deadline,
                                       TestTarget target = TestTarget::Llc);

} // namespace llcf

#endif // LLCF_EVSET_ALGORITHMS_HH

/**
 * @file
 * Attacker-side context: the cores the attacker owns and the paper's
 * fixed construction parameters (named constants), the per-session
 * seed and budget, and the TestEviction primitives every pruning
 * algorithm builds on (paper Section 4.1).
 *
 * Discipline: attack code holds translated physical line addresses as
 * opaque pointer values (the simulator's stand-in for the attacker's
 * virtual-address pointers) and only ever passes them back to Machine
 * operations.  It never inspects PA bits — the information an
 * unprivileged attacker does not have.
 */

#ifndef LLCF_EVSET_SESSION_HH
#define LLCF_EVSET_SESSION_HH

#include <span>
#include <vector>

#include "sim/machine.hh"

namespace llcf {

/** Which structure a generic TestEviction targets. */
enum class TestTarget { Llc, PrivateL2 };

/**
 * The attacker's view of the *shared* cache topology — the four
 * parameters every eviction-set procedure consumes.  In oracle mode
 * the view is copied from MachineConfig; in blind mode it starts
 * unknown and is produced by the Step-0 TopologyProber (src/calib/)
 * from timing observations alone.  Private-cache (L1/L2) geometry is
 * deliberately absent: the attacker can query its own core's caches
 * through cpuid, so the L2 filter keeps reading the config.
 */
struct TopologyView
{
    unsigned wLlc = 0;   //!< LLC associativity W_LLC
    unsigned wSf = 0;    //!< SF associativity W_SF
    unsigned slices = 1; //!< LLC/SF slice count
    /** Shared set-index bits the page offset does not control. */
    unsigned uncontrolledIndexBits = 0;
    bool fromOracle = false; //!< true when copied from MachineConfig

    /** Cache uncertainty U: congruence classes per page offset. */
    unsigned
    uncertainty() const
    {
        return (1u << uncontrolledIndexBits) * slices;
    }

    /** Shared sets per slice implied by the view (index bits =
     *  uncontrolled bits + the 6 page-controlled ones). */
    unsigned
    setsPerSlice() const
    {
        return 1u << (uncontrolledIndexBits + (kPageBits - kLineBits));
    }

    /** The oracle view of @p cfg's shared structures. */
    static TopologyView fromConfig(const MachineConfig &cfg);
};

/** Thread running the attack logic. */
constexpr unsigned kMainCore = 0;

/** Concurrent helper thread (Section 4.2). */
constexpr unsigned kHelperCore = 1;

/** Per-eviction-set construction attempts (paper: 10). */
constexpr unsigned kMaxAttempts = 10;

/** Backtracks allowed per attempt (paper: 20 for group testing). */
constexpr unsigned kMaxBacktracks = 20;

/** Candidate set size factor: N = factor * U * W (paper: 3). */
constexpr double kCandidateFactor = 3.0;

/** Knobs of the attacker program.  The paper's fixed attack
 *  parameters are the constants above; the latency thresholds are
 *  kPrivateMissThreshold / kLlcMissThreshold (sim/timing.hh). */
struct AttackerConfig
{
    /** Seed of the attacker's own randomness (shuffles, retries). */
    std::uint64_t seed = 1;

    /** Virtual-time budget per eviction set; Table 3 uses 1,000 ms,
     *  Table 4 (with candidate filtering) uses 100 ms. */
    Cycles evsetBudget = msToCycles(1000.0);

    /**
     * Blind-topology mode: the session starts with no shared-geometry
     * knowledge, and consulting topology() before adoptTopology()
     * is fatal.  The oracle default mirrors the paper's local-machine
     * experiments where the part number (and thus the geometry) is
     * known.
     */
    bool blindTopology = false;
};

/**
 * Wraps a Machine with the attacker's primitives and bookkeeping.
 */
class AttackSession
{
  public:
    AttackSession(Machine &machine, const AttackerConfig &cfg);

    Machine &machine() { return machine_; }
    AddressSpace &space() { return *space_; }
    Rng &rng() { return rng_; }

    /** Virtual-time budget per eviction set (AttackerConfig's; the
     *  seed and blind mode are consumed at construction). */
    Cycles evsetBudget() const { return evsetBudget_; }

    /** Number of TestEviction executions so far (all flavours). */
    std::uint64_t testCount() const { return testCount_; }

    // ------------------------------------------------- topology view

    /**
     * The attacker's shared-cache topology.  Fatal when the session is
     * blind and no CalibratedTopology has been adopted yet — attack
     * code structurally cannot fall back to oracle geometry.
     */
    const TopologyView &topology() const;

    /** True once topology() may be consulted. */
    bool topologyKnown() const { return topologyKnown_; }

    /** Install a (calibrated) topology view; fatal on a zero-way one. */
    void adoptTopology(const TopologyView &view);

    // -------------------------------------------------- primitives

    /**
     * Parallel TestEviction against the LLC (shared-line protocol):
     * load the target via main+helper so it is LLC-resident, traverse
     * the first @p n candidates the same way with overlapped accesses,
     * then decide from a timed probe whether the target left the LLC.
     */
    bool testEvictionLlcParallel(Addr ta, std::span<const Addr> cands,
                                 std::size_t n);

    /**
     * Parallel TestEviction against the attacker's private caches /
     * SF (store protocol): returns true iff traversing the first @p n
     * candidates (as stores) pushed the target's SF entry out.
     */
    bool testEvictionSfParallel(Addr ta, std::span<const Addr> cands,
                                std::size_t n);

    /**
     * Parallel TestEviction against the private L2 (plain loads, no
     * helper): returns true iff the target left the private caches.
     */
    bool testEvictionL2Parallel(Addr ta, std::span<const Addr> cands,
                                std::size_t n);

    /** Dispatch to the LLC or private-L2 parallel TestEviction. */
    bool testEviction(TestTarget target, Addr ta,
                      std::span<const Addr> cands, std::size_t n);

    /** Bring a line into the LLC in Shared state (main + helper). */
    void shareLine(Addr pa);

    /** One serialised shared access (Prime+Scope's candidate step). */
    void seqSharedAccess(Addr pa);

    /** Non-promoting timed probe; true iff measured >
     *  kLlcMissThreshold. */
    bool probeLlcMiss(Addr ta);

    /** Timed load; true iff measured > kPrivateMissThreshold (SF
     *  entry gone). */
    bool probePrivateMiss(Addr ta);

    /** True iff the wall-clock deadline passed. */
    bool expired(Cycles deadline) const { return machine_.now() > deadline; }

    // ------------------------------------------------ fork snapshots

    /**
     * Attacker-side state that advances while the attack runs; the
     * campaign fork path restores it together with Machine::Snapshot
     * so every forked victim sees the identical attacker.  Topology
     * is not captured: it is fixed once adopted.
     */
    struct Snapshot
    {
        Rng rng;
        std::uint64_t testCount = 0;
        AddressSpace::State space;
    };

    /** Capture attacker RNG, test counter and mappings. */
    Snapshot
    snapshot() const
    {
        return {rng_, testCount_, space_->saveState()};
    }

    /** Restore a state captured on this session. */
    void
    restore(const Snapshot &s)
    {
        rng_ = s.rng;
        testCount_ = s.testCount;
        space_->restoreState(s.space);
    }

  private:
    Machine &machine_;
    Cycles evsetBudget_;
    std::unique_ptr<AddressSpace> space_;
    Rng rng_;
    std::uint64_t testCount_ = 0;
    TopologyView topology_;
    bool topologyKnown_ = false;
};

} // namespace llcf

#endif // LLCF_EVSET_SESSION_HH

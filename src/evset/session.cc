#include "session.hh"

#include "common/log.hh"

namespace llcf {

TopologyView
TopologyView::fromConfig(const MachineConfig &cfg)
{
    TopologyView v;
    v.wLlc = cfg.llc.ways;
    v.wSf = cfg.sf.ways;
    v.slices = cfg.sf.slices;
    v.uncontrolledIndexBits = cfg.sf.uncontrolledIndexBits();
    v.fromOracle = true;
    return v;
}

AttackSession::AttackSession(Machine &machine, const AttackerConfig &cfg)
    : machine_(machine), evsetBudget_(cfg.evsetBudget),
      space_(machine.newAddressSpace()),
      rng_(mix64(cfg.seed ^ 0xa77ac3))
{
    if (!cfg.blindTopology) {
        topology_ = TopologyView::fromConfig(machine.config());
        topologyKnown_ = true;
    }
}

const TopologyView &
AttackSession::topology() const
{
    if (!topologyKnown_)
        fatal("blind attack session consulted the shared-cache "
              "topology before calibrating it (run the Step-0 "
              "TopologyProber and adoptTopology() first)");
    return topology_;
}

void
AttackSession::adoptTopology(const TopologyView &view)
{
    if (view.wLlc == 0 || view.wSf == 0 || view.slices == 0)
        fatal("refusing to adopt a degenerate topology view "
              "(W_LLC %u, W_SF %u, %u slices)",
              view.wLlc, view.wSf, view.slices);
    topology_ = view;
    topologyKnown_ = true;
}

bool
AttackSession::testEviction(TestTarget target, Addr ta,
                            std::span<const Addr> cands, std::size_t n)
{
    switch (target) {
      case TestTarget::Llc:
        return testEvictionLlcParallel(ta, cands, n);
      case TestTarget::PrivateL2:
        return testEvictionL2Parallel(ta, cands, n);
    }
    return false;
}

bool
AttackSession::testEvictionLlcParallel(Addr ta, std::span<const Addr> cands,
                                       std::size_t n)
{
    // Flush-then-access discipline: flushing the working set first
    // makes every traversal access a fresh LLC insertion.  Re-access
    // of an already-resident line would merely promote it, and
    // promotions cannot displace the target — on real hardware the
    // equivalent insertion pressure comes from the victim-cache fill
    // path; see DESIGN.md.  The flush pass is throughput-bound and
    // cheap relative to the traversal.
    ++testCount_;
    machine_.accessBatch(kMainCore, cands.subspan(0, n),
                         {BatchOp::Flush, true, -1});
    machine_.clflush(kMainCore, ta);
    machine_.loadShared(kMainCore, kHelperCore, ta);
    machine_.accessBatch(kMainCore, cands.subspan(0, n),
                         {BatchOp::Load, true,
                          static_cast<int>(kHelperCore)});
    return probeLlcMiss(ta);
}

bool
AttackSession::testEvictionSfParallel(Addr ta, std::span<const Addr> cands,
                                      std::size_t n)
{
    // This predicate runs on small candidate buffers (the LLC set
    // plus one probe address) that fit in the private caches, so the
    // whole working set is flushed first — otherwise the stores hit
    // in L1/L2 and never re-allocate SF entries, leaving stale
    // replacement ages.  Real implementations reset their own lines
    // the same way between trials.
    ++testCount_;
    machine_.clflush(kMainCore, ta);
    machine_.accessBatch(kMainCore, cands.subspan(0, n),
                         {BatchOp::Flush, false, -1});
    machine_.store(kMainCore, ta);
    machine_.accessBatch(kMainCore, cands.subspan(0, n),
                         {BatchOp::Store, true, -1});
    return probePrivateMiss(ta);
}

bool
AttackSession::testEvictionL2Parallel(Addr ta, std::span<const Addr> cands,
                                      std::size_t n)
{
    ++testCount_;
    machine_.accessBatch(kMainCore, cands.subspan(0, n),
                         {BatchOp::Flush, true, -1});
    machine_.clflush(kMainCore, ta);
    machine_.load(kMainCore, ta);
    machine_.accessBatch(kMainCore, cands.subspan(0, n),
                         {BatchOp::Load, true, -1});
    return probePrivateMiss(ta);
}

void
AttackSession::shareLine(Addr pa)
{
    // Flush first so the line is freshly inserted into the LLC
    // (re-accessing a private-cache-resident line never updates the
    // LLC's replacement state).
    machine_.clflush(kMainCore, pa);
    machine_.loadShared(kMainCore, kHelperCore, pa);
}

void
AttackSession::seqSharedAccess(Addr pa)
{
    // Serialised candidate access with the same flush-then-access
    // discipline as the parallel traversal; the chase overhead covers
    // the serialisation and per-page TLB walk.
    machine_.clflush(kMainCore, pa);
    machine_.loadShared(kMainCore, kHelperCore, pa);
    machine_.idle(static_cast<Cycles>(
        machine_.config().timing.chaseOverhead));
}

bool
AttackSession::probeLlcMiss(Addr ta)
{
    const Cycles measured = machine_.probeLoad(kMainCore, ta);
    return static_cast<double>(measured) > kLlcMissThreshold;
}

bool
AttackSession::probePrivateMiss(Addr ta)
{
    const Cycles measured = machine_.timedLoad(kMainCore, ta);
    return static_cast<double>(measured) > kPrivateMissThreshold;
}

} // namespace llcf

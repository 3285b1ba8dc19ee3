/**
 * @file
 * Tests for the fork-snapshot layer: Machine::snapshot()/restore()
 * must rewind the *complete* simulated state — cache planes, clock,
 * RNG streams, frame allocator, noise replay, counters — so a probe
 * sequence replayed after restore observes exactly what it observed
 * the first time.  This is the property the campaign fork path's
 * per-victim determinism stands on.
 */

#include <gtest/gtest.h>

#include "evset/session.hh"
#include "noise/profile.hh"
#include "sim/machine.hh"

namespace llcf {
namespace {

TEST(MachineSnapshot, RestoreReplaysProbeSequenceExactly)
{
    // Cloud noise, so background replay and both RNG streams are live
    // state the snapshot must carry.
    Machine m(tinyTest(), cloudRun(), 9);
    auto space = m.newAddressSpace();
    const Addr base = space->mmapAnon(32 * kPageBytes);
    auto la = [&](int page, int line) {
        return space->translate(base + page * kPageBytes +
                                line * kLineBytes);
    };
    for (int i = 0; i < 300; ++i)
        m.load(0, la(i % 32, (3 * i) % 64));

    auto probe = [&](int salt) {
        std::vector<Cycles> lat;
        for (int i = 0; i < 150; ++i)
            lat.push_back(m.load(1, la((i * 5 + salt) % 32,
                                       (i * 11) % 64)));
        lat.push_back(m.now());
        return lat;
    };

    const Machine::Snapshot snap = m.snapshot();
    const std::vector<Cycles> first = probe(0);
    const PerfCounters firstPc = m.perfCounters();

    // Perturb everything the snapshot claims to own: caches, clock,
    // RNG draws, and the frame allocator.
    probe(17);
    m.idle(100000);
    auto perturbSpace = m.newAddressSpace();
    perturbSpace->mmapAnon(4 * kPageBytes);

    m.restore(snap);
    EXPECT_EQ(probe(0), first);
    const PerfCounters secondPc = m.perfCounters();
    EXPECT_EQ(secondPc.accesses, firstPc.accesses);
    EXPECT_EQ(secondPc.hits, firstPc.hits);
    EXPECT_EQ(secondPc.misses, firstPc.misses);
    EXPECT_EQ(secondPc.llc.evictions, firstPc.llc.evictions);
}

TEST(MachineSnapshot, RestoreRewindsFrameAllocator)
{
    Machine m(tinyTest(), quiescentLocal(), 4);
    const Machine::Snapshot snap = m.snapshot();

    auto spaceA = m.newAddressSpace();
    const Addr vaA = spaceA->mmapAnon(2 * kPageBytes);
    const Addr paA = spaceA->translate(vaA);

    // Drain more frames, then rewind: the next tenant must draw the
    // exact frames the first one drew — the fork path relies on this
    // to make every forked victim's layout identical to the scanned
    // stand-in's.
    auto spaceB = m.newAddressSpace();
    spaceB->mmapAnon(8 * kPageBytes);

    m.restore(snap);
    auto spaceC = m.newAddressSpace();
    const Addr vaC = spaceC->mmapAnon(2 * kPageBytes);
    EXPECT_EQ(spaceC->translate(vaC), paA);
}

TEST(MachineSnapshot, RestoreReplaysFrameDrawsAfterAllocations)
{
    // Snapshot a pool with frames already handed out, so the copy
    // carries displaced slots, not only an untouched pool.
    Machine m(tinyTest(), quiescentLocal(), 6);
    auto space = m.newAddressSpace();
    space->mmapAnon(40 * kPageBytes);
    const Machine::Snapshot snap = m.snapshot();

    auto draw = [&] {
        auto s = m.newAddressSpace();
        const Addr va = s->mmapAnon(24 * kPageBytes);
        return s->framesOf(va, 24 * kPageBytes);
    };
    const std::vector<Addr> first = draw();
    draw(); // drain further past the snapshot

    m.restore(snap);
    EXPECT_EQ(draw(), first);
}

TEST(SessionSnapshot, RestoreRewindsAttackerSpaceAndBudget)
{
    Machine m(tinyTest(), quiescentLocal(), 11);
    AttackerConfig acfg;
    acfg.seed = 21;
    AttackSession session(m, acfg);

    const Machine::Snapshot msnap = m.snapshot();
    const AttackSession::Snapshot ssnap = session.snapshot();
    const Addr va = session.space().mmapAnon(4 * kPageBytes);
    const Addr pa = session.space().translate(va);

    // Perturb: extra attacker mappings move both the attacker's VA
    // cursor and the machine's frame pool.
    session.space().mmapAnon(16 * kPageBytes);

    m.restore(msnap);
    session.restore(ssnap);
    const Addr va2 = session.space().mmapAnon(4 * kPageBytes);
    EXPECT_EQ(va2, va);
    EXPECT_EQ(session.space().translate(va2), pa);
}

} // namespace
} // namespace llcf

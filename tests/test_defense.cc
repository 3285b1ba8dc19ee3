/**
 * @file
 * Tests for the defense axis (src/defense/): keyed index-hash
 * derivation, way-partition invariants from the replacement ops up
 * through the Machine, the re-keying regression (an eviction set
 * built under one key must stop evicting after a re-key), the
 * self-eviction watchdog, registry coverage of the defense cells and
 * the 1-vs-8-thread determinism contract on a defended scenario.
 */

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "cache/cache_array.hh"
#include "defense/defense.hh"
#include "noise/profile.hh"
#include "scenario/registry.hh"
#include "scenario/scenario.hh"
#include "repl_policy.hh"
#include "sim/machine.hh"

namespace llcf {
namespace {

NoiseProfile
silent()
{
    NoiseProfile p = quiescentLocal();
    p.accessesPerSetPerMs = 0.0;
    p.latencyJitter = 0.0;
    p.interruptRate = 0.0;
    return p;
}

// ------------------------------------------------- keyed index hash

TEST(IndexHash, MasksKeepPageControlledBits)
{
    const unsigned idx_bits = 8; // the tiny LLC's 256 sets
    const std::vector<Addr> masks = makeIndexMasks(idx_bits, 0x1234);
    ASSERT_EQ(masks.size(), idx_bits);
    for (unsigned b = 0; b < idx_bits; ++b) {
        // Every mask keeps its natural index bit ...
        EXPECT_TRUE(masks[b] >> (kLineBits + b) & 1) << "bit " << b;
        // ... and page-controlled bits mix nothing else: the
        // page-offset structure the attacker legitimately controls is
        // untouched, so candidate-pool sizing is unchanged.
        if (kLineBits + b < kPageBits)
            EXPECT_EQ(masks[b], Addr{1} << (kLineBits + b));
        else
            EXPECT_NE(masks[b], Addr{1} << (kLineBits + b));
        // Keyed bits live strictly above the page offset.
        EXPECT_EQ(masks[b] & ((Addr{1} << kPageBits) - 1),
                  Addr{1} << (kLineBits + b) & ((Addr{1} << kPageBits) - 1));
    }
    // Same key, same masks; different key, different uncontrolled
    // mixing.
    EXPECT_EQ(makeIndexMasks(idx_bits, 0x1234), masks);
    EXPECT_NE(makeIndexMasks(idx_bits, 0x1235), masks);
}

TEST(IndexHash, PageControlledBitsPassThrough)
{
    const std::vector<Addr> masks = makeIndexMasks(8, 99);
    const Addr base = Addr{0x3a} << kPageBits;
    for (unsigned b = 0; kLineBits + b < kPageBits; ++b) {
        const Addr flipped = base ^ (Addr{1} << (kLineBits + b));
        // Flipping a page-offset index bit flips exactly that index
        // bit of the keyed index.
        EXPECT_EQ(keyedIndexOf(masks, base) ^
                      keyedIndexOf(masks, flipped),
                  1u << b);
    }
}

// ------------------------------------- masked replacement invariants

TEST(PartitionMask, VictimMaskedStaysInsideMaskForAllPolicies)
{
    Rng trace(0xdef);
    for (ReplKind kind : kAllReplKinds) {
        auto policy = makeReplPolicy(kind);
        for (unsigned ways : {4u, 5u, 8u, 11u, 12u}) {
            std::vector<std::uint8_t> st(
                std::max<std::size_t>(policy->stateBytes(ways), 1));
            policy->reset(st.data(), ways);
            Rng rng(17);
            for (int step = 0; step < 5000; ++step) {
                const unsigned touched =
                    static_cast<unsigned>(trace.nextBelow(ways));
                if (trace.nextBool(0.5))
                    policy->onHit(st.data(), ways, touched);
                else
                    policy->onFill(st.data(), ways, touched);
                std::uint64_t allowed =
                    trace.next() & ((std::uint64_t{1} << ways) - 1);
                if (allowed == 0)
                    allowed = std::uint64_t{1} << touched;
                const unsigned vic = policy->victimMasked(
                    st.data(), ways, allowed, rng);
                ASSERT_LT(vic, ways)
                    << replKindName(kind) << " ways " << ways;
                ASSERT_TRUE(allowed >> vic & 1)
                    << replKindName(kind) << " ways " << ways
                    << " mask " << allowed << " vic " << vic;
            }
        }
    }
}

TEST(PartitionMask, LruVictimMaskedMatchesNaiveOracle)
{
    // Naive masked LRU: oldest allowed way, >=-tie toward the highest
    // way — the same contract victim() has on the full mask.
    const unsigned ways = 11;
    std::vector<std::uint8_t> st(LruOps::stateBytes(ways));
    LruOps::reset(st.data(), ways);
    Rng trace(31), rng(32);
    for (int step = 0; step < 20000; ++step) {
        LruOps::onHit(st.data(), ways,
                      static_cast<unsigned>(trace.nextBelow(ways)));
        std::uint64_t allowed =
            trace.next() & ((std::uint64_t{1} << ways) - 1);
        if (allowed == 0)
            allowed = 1;
        unsigned want = 0;
        int oldest = -1;
        for (unsigned w = 0; w < ways; ++w) {
            if ((allowed >> w & 1) &&
                static_cast<int>(st[w]) >= oldest) {
                oldest = st[w];
                want = w;
            }
        }
        ASSERT_EQ(LruOps::victimMasked(st.data(), ways, allowed, rng),
                  want)
            << "step " << step;
    }
}

/**
 * Minimal masked reference model: the AoS oracle of
 * test_reference_model.cc extended with the partitioned fill —
 * first invalid *allowed* way, else victimMasked.  Production and
 * reference share nothing but the policy contract.
 */
class MaskedAosArray
{
  public:
    MaskedAosArray(const CacheGeometry &geom, ReplKind repl)
        : geom_(geom), policy_(makeReplPolicy(repl)),
          lines_(static_cast<std::size_t>(geom.totalSets()) * geom.ways),
          state_(static_cast<std::size_t>(geom.totalSets()) *
                 std::max<std::size_t>(policy_->stateBytes(geom.ways), 1))
    {
        for (unsigned s = 0; s < geom.totalSets(); ++s)
            policy_->reset(stateOf(s), geom_.ways);
    }

    std::optional<unsigned>
    findWay(unsigned set, Addr line) const
    {
        for (unsigned w = 0; w < geom_.ways; ++w) {
            const CacheLine &l = lines_[at(set, w)];
            if (l.valid() && l.lineAddr == line)
                return w;
        }
        return std::nullopt;
    }

    void
    onHit(unsigned set, unsigned way)
    {
        policy_->onHit(stateOf(set), geom_.ways, way);
    }

    FillResult
    fillMasked(unsigned set, const CacheLine &nl, Rng &rng,
               std::uint64_t allowed)
    {
        std::uint8_t *st = stateOf(set);
        for (unsigned w = 0; w < geom_.ways; ++w) {
            if (!(allowed >> w & 1))
                continue;
            if (!lines_[at(set, w)].valid()) {
                lines_[at(set, w)] = nl;
                policy_->onFill(st, geom_.ways, w);
                return FillResult{w, false, CacheLine{}};
            }
        }
        const unsigned vic =
            policy_->victimMasked(st, geom_.ways, allowed, rng);
        FillResult res{vic, true, lines_[at(set, vic)]};
        lines_[at(set, vic)] = nl;
        policy_->onFill(st, geom_.ways, vic);
        return res;
    }

    CacheLine line(unsigned set, unsigned way) const
    {
        return lines_[at(set, way)];
    }

  private:
    std::size_t
    at(unsigned set, unsigned way) const
    {
        return static_cast<std::size_t>(set) * geom_.ways + way;
    }

    std::uint8_t *
    stateOf(unsigned set)
    {
        return state_.data() +
               static_cast<std::size_t>(set) *
                   std::max<std::size_t>(
                       policy_->stateBytes(geom_.ways), 1);
    }

    CacheGeometry geom_;
    std::unique_ptr<ReplPolicy> policy_;
    std::vector<CacheLine> lines_;
    std::vector<std::uint8_t> state_;
};

TEST(PartitionMask, PartitionedFillsMatchMaskedReference)
{
    // CAT-shaped traffic on a partitioned geometry: two domains with
    // disjoint way masks drive fillMasked on the production SoA array
    // and the masked AoS oracle in lockstep.  Besides the lockstep
    // equality, the load-bearing invariant is ownership purity: a
    // fill in one domain's mask can only ever evict that domain's
    // lines, so attacker fills never evict protected ways.
    const CacheGeometry geom{4, 16, 2};
    const std::uint64_t protected_mask = 0b0011;
    const std::uint64_t other_mask = 0b1100;
    const std::uint8_t kVictim = 2, kAttacker = 0;
    for (ReplKind repl : kAllReplKinds) {
        CacheArray soa(geom, repl);
        MaskedAosArray aos(geom, repl);
        const std::uint64_t seed = 0xca7 + static_cast<unsigned>(repl);
        Rng trace(seed), soa_rng(seed * 3), aos_rng(seed * 3);
        for (int step = 0; step < 50000; ++step) {
            const unsigned set =
                static_cast<unsigned>(trace.nextBelow(geom.totalSets()));
            const bool victim_side = trace.nextBool(0.3);
            const std::uint64_t mask =
                victim_side ? protected_mask : other_mask;
            const std::uint8_t owner = victim_side ? kVictim : kAttacker;
            const Addr tag =
                (1 + trace.nextBelow(6 * geom.ways)) << kLineBits;
            const auto ws = soa.findWay(set, tag);
            const auto wa = aos.findWay(set, tag);
            ASSERT_EQ(ws.has_value(), wa.has_value()) << "step " << step;
            if (ws && (mask >> *ws & 1)) {
                ASSERT_EQ(*ws, *wa);
                soa.onHit(set, *ws);
                aos.onHit(set, *wa);
                continue;
            }
            if (ws)
                continue; // resident in the other partition: hands off
            const CacheLine nl{tag, CohState::Shared, owner};
            const FillResult rs = soa.fillMasked(set, nl, soa_rng, mask);
            const FillResult ra = aos.fillMasked(set, nl, aos_rng, mask);
            ASSERT_EQ(rs.way, ra.way) << "step " << step;
            ASSERT_EQ(rs.evicted, ra.evicted);
            ASSERT_TRUE(mask >> rs.way & 1)
                << replKindName(repl) << " fill outside mask";
            if (rs.evicted) {
                ASSERT_EQ(rs.victim.lineAddr, ra.victim.lineAddr);
                // Ownership purity: the evicted line belongs to the
                // filling domain.
                ASSERT_EQ(rs.victim.owner, owner)
                    << replKindName(repl) << " cross-domain eviction";
            }
        }
    }
}

// ----------------------------------------- machine-level partitions

/** Physical line-0 addresses of @p pages fresh pages. */
std::vector<Addr>
pageLines(Machine &m, std::unique_ptr<AddressSpace> &space,
          unsigned pages)
{
    space = m.newAddressSpace();
    const Addr base = space->mmapAnon(pages * kPageBytes);
    std::vector<Addr> out;
    for (unsigned p = 0; p < pages; ++p)
        out.push_back(space->translate(base + p * kPageBytes));
    return out;
}

/** Lines of @p pool congruent with @p target (same shared set). */
std::vector<Addr>
congruentWith(const Machine &m, const std::vector<Addr> &pool,
              Addr target, std::size_t want)
{
    std::vector<Addr> out;
    for (Addr pa : pool) {
        if (pa != target && m.sharedSetOf(pa) == m.sharedSetOf(target))
            out.push_back(pa);
        if (out.size() == want)
            break;
    }
    return out;
}

TEST(MachinePartition, SfPartitionShieldsVictimEntries)
{
    for (ReplKind repl : kAllReplKinds) {
        MachineConfig cfg = tinyTest();
        cfg.llcRepl = repl;
        cfg.sfRepl = repl;
        DefenseSpec spec;
        spec.kind = DefenseKind::SfPart;
        spec.protectedWays = 2;
        spec.applyTo(cfg);
        cfg.check();
        Machine m(cfg, silent(), 5);
        std::unique_ptr<AddressSpace> space;
        const std::vector<Addr> pool = pageLines(m, space, 200);
        const Addr target = pool[0];
        const auto evset = congruentWith(m, pool, target, 12);
        ASSERT_GE(evset.size(), 8u) << replKindName(repl);

        // Victim (the protected core) holds one private line in the
        // contested set; the attacker floods it far past the SF's
        // five ways, repeatedly.
        const unsigned victim_core = cfg.defense.partition.protectedCore;
        m.load(victim_core, target);
        ASSERT_TRUE(m.inSf(target));
        for (int round = 0; round < 20; ++round) {
            for (Addr pa : evset)
                m.load(0, pa);
            ASSERT_TRUE(m.inSf(target))
                << replKindName(repl) << " round " << round;
        }
        // And the back-invalidation channel stays closed: the
        // victim's private copies were never dropped.
        EXPECT_TRUE(m.inL2(victim_core, target)) << replKindName(repl);
    }
}

TEST(MachinePartition, LlcPartitionShieldsVictimLines)
{
    for (ReplKind repl : kAllReplKinds) {
        MachineConfig cfg = tinyTest();
        cfg.llcRepl = repl;
        cfg.sfRepl = repl;
        DefenseSpec spec;
        spec.kind = DefenseKind::WayPart;
        spec.protectedWays = 2;
        spec.applyTo(cfg);
        cfg.check();
        Machine m(cfg, silent(), 5);
        std::unique_ptr<AddressSpace> space;
        const std::vector<Addr> pool = pageLines(m, space, 200);
        const Addr target = pool[0];
        const auto evset = congruentWith(m, pool, target, 12);
        ASSERT_GE(evset.size(), 8u) << replKindName(repl);

        // Pull the victim's line into the LLC with the *victim* doing
        // the sharing access, so the fill lands in the protected
        // partition (CAT charges the filling core).
        const unsigned victim_core = cfg.defense.partition.protectedCore;
        m.load(1, target);
        m.load(victim_core, target);
        ASSERT_TRUE(m.inLlc(target)) << replKindName(repl);
        // Attacker floods the set with Shared lines of its own, far
        // past the LLC's four ways.
        for (int round = 0; round < 20; ++round) {
            for (Addr pa : evset) {
                m.load(1, pa);
                m.load(0, pa);
            }
            ASSERT_TRUE(m.inLlc(target))
                << replKindName(repl) << " round " << round;
        }
    }
}

// --------------------------------------------- re-keying regression

TEST(Rekey, EvictionSetDiesAcrossRekey)
{
    MachineConfig cfg = tinyTest();
    DefenseSpec spec;
    spec.kind = DefenseKind::KeyedRekey;
    spec.rekeyIntervalMs = 0.0; // static key; re-key manually
    spec.applyTo(cfg);
    cfg.check();
    Machine m(cfg, silent(), 11);
    ASSERT_TRUE(m.indexRandomized());

    std::unique_ptr<AddressSpace> space;
    const std::vector<Addr> pool = pageLines(m, space, 256);
    const Addr target = pool[0];
    const auto evset = congruentWith(m, pool, target, 10);
    ASSERT_GE(evset.size(), 8u);

    // Static-key CEASER: congruence is scrambled but stable, so the
    // eviction set built under the live key still works — the known
    // weakness the rekey interval exists to fix.
    m.load(2, target);
    ASSERT_TRUE(m.inSf(target));
    for (Addr pa : evset)
        m.load(0, pa);
    EXPECT_FALSE(m.inSf(target)) << "static key should not stop evset";

    // Re-key: the same address set scatters across the index space
    // and stops being an eviction set for the target.
    m.rekeyNow();
    const DefenseStats ds = m.defenseStats();
    EXPECT_EQ(ds.rekeys, 1u);
    EXPECT_GT(ds.rekeyLinesMoved, 0u);

    std::size_t still_congruent = 0;
    for (Addr pa : evset)
        if (m.sharedSetOf(pa) == m.sharedSetOf(target))
            ++still_congruent;
    // 8+ lines over 8 equally-likely uncontrolled slots: a handful
    // may collide, but far fewer than the five SF ways eviction needs.
    EXPECT_LT(still_congruent, 5u);

    m.load(2, target);
    ASSERT_TRUE(m.inSf(target));
    for (int round = 0; round < 5; ++round)
        for (Addr pa : evset)
            m.load(0, pa);
    EXPECT_TRUE(m.inSf(target)) << "stale evset still evicts post-rekey";
}

// --------------------------------------------------------- watchdog

TEST(Watchdog, SelfEvictionFiresAndRotatesKey)
{
    MachineConfig cfg = tinyTest();
    DefenseSpec spec;
    spec.kind = DefenseKind::Watchdog;
    spec.watchdogProbePeriodUs = 5.0;
    spec.watchdogWindow = 16;
    spec.watchdogThreshold = 4;
    spec.applyTo(cfg);
    cfg.check();
    Machine m(cfg, silent(), 23);

    std::unique_ptr<AddressSpace> space;
    const std::vector<Addr> pool = pageLines(m, space, 200);
    const Addr target = pool[0];
    const auto evset = congruentWith(m, pool, target, 10);
    ASSERT_GE(evset.size(), 8u);

    m.load(2, target);
    m.armWatchdog(2, {target});
    // Conflict-evict the watched line over and over; the sweeps see
    // the anomalous misses and rotate the key.
    for (int round = 0; round < 4000; ++round)
        m.load(0, evset[round % evset.size()]);
    const DefenseStats ds = m.defenseStats();
    EXPECT_GT(ds.wdProbes, 0u);
    EXPECT_GT(ds.wdMisses, 0u);
    EXPECT_GE(ds.wdFires, 1u);
    EXPECT_GE(ds.rekeys, 1u); // WatchdogAction::Rekey

    // An idle machine's probes mostly hit: re-arm on a fresh world
    // and let the victim keep its line resident.
    Machine quiet(cfg, silent(), 23);
    std::unique_ptr<AddressSpace> qspace;
    const std::vector<Addr> qpool = pageLines(quiet, qspace, 4);
    quiet.load(2, qpool[0]);
    quiet.armWatchdog(2, {qpool[0]});
    for (int i = 0; i < 4000; ++i)
        quiet.load(2, qpool[0]);
    EXPECT_EQ(quiet.defenseStats().wdFires, 0u);
}

// ----------------------------------------------- registry and specs

TEST(DefenseRegistry, CellsCoverMechanismsAndStages)
{
    const ScenarioRegistry &reg = builtinScenarios();
    const auto cells = reg.select("defense-*");
    EXPECT_GE(cells.size(), 10u);

    std::set<DefenseKind> kinds;
    std::set<ScenarioStage> stages;
    bool baseline_row = false;
    for (const ScenarioSpec *s : cells) {
        EXPECT_TRUE(s->defense.recordsMetrics()) << s->name;
        kinds.insert(s->defense.kind);
        stages.insert(s->stage);
        if (!s->defense.active() && s->defense.measure)
            baseline_row = true;
        // Every cell resolves to a checked world with the right
        // blocks switched on.
        const MachineConfig cfg = s->machineConfig();
        switch (s->defense.kind) {
          case DefenseKind::None:
            EXPECT_FALSE(cfg.defense.any()) << s->name;
            break;
          case DefenseKind::KeyedRekey:
            EXPECT_TRUE(cfg.defense.randomize.enabled) << s->name;
            break;
          case DefenseKind::WayPart:
            EXPECT_TRUE(cfg.defense.partition.llc) << s->name;
            break;
          case DefenseKind::SfPart:
            EXPECT_TRUE(cfg.defense.partition.sf) << s->name;
            break;
          case DefenseKind::Watchdog:
            EXPECT_TRUE(cfg.defense.watchdog.enabled) << s->name;
            EXPECT_TRUE(cfg.defense.randomize.enabled) << s->name;
            break;
        }
    }
    // At least the ISSUE's three mechanisms behind the axis (plus the
    // undefended baseline rows).
    EXPECT_TRUE(kinds.count(DefenseKind::KeyedRekey));
    EXPECT_TRUE(kinds.count(DefenseKind::WayPart));
    EXPECT_TRUE(kinds.count(DefenseKind::SfPart));
    EXPECT_TRUE(kinds.count(DefenseKind::Watchdog));
    // And the matrix spans attack stages, not just one.
    EXPECT_GE(stages.size(), 4u);
    EXPECT_TRUE(baseline_row);

    // The existing stage-pure selections must not pick up defense
    // cells (their names deliberately use the defense- prefix).
    for (const ScenarioSpec *s : reg.select("build-*"))
        EXPECT_FALSE(s->defense.recordsMetrics()) << s->name;
}

TEST(DefenseDeterminism, DefendedSuiteJsonIdenticalAcrossThreads)
{
    const ScenarioSpec *spec =
        builtinScenarios().find("defense-rekey-slow-tiny-build");
    ASSERT_NE(spec, nullptr);
    ExperimentSuite one("defense"), eight("defense");
    one.add(runScenario(*spec, 4, 1, 7));
    eight.add(runScenario(*spec, 4, 8, 7));
    EXPECT_EQ(one.toJson(), eight.toJson());
}

} // namespace
} // namespace llcf

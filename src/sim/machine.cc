#include "machine.hh"

#include <algorithm>
#include <cmath>

#include "common/log.hh"

namespace llcf {

namespace {

/** Tag-plane words per interleaved [sf | llc] shared-set row. */
std::size_t
sharedTagWords(const MachineConfig &cfg)
{
    return CacheArray::tagWordsFor(cfg.sf) +
           CacheArray::tagWordsFor(cfg.llc);
}

/**
 * Tag-plane stride: the combined row rounded up to whole host cache
 * lines, so with the plane base line-aligned no row straddles an
 * extra line.  The gap words are never read.
 */
std::size_t
sharedTagStride(const MachineConfig &cfg)
{
    return hostLineAlignWords(sharedTagWords(cfg));
}

/** Meta-plane words per interleaved [sf | llc] shared-set row. */
std::size_t
sharedMetaWords(const MachineConfig &cfg)
{
    return CacheArray::metaWordsFor(cfg.sf, cfg.sfRepl) +
           CacheArray::metaWordsFor(cfg.llc, cfg.llcRepl);
}

/** Shared sets both planes are sized for. */
std::size_t
sharedSetCount(const MachineConfig &cfg)
{
    return std::max(cfg.llc.totalSets(), cfg.sf.totalSets());
}

} // namespace

Machine::Machine(const MachineConfig &cfg, const NoiseProfile &noise,
                 std::uint64_t seed)
    : cfg_(cfg),
      noise_(noise),
      rng_(mix64(seed ^ 0x6d61636869ULL)),
      jitterRng_(mix64(seed + 0x7ea5)),
      allocator_(cfg.physFrames, Rng(mix64(seed + 0xa110c))),
      sliceHash_(cfg.llc.slices, cfg.sliceHashSalt(seed)),
      sharedTags_(sharedSetCount(cfg) * sharedTagStride(cfg) +
                      kLineBytes / sizeof(Addr),
                  0),
      sharedMeta_(sharedSetCount(cfg) * sharedMetaWords(cfg), 0),
      llc_(cfg.llc, cfg.llcRepl, hostLineAlignPtr(sharedTags_.data()),
           sharedTagStride(cfg), CacheArray::tagWordsFor(cfg.sf),
           sharedMeta_.data(), sharedMetaWords(cfg),
           CacheArray::metaWordsFor(cfg.sf, cfg.sfRepl)),
      sf_(cfg.sf, cfg.sfRepl, hostLineAlignPtr(sharedTags_.data()),
          sharedTagStride(cfg), 0, sharedMeta_.data(),
          sharedMetaWords(cfg), 0)
{
    cfg_.check();
    l1_.reserve(cfg_.cores);
    l2_.reserve(cfg_.cores);
    for (unsigned c = 0; c < cfg_.cores; ++c) {
        l1_.emplace_back(cfg_.l1, cfg_.l1Repl);
        l2_.emplace_back(cfg_.l2, cfg_.l2Repl);
    }
    if (cfg_.defense.any()) {
        if (cfg_.defense.randomize.enabled) {
            rekeyRng_ =
                Rng(mix64(seed ^ cfg_.defense.randomize.keySalt));
            indexMasks_ = makeIndexMasks(cfg_.llc.indexBits(),
                                         rekeyRng_.next());
            if (cfg_.defense.randomize.rekeyInterval > 0)
                nextRekey_ = cfg_.defense.randomize.rekeyInterval;
        }
        const auto &part = cfg_.defense.partition;
        const auto low_mask = [](unsigned n) {
            return (std::uint64_t{1} << n) - 1;
        };
        if (part.llc) {
            llcPartitioned_ = true;
            llcProtectedMask_ = low_mask(part.protectedWays);
            llcOtherMask_ =
                low_mask(cfg_.llc.ways) & ~llcProtectedMask_;
        }
        if (part.sf) {
            sfPartitioned_ = true;
            sfProtectedMask_ = low_mask(part.protectedWays);
            sfOtherMask_ = low_mask(cfg_.sf.ways) & ~sfProtectedMask_;
        }
        watchdog_ = SelfEvictionWatchdog(cfg_.defense.watchdog);
        nextDefenseEvent_ =
            std::min(nextRekey_, watchdog_.nextProbeAt());
    }
    lastSync_.assign(totalSharedSets(), 0);
    hasStream_.assign(totalSharedSets(), 0);
    setStreams_.assign(totalSharedSets(), {});
    noisePerCycle_ = noise_.accessesPerSetPerCycle();
    updateQuiescent();
    silent_ = noisePerCycle_ == 0.0 && noise_.latencyJitter == 0.0 &&
              noise_.interruptRate == 0.0 && !cfg_.defense.any();
    // Batch prefetch hints only pay for themselves once the shared
    // planes outgrow a typical host L2 (the tables then miss in the
    // host cache and the access loop is memory-latency-bound).
    prefetchRecords_ = (sharedTags_.size() + sharedMeta_.size()) *
                           sizeof(Addr) >=
                       (1u << 19);
}

std::unique_ptr<AddressSpace>
Machine::newAddressSpace()
{
    return std::make_unique<AddressSpace>(allocator_, nextAsid_++);
}

// ------------------------------------------------------------ mapping

unsigned
Machine::sliceOf(Addr pa) const
{
    return sliceHash_.slice(lineAlign(pa));
}

unsigned
Machine::sharedSetOf(Addr pa) const
{
    const Addr line = lineAlign(pa);
    const unsigned idx = indexMasks_.empty()
                             ? cfg_.llc.setIndex(line)
                             : keyedIndexOf(indexMasks_, line);
    return sliceOf(line) * cfg_.llc.sets + idx;
}

unsigned
Machine::l2SetOf(Addr pa) const
{
    return cfg_.l2.setIndex(lineAlign(pa));
}

// ------------------------------------------------------- introspection

bool
Machine::inL1(unsigned core, Addr pa) const
{
    const Addr line = lineAlign(pa);
    return l1_[core].findWay(cfg_.l1.setIndex(line), line).has_value();
}

bool
Machine::inL2(unsigned core, Addr pa) const
{
    const Addr line = lineAlign(pa);
    return l2_[core].findWay(cfg_.l2.setIndex(line), line).has_value();
}

bool
Machine::inLlc(Addr pa) const
{
    const Addr line = lineAlign(pa);
    return llc_.findWay(sharedSetOf(line), line).has_value();
}

bool
Machine::inSf(Addr pa) const
{
    const Addr line = lineAlign(pa);
    return sf_.findWay(sharedSetOf(line), line).has_value();
}

// ------------------------------------------------- internal helpers

double
Machine::effLatency(HitLevel level) const
{
    double lat = cfg_.timing.latency(level);
    if (level == HitLevel::SfTransfer || level == HitLevel::Llc ||
        level == HitLevel::Dram) {
        lat *= noise_.memLatencyMul;
    }
    return lat;
}

double
Machine::effThroughput(HitLevel level) const
{
    double thr = cfg_.timing.throughputCost(level);
    if (level == HitLevel::Llc || level == HitLevel::Dram ||
        level == HitLevel::SfTransfer) {
        thr *= noise_.memThroughputMul;
    }
    return thr;
}

Cycles
Machine::finishOp(double duration)
{
    if (noise_.latencyJitter > 0.0) {
        double mul = 1.0 + noise_.latencyJitter * jitterRng_.nextGaussian();
        duration *= std::max(0.5, mul);
    }
    const double p = noise_.interruptRate * duration;
    if (p > 0.0 && jitterRng_.nextBool(std::min(p, 1.0))) {
        duration += jitterRng_.nextExponential(noise_.interruptCostMean);
        ++stats_.interrupts;
    }
    Cycles c = static_cast<Cycles>(duration + 0.5);
    if (c == 0)
        c = 1;
    clock_ += c;
    // Safe point: resolved set ids from the finished op are dead, so
    // due defense work (re-keys, watchdog sweeps) may run now.  One
    // compare against kNeverCycles when no defense is configured.
    if (clock_ >= nextDefenseEvent_)
        defenseTick();
    return c;
}

void
Machine::dropPrivate(unsigned core, Addr line)
{
    // L1 is kept inclusive in L2, so the L1 scan is only needed when
    // the line was actually L2-resident.
    if (l2_[core].invalidateLine(cfg_.l2.setIndex(line), line))
        l1_[core].invalidateLine(cfg_.l1.setIndex(line), line);
}

void
Machine::dropAllPrivate(Addr line)
{
    for (unsigned c = 0; c < cfg_.cores; ++c)
        dropPrivate(c, line);
}

void
Machine::llcInsert(unsigned s, const CacheLine &line)
{
    // CAT semantics: the fill partition is the one of the core that
    // causes the fill (the line's recorded owner), so a victim line
    // pulled Shared by the attacker occupies the attacker's ways.
    FillResult fr =
        llcPartitioned_
            ? llc_.fillMasked(s, line, rng_,
                              line.owner ==
                                      cfg_.defense.partition.protectedCore
                                  ? llcProtectedMask_
                                  : llcOtherMask_)
            : llc_.fill(s, line, rng_);
    if (fr.evicted && fr.victim.owner != kNoiseOwner) {
        // A real Shared line left the LLC: nothing tracks it any
        // more, so private Shared copies are back-invalidated.
        dropAllPrivate(fr.victim.lineAddr);
    }
}

void
Machine::sfAllocate(unsigned s, const CacheLine &entry)
{
    FillResult fr =
        sfPartitioned_
            ? sf_.fillMasked(s, entry, rng_,
                             entry.owner ==
                                     cfg_.defense.partition.protectedCore
                                 ? sfProtectedMask_
                                 : sfOtherMask_)
            : sf_.fill(s, entry, rng_);
    if (!fr.evicted)
        return;
    const CacheLine v = fr.victim;
    if (v.owner != kNoiseOwner) {
        // Evicting an SF entry evicts the owner's private copies.
        dropPrivate(v.owner, v.lineAddr);
    }
    // Reuse predictor decides whether the evicted line is worth
    // keeping in the LLC (Section 2.3).
    if (rng_.nextBool(cfg_.sfEvictToLlcProb))
        llcInsert(s, CacheLine{v.lineAddr, CohState::Shared, v.owner});
}

void
Machine::fillPrivate(unsigned core, Addr line, CohState coh)
{
    const unsigned l2s = cfg_.l2.setIndex(line);
    FillResult fr = l2_[core].fill(l2s, CacheLine{line, coh,
                                   static_cast<std::uint8_t>(core)}, rng_);
    if (fr.evicted) {
        const CacheLine v = fr.victim;
        // Keep L1 inclusive in L2.
        l1_[core].invalidateLine(cfg_.l1.setIndex(v.lineAddr), v.lineAddr);
        if (v.coh == CohState::Exclusive || v.coh == CohState::Modified) {
            // Private line left the owner's L2: free its SF entry
            // (simplified stale-entry model; see machine.hh) and let
            // the reuse predictor decide on LLC insertion.
            const unsigned vs = sharedSetOf(v.lineAddr);
            sf_.invalidateLine(vs, v.lineAddr);
            if (rng_.nextBool(cfg_.sfEvictToLlcProb)) {
                llcInsert(vs, CacheLine{v.lineAddr, CohState::Shared,
                                        v.owner});
            }
        }
        // Shared victims are silent: the LLC still tracks them.
    }
    FillResult f1 = l1_[core].fill(cfg_.l1.setIndex(line),
                                   CacheLine{line, coh,
                                   static_cast<std::uint8_t>(core)}, rng_);
    (void)f1; // L1 evictions are silent: the line remains in L2
}

void
Machine::upgradeToModified(unsigned core, Addr line)
{
    const unsigned s = sharedSetOf(line);
    llc_.invalidateLine(s, line);
    for (unsigned c = 0; c < cfg_.cores; ++c) {
        if (c != core)
            dropPrivate(c, line);
    }
    // Flip the local copies to Modified.
    const unsigned l1s = cfg_.l1.setIndex(line);
    const unsigned l2s = cfg_.l2.setIndex(line);
    if (auto w = l1_[core].findWay(l1s, line)) {
        l1_[core].setLineState(l1s, *w, CohState::Modified,
                               static_cast<std::uint8_t>(core));
    }
    if (auto w = l2_[core].findWay(l2s, line)) {
        l2_[core].setLineState(l2s, *w, CohState::Modified,
                               static_cast<std::uint8_t>(core));
    }
    sfAllocate(s, CacheLine{line, CohState::Modified,
                            static_cast<std::uint8_t>(core)});
}

void
Machine::noiseTouch(unsigned s)
{
    ++stats_.noiseAccesses;
    const Addr tag = kNoiseBase | (noiseCounter_++ << kLineBits);
    if (rng_.nextBool(noise_.sfFraction)) {
        sfAllocate(s, CacheLine{tag, CohState::Exclusive, kNoiseOwner});
    } else {
        llcInsert(s, CacheLine{tag, CohState::Shared, kNoiseOwner});
    }
}

void
Machine::syncSharedSet(unsigned s)
{
    if (quiescent_)
        return; // provably no effect; see the flag's definition
    const Cycles t = clock_;
    const Cycles last = lastSync_[s];
    if (t <= last)
        return;
    lastSync_[s] = t;

    // Tenant noise: Poisson arrivals with optional burstiness that
    // preserves the mean access rate.
    const double dt = static_cast<double>(t - last);
    const double lam = noisePerCycle_ * dt;
    if (lam > 0.0) {
        const double burst = std::max(1.0, noise_.burstMean);
        const double arrival_lam = lam / burst;
        std::uint64_t arrivals;
        if (arrival_lam < 1e-3)
            arrivals = rng_.nextBool(arrival_lam) ? 1 : 0;
        else
            arrivals = rng_.nextPoisson(arrival_lam);
        for (std::uint64_t a = 0; a < arrivals; ++a) {
            std::uint64_t size = 1;
            if (burst > 1.0)
                size += rng_.nextPoisson(burst - 1.0);
            for (std::uint64_t i = 0; i < size; ++i)
                noiseTouch(s);
        }
    }

    // Registered streams (victim accesses) due in (last, t].
    if (hasStream_[s]) {
        for (std::size_t idx : setStreams_[s]) {
            Stream &st = streams_[idx];
            while (st.cursor < st.times.size() &&
                   st.times[st.cursor] <= t) {
                ++st.cursor;
                ++stats_.streamAccesses;
                accessLine(st.core, st.line, st.isStore);
            }
        }
    }
}

Machine::AccessOutcome
Machine::accessLine(unsigned core, Addr line, bool is_store, bool probe)
{
    // Sentinel for "shared set not resolved yet" (real ids are far
    // smaller); on quiescent machines the slice hash is deferred
    // until an access actually reaches the shared structures.
    constexpr unsigned kUnresolved = ~0u;

    line = lineAlign(line);
    unsigned s = kUnresolved;
    if (!quiescent_) {
        s = sharedSetOf(line);
        syncSharedSet(s);
    }

    if (is_store)
        ++stats_.stores;
    else
        ++stats_.loads;

    // L1.
    const unsigned l1s = cfg_.l1.setIndex(line);
    CacheArray &l1 = l1_[core];
    if (auto w = l1.findWay(l1s, line)) {
        if (is_store && l1.line(l1s, *w).coh == CohState::Shared) {
            upgradeToModified(core, line);
            return serve(HitLevel::SfTransfer);
        }
        l1.onHit(l1s, *w);
        ++stats_.l1Hits;
        return serve(HitLevel::L1);
    }

    // L2.
    const unsigned l2s = cfg_.l2.setIndex(line);
    CacheArray &l2 = l2_[core];
    if (auto w = l2.findWay(l2s, line)) {
        const CohState coh = l2.line(l2s, *w).coh;
        if (is_store && coh == CohState::Shared) {
            upgradeToModified(core, line);
            return serve(HitLevel::SfTransfer);
        }
        l2.onHit(l2s, *w);
        // Refill L1 (kept inclusive); the L1 victim stays in L2.
        l1.fill(l1s, CacheLine{line, coh,
                static_cast<std::uint8_t>(core)}, rng_);
        ++stats_.l2Hits;
        return serve(HitLevel::L2);
    }

    // Shared structures from here on: resolve the set if the
    // quiescent fast path deferred it.
    if (s == kUnresolved)
        s = sharedSetOf(line);

    // Snoop filter: the line is private to some core.
    if (auto w = sf_.findWay(s, line)) {
        const CacheLine entry = sf_.line(s, *w);
        const unsigned owner = entry.owner;
        ++stats_.sfTransfers;
        if (is_store) {
            // RFO: steal exclusive ownership.
            if (owner != core && owner != kNoiseOwner)
                dropPrivate(owner, line);
            sf_.setLineState(s, *w, CohState::Modified,
                             static_cast<std::uint8_t>(core));
            sf_.onHit(s, *w);
            fillPrivate(core, line, CohState::Modified);
            return serve(HitLevel::SfTransfer);
        }
        // Load hit on a private line: transition to Shared.  The line
        // moves into the LLC and its SF entry is freed (Section 2.3).
        ++perf_.cohDowngrades;
        if (owner != core && owner != kNoiseOwner) {
            const unsigned ol1 = cfg_.l1.setIndex(line);
            const unsigned ol2 = cfg_.l2.setIndex(line);
            if (auto ow = l1_[owner].findWay(ol1, line)) {
                l1_[owner].setLineState(ol1, *ow, CohState::Shared,
                        static_cast<std::uint8_t>(owner));
            }
            if (auto ow = l2_[owner].findWay(ol2, line)) {
                l2_[owner].setLineState(ol2, *ow, CohState::Shared,
                        static_cast<std::uint8_t>(owner));
            }
        }
        sf_.invalidateWay(s, *w);
        llcInsert(s, CacheLine{line, CohState::Shared,
                               static_cast<std::uint8_t>(core)});
        fillPrivate(core, line, CohState::Shared);
        return serve(HitLevel::SfTransfer);
    }

    // LLC.
    if (auto w = llc_.findWay(s, line)) {
        ++stats_.llcHits;
        if (is_store) {
            // Shared -> Modified: leave the LLC, allocate an SF entry.
            llc_.invalidateWay(s, *w);
            dropAllPrivate(line);
            sfAllocate(s, CacheLine{line, CohState::Modified,
                                    static_cast<std::uint8_t>(core)});
            fillPrivate(core, line, CohState::Modified);
            return serve(HitLevel::Llc);
        }
        if (probe) {
            // Scope probe: observe without disturbing LLC state.
            fillPrivate(core, line, CohState::Shared);
            return serve(HitLevel::Llc);
        }
        // Does any other core still hold a Shared copy?
        bool other_sharer = false;
        const unsigned l1s_x = cfg_.l1.setIndex(line);
        const unsigned l2s_x = cfg_.l2.setIndex(line);
        for (unsigned c = 0; c < cfg_.cores && !other_sharer; ++c) {
            if (c == core)
                continue;
            other_sharer = l1_[c].findWay(l1s_x, line).has_value() ||
                           l2_[c].findWay(l2s_x, line).has_value();
        }
        if (other_sharer) {
            // Still shared: the LLC keeps tracking it.
            llc_.onHit(s, *w);
            fillPrivate(core, line, CohState::Shared);
        } else {
            // Sole requester: the line upgrades to Exclusive, leaves
            // the mostly-exclusive LLC and is re-tracked by the SF
            // (Section 2.3: E-transitioning lines are removed from
            // the LLC and get an SF entry).
            llc_.invalidateWay(s, *w);
            sfAllocate(s, CacheLine{line, CohState::Exclusive,
                                    static_cast<std::uint8_t>(core)});
            fillPrivate(core, line, CohState::Exclusive);
        }
        return serve(HitLevel::Llc);
    }

    // Memory.
    ++stats_.dramFills;
    const CohState coh = is_store ? CohState::Modified
                                  : CohState::Exclusive;
    sfAllocate(s, CacheLine{line, coh, static_cast<std::uint8_t>(core)});
    fillPrivate(core, line, coh);
    return serve(HitLevel::Dram);
}

// -------------------------------------------------------- public ops

Cycles
Machine::load(unsigned core, Addr pa)
{
    return finishOp(accessLine(core, pa, false).latency);
}

Cycles
Machine::store(unsigned core, Addr pa)
{
    return finishOp(accessLine(core, pa, true).latency);
}

Cycles
Machine::timedLoad(unsigned core, Addr pa)
{
    const double lat = accessLine(core, pa, false).latency;
    return finishOp(lat + cfg_.timing.timedOverhead);
}

Cycles
Machine::chaseLoad(unsigned core, Addr pa)
{
    const double lat = accessLine(core, pa, false).latency;
    return finishOp(lat + cfg_.timing.chaseOverhead);
}

Cycles
Machine::probeLoad(unsigned core, Addr pa)
{
    const double lat = accessLine(core, pa, false, true).latency;
    return finishOp(lat + cfg_.timing.timedOverhead);
}

Cycles
Machine::loadShared(unsigned core, unsigned helper, Addr pa)
{
    const double lat = accessLine(core, pa, false).latency;
    // Helper core repeats the access concurrently (not charged).
    accessLine(helper, pa, false);
    return finishOp(lat);
}

namespace {

/** Elements mapped + prefetched ahead of simulation per sweep tile. */
constexpr std::size_t kSweepTile = 16;

} // namespace

Cycles
Machine::overlappedAccess(unsigned core, std::span<const Addr> pas,
                          bool is_store, int helper)
{
    Cycles total = 0;
    bool first = true;
    std::size_t pf = 0; // prefetch cursor, one tile ahead
    for (std::size_t base = 0; base < pas.size(); base += kBurstChunk) {
        const std::size_t end = std::min(pas.size(), base + kBurstChunk);
        double max_lat = 0.0, thr_sum = 0.0;
        for (std::size_t tb = base; tb < end; tb += kSweepTile) {
            const std::size_t te = std::min(end, tb + kSweepTile);
            const std::size_t lead =
                std::min(pas.size(), te + kSweepTile);
            for (; pf < lead; ++pf)
                prefetchLine(core, pas[pf]);
            for (std::size_t i = tb; i < te; ++i) {
                AccessOutcome out = accessLine(core, pas[i], is_store);
                if (helper >= 0)
                    accessLine(static_cast<unsigned>(helper), pas[i],
                               is_store);
                max_lat = std::max(max_lat, out.latency);
                thr_sum += effThroughput(out.level);
            }
        }
        // An overlapped burst is bound either by the slowest single
        // access or by sustained throughput, whichever dominates.
        double d = std::max(max_lat, thr_sum);
        if (first) {
            d += cfg_.timing.parallelFixed;
            first = false;
        }
        total += finishOp(d);
    }
    return total;
}

void
Machine::flushLineNowAt(Addr line, unsigned s)
{
    if (!quiescent_)
        syncSharedSet(s);
    // The SF and LLC tag rows for a shared set are adjacent in the
    // shared tag plane (sf at offset 0, llc right after — the wiring
    // this constructor set up), so both presence probes resolve
    // against one fetched region, and a flush of a non-resident line
    // — the common case in repeated flush sweeps — never touches
    // metadata at all.
    const Addr *row = sf_.tagRow(s);
    const int sfw = tagScanFind(row, sf_.tagRowWords(), line);
    const int llcw =
        tagScanFind(row + sf_.tagRowWords(), llc_.tagRowWords(), line);
    // A line resident in any private cache is either E/M — tracked by
    // an SF entry naming its single owner — or Shared and tracked by
    // the LLC (see DESIGN.md).  The shared-structure probes therefore
    // bound which private caches can hold copies, saving the
    // two-per-core private scans of the general case.
    std::uint8_t sf_owner = 0;
    if (sfw >= 0) {
        sf_owner = sf_.line(s, static_cast<unsigned>(sfw)).owner;
        sf_.invalidateWay(s, static_cast<unsigned>(sfw));
    }
    if (llcw >= 0)
        llc_.invalidateWay(s, static_cast<unsigned>(llcw));
    if (sfw >= 0) {
        if (sf_owner != kNoiseOwner)
            dropPrivate(sf_owner, line);
    } else if (llcw >= 0) {
        dropAllPrivate(line);
    }
}

Cycles
Machine::overlappedFlush(unsigned core, std::span<const Addr> pas)
{
    (void)core;
    Cycles total = 0;
    Addr lines[kSweepTile];
    unsigned sets[kSweepTile];
    for (std::size_t base = 0; base < pas.size(); base += kBurstChunk) {
        const std::size_t end = std::min(pas.size(), base + kBurstChunk);
        for (std::size_t tb = base; tb < end; tb += kSweepTile) {
            const std::size_t n = std::min(end - tb, kSweepTile);
            // Map the whole tile (line-align + slice hash) and issue
            // its host prefetches, then simulate it with the set ids
            // already in registers: the dependent tag-row fetches of
            // up to kSweepTile flushes overlap instead of serialising
            // on host-memory latency.  Host-side only — the simulated
            // flush order and RNG draw order are untouched.
            for (std::size_t j = 0; j < n; ++j) {
                lines[j] = lineAlign(pas[tb + j]);
                sets[j] = sharedSetOf(lines[j]);
                if (prefetchRecords_) {
                    sf_.prefetchSet(sets[j]);
                    llc_.prefetchSet(sets[j]);
                    sf_.prefetchSetMeta(sets[j]);
                    llc_.prefetchSetMeta(sets[j]);
                    __builtin_prefetch(&lastSync_[sets[j]]);
                }
            }
            for (std::size_t j = 0; j < n; ++j)
                flushLineNowAt(lines[j], sets[j]);
        }
        total += finishOp(static_cast<double>(end - base) *
                          cfg_.timing.clflushThroughput);
    }
    return total;
}

Cycles
Machine::clflush(unsigned core, Addr pa)
{
    (void)core;
    flushLineNow(lineAlign(pa));
    return finishOp(cfg_.timing.clflushCost);
}

Cycles
Machine::accessBatch(unsigned core, std::span<const Addr> pas,
                     const BatchSpec &spec)
{
    if (spec.overlapped) {
        switch (spec.op) {
          case BatchOp::Load:
          case BatchOp::Store: {
            const bool is_store = spec.op == BatchOp::Store;
            // The one test noisy or defended machines pay per batch.
            if (silent_ && spec.helper < 0) {
                if (RepeatWatch *w = watchOf(core, pas, spec.op))
                    return watchedAccess(*w, pas, is_store);
            }
            return overlappedAccess(core, pas, is_store, spec.helper);
          }
          case BatchOp::Flush:
            return overlappedFlush(core, pas);
          default:
            panic("accessBatch: only Load/Store/Flush overlap");
        }
    }
    // Sequential sweeps: element-for-element equivalent to the scalar
    // operations (same RNG draws, same clock advance per element).
    // Sweeps are tiled for the host: each tile's shared tag rows are
    // prefetched before the previous tile finishes simulating, so the
    // random-set fetches overlap several elements deep instead of the
    // single-element lead the scalar path gets.
    const auto sweep = [&](auto op) {
        Cycles total = 0;
        std::size_t pf = 0; // prefetch cursor, one tile ahead
        for (std::size_t base = 0; base < pas.size();
             base += kSweepTile) {
            const std::size_t end =
                std::min(pas.size(), base + kSweepTile);
            const std::size_t lead =
                std::min(pas.size(), end + kSweepTile);
            for (; pf < lead; ++pf)
                prefetchLine(core, pas[pf]);
            for (std::size_t i = base; i < end; ++i)
                total += op(pas[i]);
        }
        return total;
    };
    switch (spec.op) {
      case BatchOp::Load:
        if (spec.helper >= 0) {
            const unsigned helper =
                static_cast<unsigned>(spec.helper);
            return sweep([&](Addr pa) {
                return loadShared(core, helper, pa);
            });
        }
        return sweep([&](Addr pa) { return load(core, pa); });
      case BatchOp::Store:
        return sweep([&](Addr pa) { return store(core, pa); });
      case BatchOp::TimedLoad:
        return sweep([&](Addr pa) { return timedLoad(core, pa); });
      case BatchOp::ChaseLoad:
        return sweep([&](Addr pa) { return chaseLoad(core, pa); });
      case BatchOp::ProbeLoad:
        return sweep([&](Addr pa) { return probeLoad(core, pa); });
      case BatchOp::Flush:
        return sweep([&](Addr pa) { return clflush(core, pa); });
    }
    panic("accessBatch: unknown op");
}

PerfCounters
Machine::perfCounters() const
{
    PerfCounters pc = perf_;
    for (const CacheArray &a : l1_)
        pc.l1 += a.counters();
    for (const CacheArray &a : l2_)
        pc.l2 += a.counters();
    pc.llc = llc_.counters();
    pc.sf = sf_.counters();
    pc.accesses = stats_.loads + stats_.stores;
    pc.misses = stats_.dramFills;
    pc.hits = pc.accesses - pc.misses;
    pc.simCycles = clock_;
    return pc;
}

// ----------------------------------------------------------- streams

Machine::StreamId
Machine::addStream(unsigned core, Addr pa, std::vector<Cycles> times,
                   bool is_store, bool pinned)
{
    if (core >= cfg_.cores)
        fatal("stream core %u out of range", core);
    std::sort(times.begin(), times.end());
    quiescent_ = false; // stream replay must run from now on
    Stream st;
    st.id = nextStreamId_++;
    st.core = core;
    st.line = lineAlign(pa);
    st.isStore = is_store;
    st.pinned = pinned;
    st.times = std::move(times);
    const unsigned s = sharedSetOf(st.line);
    streams_.push_back(std::move(st));
    setStreams_[s].push_back(streams_.size() - 1);
    hasStream_[s] = 1;
    return streams_.back().id;
}

void
Machine::removeStream(StreamId id)
{
    for (auto &st : streams_) {
        if (st.id == id) {
            st.cursor = st.times.size();
            return;
        }
    }
}

void
Machine::clearStreams()
{
    bool any_pinned = false;
    for (const Stream &st : streams_)
        any_pinned |= st.pinned;
    if (!any_pinned) {
        streams_.clear();
        setStreams_.assign(setStreams_.size(), {});
        std::fill(hasStream_.begin(), hasStream_.end(), 0);
        updateQuiescent();
        return;
    }
    // Pinned streams (co-tenant offered load) survive the attack
    // layer's between-step cleanups; only victim streams drop.
    std::erase_if(streams_,
                  [](const Stream &st) { return !st.pinned; });
    rebuildStreamIndex();
    updateQuiescent();
}

// ---------------------------------------------------------- defenses

void
Machine::armWatchdog(unsigned core, std::vector<Addr> lines)
{
    if (!cfg_.defense.watchdog.enabled)
        fatal("armWatchdog: watchdog disabled in this configuration");
    if (core >= cfg_.cores)
        fatal("armWatchdog: core %u out of range", core);
    for (Addr &pa : lines)
        pa = lineAlign(pa);
    watchdog_.arm(core, std::move(lines), clock_);
    nextDefenseEvent_ = std::min(nextRekey_, watchdog_.nextProbeAt());
}

DefenseStats
Machine::defenseStats() const
{
    DefenseStats ds;
    ds.rekeys = rekeys_;
    ds.rekeyLinesMoved = rekeyLinesMoved_;
    ds.wdProbes = watchdog_.probes();
    ds.wdMisses = watchdog_.misses();
    ds.wdFires = watchdog_.fires();
    return ds;
}

void
Machine::rekeyNow()
{
    if (!cfg_.defense.randomize.enabled)
        fatal("rekeyNow: index randomization disabled");
    indexMasks_ = makeIndexMasks(cfg_.llc.indexBits(), rekeyRng_.next());
    ++rekeys_;
    remapSharedStructures();
}

void
Machine::remapSharedStructures()
{
    // Collect every live shared line in deterministic set/way order.
    struct Saved
    {
        CacheLine line;
        bool inSf;
    };
    std::vector<Saved> saved;
    const unsigned total = totalSharedSets();
    for (unsigned s = 0; s < total; ++s) {
        for (unsigned w = 0; w < cfg_.sf.ways; ++w) {
            const CacheLine l = sf_.line(s, w);
            if (l.valid())
                saved.push_back({l, true});
        }
        for (unsigned w = 0; w < cfg_.llc.ways; ++w) {
            const CacheLine l = llc_.line(s, w);
            if (l.valid())
                saved.push_back({l, false});
        }
    }
    sf_.flushAll();
    llc_.flushAll();
    // Reinsert under the new key.  Sets that overflow in the new
    // mapping evict through the ordinary insert paths — including
    // back-invalidation of private copies — which is the real cost
    // of relocating into a colder arrangement.
    for (const Saved &sv : saved) {
        const unsigned s = sharedSetOf(sv.line.lineAddr);
        if (sv.inSf)
            sfAllocate(s, sv.line);
        else
            llcInsert(s, sv.line);
    }
    rekeyLinesMoved_ += saved.size();
    // Stream replay is indexed by shared set and the mapping changed.
    rebuildStreamIndex();
    idle(static_cast<Cycles>(saved.size()) *
         cfg_.defense.randomize.rekeyPerLineCost);
}

void
Machine::rebuildStreamIndex()
{
    setStreams_.assign(setStreams_.size(), {});
    std::fill(hasStream_.begin(), hasStream_.end(), 0);
    for (std::size_t i = 0; i < streams_.size(); ++i) {
        const unsigned s = sharedSetOf(streams_[i].line);
        setStreams_[s].push_back(i);
        hasStream_[s] = 1;
    }
}

void
Machine::runWatchdogProbe()
{
    // Background sweep: the monitor's own time is not charged to the
    // op this tick piggybacks on, but the accesses touch real cache
    // state — self-monitoring has an observer effect, and the sweep
    // re-establishes residency of the very working set it checks.
    const unsigned core = watchdog_.core();
    bool fired = false;
    for (const Addr line : watchdog_.lines()) {
        const AccessOutcome out = accessLine(core, line, false);
        const bool miss =
            out.level != HitLevel::L1 && out.level != HitLevel::L2;
        fired |= watchdog_.observe(miss, clock_);
    }
    if (fired && cfg_.defense.watchdog.action == WatchdogAction::Rekey)
        rekeyPending_ = true;
}

void
Machine::defenseTick()
{
    if (inDefenseTick_)
        return;
    inDefenseTick_ = true;
    if (watchdog_.armed()) {
        while (clock_ >= watchdog_.nextProbeAt()) {
            runWatchdogProbe();
            watchdog_.scheduleNextProbe();
        }
    }
    if (rekeyPending_ || clock_ >= nextRekey_) {
        rekeyPending_ = false;
        const Cycles iv = cfg_.defense.randomize.rekeyInterval;
        if (nextRekey_ != kNeverCycles) {
            while (nextRekey_ <= clock_)
                nextRekey_ += iv;
        }
        rekeyNow();
        // The remap stall may have crossed the next interval already.
        if (nextRekey_ != kNeverCycles) {
            while (nextRekey_ <= clock_)
                nextRekey_ += iv;
        }
    }
    nextDefenseEvent_ = std::min(nextRekey_, watchdog_.nextProbeAt());
    inDefenseTick_ = false;
}

Machine::Snapshot
Machine::snapshot() const
{
    Snapshot s;
    s.rng = rng_;
    s.jitterRng = jitterRng_;
    s.allocator = allocator_;
    s.nextAsid = nextAsid_;
    s.l1.reserve(l1_.size());
    for (const CacheArray &a : l1_)
        s.l1.push_back(a.saveState());
    s.l2.reserve(l2_.size());
    for (const CacheArray &a : l2_)
        s.l2.push_back(a.saveState());
    s.llc = llc_.saveState();
    s.sf = sf_.saveState();
    s.privateHitStreak = privateHitStreak_;
    s.clock = clock_;
    s.lastSync = lastSync_;
    s.hasStream = hasStream_;
    s.setStreams = setStreams_;
    s.streams = streams_;
    s.nextStreamId = nextStreamId_;
    s.noiseCounter = noiseCounter_;
    s.quiescent = quiescent_;
    s.stats = stats_;
    s.perf = perf_;
    s.indexMasks = indexMasks_;
    s.rekeyRng = rekeyRng_;
    s.nextRekey = nextRekey_;
    s.rekeyPending = rekeyPending_;
    s.rekeys = rekeys_;
    s.rekeyLinesMoved = rekeyLinesMoved_;
    s.watchdog = watchdog_;
    return s;
}

void
Machine::restore(const Snapshot &s)
{
    if (s.l1.size() != l1_.size() || s.l2.size() != l2_.size())
        panic("machine snapshot does not match this configuration");
    rng_ = s.rng;
    jitterRng_ = s.jitterRng;
    allocator_ = s.allocator;
    nextAsid_ = s.nextAsid;
    for (std::size_t i = 0; i < l1_.size(); ++i)
        l1_[i].restoreState(s.l1[i]);
    for (std::size_t i = 0; i < l2_.size(); ++i)
        l2_[i].restoreState(s.l2[i]);
    llc_.restoreState(s.llc);
    sf_.restoreState(s.sf);
    privateHitStreak_ = s.privateHitStreak;
    clock_ = s.clock;
    lastSync_ = s.lastSync;
    hasStream_ = s.hasStream;
    setStreams_ = s.setStreams;
    streams_ = s.streams;
    nextStreamId_ = s.nextStreamId;
    noiseCounter_ = s.noiseCounter;
    quiescent_ = s.quiescent;
    stats_ = s.stats;
    perf_ = s.perf;
    indexMasks_ = s.indexMasks;
    rekeyRng_ = s.rekeyRng;
    nextRekey_ = s.nextRekey;
    rekeyPending_ = s.rekeyPending;
    rekeys_ = s.rekeys;
    rekeyLinesMoved_ = s.rekeyLinesMoved;
    watchdog_ = s.watchdog;
    nextDefenseEvent_ = std::min(nextRekey_, watchdog_.nextProbeAt());
}

} // namespace llcf

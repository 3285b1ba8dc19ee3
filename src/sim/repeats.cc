/**
 * @file
 * Machine::skipRepeats and the batch watch behind it: the exact
 * fast-forward of repeated overlapped batches on a silent machine
 * (DESIGN.md §14).  A translation unit of its own: defined in
 * machine.cc, this code changed how GCC inlined the access path there
 * and slowed the Cloud-noise eviction-set build (perfbench
 * evset-cloud) by about 5%.
 */

#include <algorithm>
#include <cmath>

#include "machine.hh"

namespace llcf {

void
Machine::watchRepeats(RepeatWatch &w, unsigned core,
                      std::span<const Addr> pas)
{
    w.armed = false;
    w.filled = 0;
    w.period = 0;
    // One chunk, so a repeat syncs every set at its start time.
    if (pas.empty() || pas.size() > kBurstChunk)
        return;
    if (w.lines.empty()) {
        // Sized once per machine, on its first watch.
        w.lines.resize(kBurstChunk);
        w.imageWords =
            kRepeatMaxSets * (l1_[0].rowWords() + l2_[0].rowWords());
        w.images.resize(kRepeatMaxPeriod * w.imageWords);
    }
    const auto add = [](unsigned *sets, unsigned &n, unsigned s) {
        if (std::find(sets, sets + n, s) != sets + n)
            return true;
        if (n == kRepeatMaxSets)
            return false;
        sets[n++] = s;
        return true;
    };
    w.nL1 = w.nL2 = w.nShared = 0;
    for (const Addr pa : pas) {
        const Addr line = lineAlign(pa);
        if (!add(w.l1Sets, w.nL1, cfg_.l1.setIndex(line)) ||
            !add(w.l2Sets, w.nL2, cfg_.l2.setIndex(line)) ||
            !add(w.sharedSets, w.nShared, sharedSetOf(line)))
            return;
    }
    std::copy(pas.begin(), pas.end(), w.lines.begin());
    w.count = pas.size();
    w.core = core;
    w.armed = true;
}

Machine::RepeatWatch *
Machine::watchOf(unsigned core, std::span<const Addr> pas, BatchOp op)
{
    RepeatWatch &w = repeats_[op == BatchOp::Store];
    if (!w.armed || w.core != core || w.count != pas.size() ||
        !std::equal(pas.begin(), pas.end(), w.lines.begin()))
        return nullptr;
    return &w;
}

void
Machine::saveWatchedRows(RepeatWatch &w, unsigned slot) const
{
    std::uint64_t *out = w.images.data() + slot * w.imageWords;
    const CacheArray &l1 = l1_[w.core];
    const CacheArray &l2 = l2_[w.core];
    for (unsigned i = 0; i < w.nL1; ++i, out += l1.rowWords())
        l1.saveRow(w.l1Sets[i], out);
    for (unsigned i = 0; i < w.nL2; ++i, out += l2.rowWords())
        l2.saveRow(w.l2Sets[i], out);
}

bool
Machine::watchedRowsEqual(const RepeatWatch &w, unsigned slot) const
{
    const std::uint64_t *img = w.images.data() + slot * w.imageWords;
    const CacheArray &l1 = l1_[w.core];
    const CacheArray &l2 = l2_[w.core];
    for (unsigned i = 0; i < w.nL1; ++i, img += l1.rowWords()) {
        if (!l1.rowEquals(w.l1Sets[i], img))
            return false;
    }
    for (unsigned i = 0; i < w.nL2; ++i, img += l2.rowWords()) {
        if (!l2.rowEquals(w.l2Sets[i], img))
            return false;
    }
    return true;
}

Cycles
Machine::watchedAccess(RepeatWatch &w, std::span<const Addr> pas,
                       bool is_store)
{
    constexpr unsigned kRing = kRepeatMaxPeriod;
    const unsigned core = w.core;
    const unsigned slot = (w.head + 1) % kRing;
    saveWatchedRows(w, slot);
    const Rng rng0 = rng_;
    const MachineStats s0 = stats_;
    const ArrayCounters l1c = l1_[core].counters();
    const ArrayCounters l2c = l2_[core].counters();
    RepeatRun &r = w.runs[slot];
    r.start = clock_;
    const Cycles d = overlappedAccess(core, pas, is_store, -1);
    r.end = clock_;
    r.loads = stats_.loads - s0.loads;
    r.stores = stats_.stores - s0.stores;
    r.l1Hits = stats_.l1Hits - s0.l1Hits;
    r.l2Hits = stats_.l2Hits - s0.l2Hits;
    r.l1 = l1_[core].counters().since(l1c);
    r.l2 = l2_[core].counters().since(l2c);
    // Only private hits (so nothing shared was touched), no stream
    // event replayed, no draw.
    r.clean = r.l1Hits + r.l2Hits == pas.size() &&
              stats_.streamAccesses == s0.streamAccesses && rng_ == rng0;
    w.head = slot;
    w.filled = std::min(w.filled + 1, kRing);

    // The shortest cycle ending here: back-to-back clean runs of this
    // duration whose first one began from the rows there are now.
    w.period = 0;
    for (unsigned p = 1; r.clean && p <= w.filled; ++p) {
        const unsigned first = (slot + kRing + 1 - p) % kRing;
        const RepeatRun &f = w.runs[first];
        if (!f.clean || f.end - f.start != d ||
            (p > 1 && f.end != w.runs[(first + 1) % kRing].start))
            break;
        if (watchedRowsEqual(w, first)) {
            w.period = p;
            break;
        }
    }
    return d;
}

std::uint64_t
Machine::skipRepeats(unsigned core, std::span<const Addr> pas,
                     const BatchSpec &spec, Cycles until,
                     std::uint64_t limit)
{
    constexpr unsigned kRing = kRepeatMaxPeriod;
    if (!silent_ || limit == 0 || !spec.overlapped || spec.helper >= 0 ||
        (spec.op != BatchOp::Load && spec.op != BatchOp::Store))
        return 0;
    RepeatWatch *w = watchOf(core, pas, spec.op);
    if (!w) {
        watchRepeats(repeats_[spec.op == BatchOp::Store], core, pas);
        return 0;
    }
    const unsigned p = w->period;
    const unsigned first = (w->head + kRing + 1 - p) % kRing;
    if (p == 0 || clock_ != w->runs[w->head].end ||
        !watchedRowsEqual(*w, first))
        return 0;

    // Whole repeats only, each starting strictly before `until` and
    // before the next stream event due in a set the batch syncs (a
    // sync at time t replays every event stamped <= t).
    Cycles stop = until;
    if (!quiescent_) {
        for (unsigned i = 0; i < w->nShared; ++i) {
            for (const std::size_t idx : setStreams_[w->sharedSets[i]]) {
                const Stream &st = streams_[idx];
                if (st.cursor < st.times.size())
                    stop = std::min(stop, st.times[st.cursor]);
            }
        }
    }
    if (clock_ >= stop)
        return 0;
    const Cycles d = w->runs[w->head].end - w->runs[w->head].start;
    // Whole cycles of p runs, so the rows end as they are now.
    std::uint64_t cycles = std::min((stop - 1 - clock_) / d + 1, limit) / p;
    cycles = std::min(cycles, (kNeverCycles - clock_) / (d * p));

    RepeatRun sum;
    for (unsigned i = 0; i < p; ++i) {
        const RepeatRun &r = w->runs[(first + i) % kRing];
        sum.loads += r.loads;
        sum.stores += r.stores;
        sum.l1Hits += r.l1Hits;
        sum.l2Hits += r.l2Hits;
        sum.l1 += r.l1;
        sum.l2 += r.l2;
    }

    // perf_.levelCycles is a double: one bulk addition must land on
    // the bits the separate per-access additions give, which holds
    // while the latency and every partial sum are integers below 2^53.
    constexpr double kExact = 0x1p53;
    const std::uint64_t hits[2] = {sum.l1Hits, sum.l2Hits};
    std::uint64_t lat[2] = {};
    for (unsigned i = 0; i < 2; ++i) {
        if (hits[i] == 0)
            continue;
        const double l = effLatency(static_cast<HitLevel>(i));
        const double acc = perf_.levelCycles[i];
        if (l != std::floor(l) || l < 0.0 || l >= kExact ||
            acc != std::floor(acc) || acc >= kExact)
            return 0;
        lat[i] = static_cast<std::uint64_t>(l);
        if (lat[i] > 0) {
            const auto room = static_cast<std::uint64_t>(kExact - acc);
            cycles = std::min(cycles, room / (hits[i] * lat[i]));
        }
    }
    if (cycles == 0)
        return 0;

    const std::uint64_t n = cycles * p;
    const Cycles last_start = clock_ + (n - 1) * d;
    clock_ += n * d;
    stats_.loads += cycles * sum.loads;
    stats_.stores += cycles * sum.stores;
    stats_.l1Hits += cycles * sum.l1Hits;
    stats_.l2Hits += cycles * sum.l2Hits;
    for (unsigned i = 0; i < 2; ++i) {
        perf_.levelAccesses[i] += cycles * hits[i];
        perf_.levelCycles[i] +=
            static_cast<double>(cycles * hits[i] * lat[i]);
    }
    l1_[core].addCounters(sum.l1.times(cycles));
    l2_[core].addCounters(sum.l2.times(cycles));
    privateHitStreak_ += static_cast<unsigned>(n * w->count);
    if (!quiescent_) {
        for (unsigned i = 0; i < w->nShared; ++i) {
            Cycles &t = lastSync_[w->sharedSets[i]];
            t = std::max(t, last_start);
        }
    }
    // The recorded cycle now stands for its last repeat.
    for (unsigned i = 0; i < p; ++i) {
        RepeatRun &r = w->runs[(first + i) % kRing];
        r.start += n * d;
        r.end += n * d;
    }
    return n;
}

} // namespace llcf

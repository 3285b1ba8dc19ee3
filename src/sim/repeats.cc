/**
 * @file
 * Machine::skipRepeats and the batch watch behind it: a table of the
 * clean transitions of a watched overlapped batch on a silent machine,
 * replayed one run at a time or skipped a whole cycle at a time
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
    // The recorded transitions belong to the batch watched so far.
    w.size = 0;
    w.next = 0;
    w.lastEnd = kNeverCycles;
    // One chunk, so a run syncs every set at its start time.
    if (pas.empty() || pas.size() > kBurstChunk)
        return;
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
    w.imageWords =
        w.nL1 * l1_[core].rowWords() + w.nL2 * l2_[core].rowWords();
    const std::size_t words = (1 + 2 * kRepeatTable) * w.imageWords;
    if (w.rows.size() < words)
        w.rows.resize(words);
    if (w.lines.empty())
        w.lines.resize(kBurstChunk);
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
Machine::saveWatchedRows(const RepeatWatch &w, std::uint64_t *out) const
{
    const CacheArray &l1 = l1_[w.core];
    const CacheArray &l2 = l2_[w.core];
    for (unsigned i = 0; i < w.nL1; ++i, out += l1.rowWords())
        l1.saveRow(w.l1Sets[i], out);
    for (unsigned i = 0; i < w.nL2; ++i, out += l2.rowWords())
        l2.saveRow(w.l2Sets[i], out);
}

void
Machine::loadWatchedRows(const RepeatWatch &w, const std::uint64_t *img)
{
    CacheArray &l1 = l1_[w.core];
    CacheArray &l2 = l2_[w.core];
    for (unsigned i = 0; i < w.nL1; ++i, img += l1.rowWords())
        l1.loadRow(w.l1Sets[i], img);
    for (unsigned i = 0; i < w.nL2; ++i, img += l2.rowWords())
        l2.loadRow(w.l2Sets[i], img);
}

Cycles
Machine::nextWatchedEvent(const RepeatWatch &w) const
{
    // A sync at time t replays every event stamped <= t.
    Cycles next = kNeverCycles;
    if (quiescent_)
        return next;
    for (unsigned i = 0; i < w.nShared; ++i) {
        for (const std::size_t idx : setStreams_[w.sharedSets[i]]) {
            const Stream &st = streams_[idx];
            if (st.cursor < st.times.size())
                next = std::min(next, st.times[st.cursor]);
        }
    }
    return next;
}

std::uint64_t
Machine::exactRepeats(const RepeatTransition &t, std::uint64_t k) const
{
    // perf_.levelCycles is a double: one bulk addition must land on
    // the bits the separate per-access additions give, which holds
    // while the latency and every partial sum are integers below 2^53.
    constexpr double kExact = 0x1p53;
    const std::uint64_t hits[2] = {t.l1Hits, t.l2Hits};
    for (unsigned i = 0; i < 2; ++i) {
        if (hits[i] == 0)
            continue;
        const double l = effLatency(static_cast<HitLevel>(i));
        const double acc = perf_.levelCycles[i];
        if (l != std::floor(l) || l < 0.0 || l >= kExact ||
            acc != std::floor(acc) || acc >= kExact)
            return 0;
        const auto lat = static_cast<std::uint64_t>(l);
        if (lat > 0) {
            const auto room = static_cast<std::uint64_t>(kExact - acc);
            k = std::min(k, room / (hits[i] * lat));
        }
    }
    return k;
}

void
Machine::replayRuns(const RepeatWatch &w, const RepeatTransition &t,
                    std::uint64_t k, std::uint64_t runs, Cycles last_start)
{
    stats_.loads += k * t.loads;
    stats_.stores += k * t.stores;
    stats_.l1Hits += k * t.l1Hits;
    stats_.l2Hits += k * t.l2Hits;
    const std::uint64_t hits[2] = {t.l1Hits, t.l2Hits};
    for (unsigned i = 0; i < 2; ++i) {
        if (hits[i] == 0)
            continue;
        const double lat = effLatency(static_cast<HitLevel>(i));
        perf_.levelAccesses[i] += k * hits[i];
        perf_.levelCycles[i] += static_cast<double>(
            k * hits[i] * static_cast<std::uint64_t>(lat));
    }
    l1_[w.core].addCounters(t.l1.times(k));
    l2_[w.core].addCounters(t.l2.times(k));
    // Every access of a clean run is a private hit.
    privateHitStreak_ += static_cast<unsigned>(runs * w.count);
    if (!quiescent_) {
        for (unsigned i = 0; i < w.nShared; ++i) {
            Cycles &s = lastSync_[w.sharedSets[i]];
            s = std::max(s, last_start);
        }
    }
}

Cycles
Machine::watchedAccess(RepeatWatch &w, std::span<const Addr> pas,
                       bool is_store)
{
    const unsigned core = w.core;
    std::uint64_t *now_rows = w.image(0);
    saveWatchedRows(w, now_rows);
    const Cycles start = clock_;

    // A run from recorded rows with no event due at its start repeats
    // the recorded one.
    const int e = w.find(now_rows);
    if (e >= 0 && nextWatchedEvent(w) > start &&
        exactRepeats(w.table[e], 1) == 1) {
        const RepeatTransition &t = w.table[e];
        loadWatchedRows(w, w.image(2 + 2 * e));
        replayRuns(w, t, 1, 1, start);
        clock_ += t.duration;
        w.lastEnd = clock_;
        w.lastDuration = t.duration;
        return t.duration;
    }

    const Rng rng0 = rng_;
    const MachineStats s0 = stats_;
    const ArrayCounters l1c = l1_[core].counters();
    const ArrayCounters l2c = l2_[core].counters();
    const Cycles d = overlappedAccess(core, pas, is_store, -1);
    w.lastEnd = clock_;
    w.lastDuration = d;
    // Only private hits (so nothing shared was touched), no stream
    // event replayed, no draw.
    const std::uint64_t l1_hits = stats_.l1Hits - s0.l1Hits;
    const std::uint64_t l2_hits = stats_.l2Hits - s0.l2Hits;
    if (l1_hits + l2_hits != pas.size() ||
        stats_.streamAccesses != s0.streamAccesses || !(rng_ == rng0))
        return d;

    const unsigned slot = w.next;
    w.next = (slot + 1) % kRepeatTable;
    w.size = std::min(w.size + 1, kRepeatTable);
    std::copy(now_rows, now_rows + w.imageWords, w.image(1 + 2 * slot));
    saveWatchedRows(w, w.image(2 + 2 * slot));
    RepeatTransition &t = w.table[slot];
    t.duration = d;
    t.loads = stats_.loads - s0.loads;
    t.stores = stats_.stores - s0.stores;
    t.l1Hits = l1_hits;
    t.l2Hits = l2_hits;
    t.l1 = l1_[core].counters().since(l1c);
    t.l2 = l2_[core].counters().since(l2c);
    return d;
}

std::uint64_t
Machine::skipRepeats(unsigned core, std::span<const Addr> pas,
                     const BatchSpec &spec, Cycles until,
                     std::uint64_t limit)
{
    if (!silent_ || limit == 0 || !spec.overlapped || spec.helper >= 0 ||
        (spec.op != BatchOp::Load && spec.op != BatchOp::Store))
        return 0;
    RepeatWatch *w = watchOf(core, pas, spec.op);
    if (!w) {
        watchRepeats(repeats_[spec.op == BatchOp::Store], core, pas);
        return 0;
    }
    // The caller charges every skipped run the duration of the run
    // that just ended here.
    const Cycles d = w->lastDuration;
    if (clock_ != w->lastEnd)
        return 0;

    // Whole repeats only, each starting strictly before `until` and
    // before the next stream event due in a set the batch syncs.
    const Cycles stop = std::min(until, nextWatchedEvent(*w));
    if (clock_ >= stop)
        return 0;

    // The cycle of p transitions from the rows there are now back to
    // them, every one of duration d.
    std::uint64_t *now_rows = w->image(0);
    saveWatchedRows(*w, now_rows);
    RepeatTransition sum;
    unsigned p = 0;
    const std::uint64_t *rows = now_rows;
    do {
        const int e = p < kRepeatMaxPeriod ? w->find(rows) : -1;
        if (e < 0 || w->table[e].duration != d)
            return 0;
        const RepeatTransition &t = w->table[e];
        sum.loads += t.loads;
        sum.stores += t.stores;
        sum.l1Hits += t.l1Hits;
        sum.l2Hits += t.l2Hits;
        sum.l1 += t.l1;
        sum.l2 += t.l2;
        rows = w->image(2 + 2 * e);
        ++p;
    } while (!w->same(rows, now_rows));

    // Whole cycles, so the rows end as they are now.
    std::uint64_t cycles = std::min((stop - 1 - clock_) / d + 1, limit) / p;
    cycles = std::min(cycles, (kNeverCycles - clock_) / (d * p));
    cycles = exactRepeats(sum, cycles);
    if (cycles == 0)
        return 0;

    const std::uint64_t n = cycles * p;
    replayRuns(*w, sum, cycles, n, clock_ + (n - 1) * d);
    clock_ += n * d;
    w->lastEnd = clock_;
    return n;
}

} // namespace llcf

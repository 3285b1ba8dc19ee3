#include "victim/aes_victim.hh"

#include <algorithm>
#include <utility>

namespace llcf {

static_assert(kAesEncryptions > 0,
              "aes victim needs at least one encryption per request");
static_assert(kVictimDecoyLines <= 3,
              "aes victim supports at most 3 decoy lines (one per "
              "sibling table)");

AesTableVictim::AesTableVictim(Machine &machine, const VictimConfig &cfg)
    : Victim(machine, cfg),
      rng_(mix64(cfg.seed ^ 0xae51)),
      keyRng_(mix64(cfg.seed ^ 0xae52))
{
    rotateKey();

    // The T-table page is mapped once and keeps its VA-PA mapping
    // for the service's lifetime, like the ECDSA victim's library.
    const Addr table_base = space_->mmapAnon(kPageBytes);
    for (unsigned line = 0; line < kLinesPerPage; ++line) {
        linePas_[line] = space_->translate(
            table_base + (static_cast<Addr>(line) << kLineBits));
    }
    targetPa_ = linePas_[cfg_.targetLineIndex];
    // Decoys: the same in-table line of the sibling tables — they
    // carry the same access statistics as the monitored line, which
    // is exactly the false-positive shape the scanner must reject.
    for (unsigned i = 0; i < kVictimDecoyLines; ++i) {
        const unsigned idx =
            ((monitoredTable() + 1 + i) % 4) * 16 + monitoredLine();
        decoyPas_.push_back(linePas_[idx]);
    }
}

VictimFamily
AesTableVictim::family() const
{
    return VictimFamily::AesTable;
}

std::size_t
AesTableVictim::expectedIterations() const
{
    return kAesEncryptions;
}

double
AesTableVictim::expectedAccessFrequencyHz() const
{
    // 144 traced lookups per encryption, 36 into the monitored
    // table, uniform over its 16 lines: 2.25 touches per window.
    const double per_window = 36.0 / 16.0;
    return kCpuGhz * 1e9 * per_window /
           static_cast<double>(cfg_.iterationCycles);
}

void
AesTableVictim::rotateKey()
{
    Aes128::Block key;
    for (auto &b : key)
        b = static_cast<std::uint8_t>(keyRng_.nextBelow(256));
    aes_.emplace(key);
}

Cycles
AesTableVictim::closedLoopGap()
{
    return static_cast<Cycles>(
        rng_.nextExponential(static_cast<double>(
            cfg_.iterationCycles) * 20.0));
}

Victim::Execution
AesTableVictim::generateExecution(Cycles request_start)
{
    Execution exec;
    exec.requestStart = request_start;

    const std::size_t windows = kAesEncryptions;
    const double loop_time = static_cast<double>(windows) *
                             static_cast<double>(cfg_.iterationCycles);
    const double other_time =
        loop_time * (1.0 - cfg_.dutyCycle) / cfg_.dutyCycle;
    const Cycles pre = static_cast<Cycles>(other_time * 0.4);
    exec.ladderStart = request_start + pre;

    exec.iterationStarts.reserve(windows + 1);
    exec.plaintexts.reserve(windows);
    std::vector<Cycles> target_times;
    std::vector<std::vector<Cycles>> decoy_times(decoyPas_.size());
    std::vector<Aes128::TableLookup> lookups;

    double t = static_cast<double>(exec.ladderStart);
    for (std::size_t i = 0; i < windows; ++i) {
        const Cycles start = static_cast<Cycles>(t);
        exec.iterationStarts.push_back(start);
        double dur = static_cast<double>(cfg_.iterationCycles);
        if (cfg_.iterationJitter > 0.0) {
            dur *= std::max(0.5, 1.0 + cfg_.iterationJitter *
                                 rng_.nextGaussian());
        }

        Aes128::Block pt;
        for (auto &b : pt)
            b = static_cast<std::uint8_t>(rng_.nextBelow(256));
        exec.plaintexts.push_back(pt);

        lookups.clear();
        aes_->encryptTrace(pt, lookups);

        // Nine rounds of 16 lookups, spread across the window in
        // round order — pure data flow, no host randomness.
        bool touched = false;
        for (std::size_t n = 0; n < lookups.size(); ++n) {
            const unsigned round = static_cast<unsigned>(n / 16);
            const unsigned slot = static_cast<unsigned>(n % 16);
            const unsigned line =
                lookups[n].table * 16u + (lookups[n].index >> 4);
            const Cycles when =
                start +
                static_cast<Cycles>(dur * (0.05 + 0.09 * round)) +
                11 * slot;
            if (line == cfg_.targetLineIndex) {
                target_times.push_back(when);
                touched = true;
                continue;
            }
            for (std::size_t d = 0; d < decoyPas_.size(); ++d) {
                const unsigned didx =
                    ((monitoredTable() + 1 +
                      static_cast<unsigned>(d)) % 4) * 16 +
                    monitoredLine();
                if (line == didx) {
                    decoy_times[d].push_back(when);
                    break;
                }
            }
        }
        exec.bits.push_back(touched ? 1 : 0);
        t += dur;
    }
    exec.ladderEnd = static_cast<Cycles>(t);
    exec.iterationStarts.push_back(exec.ladderEnd);
    exec.requestEnd = exec.ladderEnd +
        static_cast<Cycles>(other_time * 0.6);
    exec.targetAccesses = target_times;

    machine_.addStream(cfg_.core, targetPa_, std::move(target_times));
    for (std::size_t d = 0; d < decoyPas_.size(); ++d) {
        if (!decoy_times[d].empty()) {
            machine_.addStream(cfg_.core, decoyPas_[d],
                               std::move(decoy_times[d]));
        }
    }
    return exec;
}

} // namespace llcf

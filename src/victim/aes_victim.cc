#include "victim/aes_victim.hh"

#include <algorithm>

namespace llcf {

static_assert(kAesEncryptions > 0,
              "aes victim needs at least one encryption per request");
static_assert(kVictimDecoyLines <= 3,
              "aes victim supports at most 3 decoy lines (one per "
              "sibling table)");

AesTableVictim::AesTableVictim(Machine &machine, const VictimConfig &cfg)
    : Victim(machine, cfg, 0xae51),
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

std::size_t
AesTableVictim::expectedIterations() const
{
    return kAesEncryptions;
}

void
AesTableVictim::rotateKey()
{
    Aes128::Block key;
    for (auto &b : key)
        b = static_cast<std::uint8_t>(keyRng_.nextBelow(256));
    aes_.emplace(key);
}

std::size_t
AesTableVictim::beginRequest(Execution &exec, Fetches &)
{
    exec.plaintexts.reserve(kAesEncryptions);
    return kAesEncryptions;
}

void
AesTableVictim::iterate(std::size_t, Cycles start, double dur,
                        Execution &exec, Fetches &fetches)
{
    Aes128::Block pt;
    for (auto &b : pt)
        b = static_cast<std::uint8_t>(rng_.nextBelow(256));
    exec.plaintexts.push_back(pt);

    lookups_.clear();
    aes_->encryptTrace(pt, lookups_);

    // Nine rounds of 16 lookups, spread across the window in round
    // order — pure data flow, no host randomness.
    bool touched = false;
    for (std::size_t n = 0; n < lookups_.size(); ++n) {
        const unsigned round = static_cast<unsigned>(n / 16);
        const unsigned slot = static_cast<unsigned>(n % 16);
        const unsigned line =
            lookups_[n].table * 16u + (lookups_[n].index >> 4);
        const Cycles when =
            start + static_cast<Cycles>(dur * (0.05 + 0.09 * round)) +
            11 * slot;
        if (line == cfg_.targetLineIndex) {
            fetches.target.push_back(when);
            touched = true;
            continue;
        }
        const auto decoy =
            std::find(decoyPas_.begin(), decoyPas_.end(), linePas_[line]);
        if (decoy != decoyPas_.end())
            fetches.decoys[decoy - decoyPas_.begin()].push_back(when);
    }
    exec.bits.push_back(touched ? 1 : 0);
}

} // namespace llcf

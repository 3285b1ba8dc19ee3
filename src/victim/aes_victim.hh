/**
 * @file
 * The table-lookup AES victim: a second leakage family.
 *
 * The service encrypts attacker-known plaintexts with T-table
 * AES-128.  All four 1 KB T-tables live on one 4 KB page, 16 lines
 * each; the monitored cache line is line `targetLineIndex % 16` of
 * table `targetLineIndex / 16`.  Every encryption window either
 * touches that line or it does not — cache-line-granular leakage:
 * a window with *no* access rules out every key-byte upper nibble
 * that would have mapped one of the window's first-round lookups
 * onto the line (Osvik/Shamir/Tromer), which is how the attack side
 * (attack/aes_recovery.*) recovers upper key-byte nibbles.
 *
 * Ground truth follows the shared Execution contract: one
 * "iteration" is one encryption window, `bits[i]` records whether
 * the monitored line was touched in window i, and `targetAccesses`
 * holds the touch times.
 */

#ifndef LLCF_VICTIM_AES_VICTIM_HH
#define LLCF_VICTIM_AES_VICTIM_HH

#include <array>
#include <optional>

#include "crypto/aes.hh"
#include "victim/victim.hh"

namespace llcf {

/**
 * AES-128 T-table encryption service (VictimFamily::AesTable).
 */
class AesTableVictim final : public Victim
{
  public:
    AesTableVictim(Machine &machine, const VictimConfig &cfg);

    VictimFamily family() const override;

    /** One request runs kAesEncryptions encryption windows. */
    std::size_t expectedIterations() const override;

    /**
     * The monitored line receives 36/16 = 2.25 of each window's
     * traced lookups on average.
     */
    double expectedAccessFrequencyHz() const override;

    /** The current AES key (experimenter-side ground truth). */
    const Aes128::Block &keyBytes() const { return aes_->key(); }

    /** T-table number of the monitored line (0-3). */
    unsigned monitoredTable() const { return cfg_.targetLineIndex / 16; }

    /** Line index of the monitored line inside its table (0-15). */
    unsigned monitoredLine() const { return cfg_.targetLineIndex % 16; }

  protected:
    Execution generateExecution(Cycles request_start) override;
    void rotateKey() override;
    Cycles closedLoopGap() override;

  private:
    Rng rng_;    //!< window jitter + plaintext stream
    Rng keyRng_; //!< key material stream (rotation epochs)
    std::optional<Aes128> aes_;
    std::array<Addr, kLinesPerPage> linePas_{};
};

} // namespace llcf

#endif // LLCF_VICTIM_AES_VICTIM_HH

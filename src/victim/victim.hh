/**
 * @file
 * Victim services: the family interface and the Montgomery-ladder
 * ECDSA signer (paper Section 7.1).
 *
 * A Victim is a containerized service whose secret-dependent cache
 * line accesses are replayed into the simulated machine as timed
 * streams, together with the experimenter-side ground truth
 * (Execution) the attack is scored against.  Families:
 *
 *  - EcdsaLadderVictim signs requests with the vulnerable sect571r1
 *    Montgomery ladder.  The target line is fetched at every
 *    iteration boundary (the `if (bit)` line acts as the attacker's
 *    clock) and once more at the iteration midpoint when the branch
 *    direction matching the monitored line is taken (with the
 *    instrumented layout of Section 7.1, the bit value 0).  Decoy
 *    lines model MAdd/MDouble body fetches — the false-positive
 *    sources the paper's Section 7.2 scanner must reject.
 *
 *  - AesTableVictim (aes_victim.hh) encrypts with table-lookup
 *    AES-128; its T-table line accesses are key-byte-dependent at
 *    cache-line granularity, so the attacker recovers upper key-byte
 *    nibbles instead of nonce bits.
 *
 * Both families honour the same request-loop contract: closed-loop
 * think-time gaps by default, open-loop arrivals when
 * VictimConfig::arrival is active, and mid-campaign key rotation
 * every VictimConfig::rotateKeys requests.
 */

#ifndef LLCF_VICTIM_VICTIM_HH
#define LLCF_VICTIM_VICTIM_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "crypto/ecdsa.hh"
#include "sim/machine.hh"
#include "traffic/traffic.hh"

namespace llcf {

/** Registered victim families (makeVictim dispatches on this). */
enum class VictimFamily {
    EcdsaLadder, //!< Montgomery-ladder ECDSA signer (nonce bits leak)
    AesTable,    //!< T-table AES-128 (key-byte nibbles leak)
};

/** Human-readable family name (cell listings, conformance suite). */
const char *victimFamilyName(VictimFamily family);

/** Number of decoy code/data lines accessed at ladder frequency. */
constexpr unsigned kVictimDecoyLines = 3;

/** AES family: encryptions per request (leakage windows). */
constexpr unsigned kAesEncryptions = 48;

/** Victim service parameters. */
struct VictimConfig
{
    /** Which service family to run (see VictimFamily). */
    VictimFamily family = VictimFamily::EcdsaLadder;

    unsigned core = 2;         //!< physical core the victim runs on

    /** Ladder-iteration duration (paper: ~9,700 cycles at 2 GHz).
        For the AES family: one encryption window. */
    Cycles iterationCycles = 9700;

    /** Per-iteration duration jitter (fraction). */
    double iterationJitter = 0.02;

    /**
     * Monitored-line semantics: true models the instrumented layout
     * where the midpoint access occurs for bit == 0 (Section 7.1);
     * false models the original line-2 layout (midpoint on bit == 1).
     * ECDSA family only.
     */
    bool midpointOnZero = true;

    /** Fraction of a request spent in the vulnerable loop. */
    double dutyCycle = 0.25;

    /** Page-line index of the target line inside the victim binary. */
    unsigned targetLineIndex = 21;

    /**
     * Lifetime request quota (0 = unlimited).  Models a rate-limited
     * or short-lived victim service: once the quota is exhausted,
     * serveRequests() returns fewer executions than asked — possibly
     * none.  Campaign fleets use this to exercise the attack's
     * partial-result paths.
     */
    std::uint64_t requestQuota = 0;

    /**
     * Rotate the secret key every this many requests (0 = never).
     * Each rotation starts a new key epoch; campaigns score epochs
     * independently (DESIGN.md §11).
     */
    std::uint64_t rotateKeys = 0;

    /**
     * Open-loop request arrivals.  Inactive (the default) keeps the
     * closed-loop think-time behaviour; active specs time requests
     * by a dedicated positional arrival stream instead, with queueing
     * when a request arrives before the previous one finished.
     */
    ArrivalSpec arrival;

    std::uint64_t seed = 99;
};

/**
 * A victim service instance on a simulated machine: the family
 * interface.  Concrete families implement generateExecution() (one
 * request's access streams + ground truth), key rotation, and the
 * spectral self-description the scanner trains against.
 */
class Victim
{
  public:
    /** Ground truth of one triggered request. */
    struct Execution
    {
        /** ECDSA family: the signing's nonce/ladder record. */
        SigningRecord record;
        Cycles requestStart = 0;
        Cycles ladderStart = 0;
        Cycles ladderEnd = 0;
        Cycles requestEnd = 0;
        /** Iteration boundary times (size = bits + 1: includes end). */
        std::vector<Cycles> iterationStarts;
        /** Per-iteration ground-truth bits (loop order).  ECDSA:
            nonce bits; AES: 1 iff the monitored line was touched in
            that encryption window. */
        std::vector<std::uint8_t> bits;
        /** Times the target line was fetched. */
        std::vector<Cycles> targetAccesses;
        /** Key epoch this request was served under (0-based). */
        unsigned keyEpoch = 0;
        /** AES family: attacker-known plaintexts, one per window. */
        std::vector<std::array<std::uint8_t, 16>> plaintexts;
    };

    virtual ~Victim();

    Victim(const Victim &) = delete;
    Victim &operator=(const Victim &) = delete;

    const VictimConfig &config() const { return cfg_; }

    /** The concrete family (dispatch for family-specific scoring). */
    virtual VictimFamily family() const = 0;

    /** Physical address of the monitored cache line. */
    Addr targetLinePa() const { return targetPa_; }

    /** Page-line index (page offset / 64) of the target line. */
    unsigned targetLineIndex() const { return cfg_.targetLineIndex; }

    /** Physical addresses of the decoy lines (ground truth). */
    const std::vector<Addr> &decoyPas() const { return decoyPas_; }

    /**
     * Serve one request: processing starts at @p request_start
     * (absolute machine time, may be in the future).  Rotates the
     * key at epoch boundaries, registers the access streams and
     * returns the full ground truth.
     */
    Execution triggerRequest(Cycles request_start);

    /**
     * Serve up to @p count requests starting at @p first_start.
     * Closed loop (no arrival spec): back-to-back with think-time
     * gaps so the leaky loop occupies ~dutyCycle of wall time.
     * Open loop: requests are timed by the arrival process and queue
     * behind the previous request when they arrive early.  Stops
     * once the request quota (if any) is exhausted, so the result
     * may hold fewer than @p count executions — callers must not
     * index it unchecked.
     * @return ground truth per served request.
     */
    std::vector<Execution> serveRequests(Cycles first_start,
                                         unsigned count);

    /** Requests still allowed by the quota (~0 when unlimited). */
    std::uint64_t
    remainingQuota() const
    {
        if (cfg_.requestQuota == 0)
            return ~0ULL;
        return cfg_.requestQuota - std::min(cfg_.requestQuota,
                                            requestCounter_);
    }

    /** Current key epoch (increments every cfg.rotateKeys requests). */
    unsigned keyEpoch() const { return keyEpoch_; }

    /** Duration of one full request (loop time / dutyCycle) estimate. */
    Cycles expectedRequestCycles(std::size_t iterations) const;

    /** Typical leakage-loop iterations per request (request sizing). */
    virtual std::size_t expectedIterations() const = 0;

    /**
     * Expected frequency (Hz) of target-line accesses while the
     * leaky loop runs — where the scanner expects the PSD peak.
     */
    virtual double expectedAccessFrequencyHz() const = 0;

    /** Open-loop arrivals served so far (0 in closed loop). */
    std::uint64_t arrivalCount() const { return arrivalCount_; }

    /** Mean open-loop queueing delay in cycles (0 when none). */
    double
    meanQueueDelayCycles() const
    {
        return arrivalCount_ == 0
                   ? 0.0
                   : queueDelaySum_ / static_cast<double>(arrivalCount_);
    }

  protected:
    /** Validates @p cfg (fatal on nonsense) and maps nothing yet:
        concrete families lay out their own code/table pages. */
    Victim(Machine &machine, const VictimConfig &cfg);

    /** One request's streams + ground truth (epoch set by caller). */
    virtual Execution generateExecution(Cycles request_start) = 0;

    /** Install a fresh secret at an epoch boundary. */
    virtual void rotateKey() = 0;

    /** Closed-loop think time drawn from the family's own stream. */
    virtual Cycles closedLoopGap() = 0;

    Machine &machine_;
    VictimConfig cfg_;
    std::unique_ptr<AddressSpace> space_;
    Addr targetPa_ = 0;
    std::vector<Addr> decoyPas_;
    std::uint64_t requestCounter_ = 0;

  private:
    std::unique_ptr<ArrivalProcess> arrivals_;
    Cycles nextArrival_ = 0;
    bool arrivalsPrimed_ = false;
    Cycles lastRequestEnd_ = 0;
    std::uint64_t arrivalCount_ = 0;
    double queueDelaySum_ = 0.0;
    unsigned keyEpoch_ = 0;
    std::uint64_t requestsThisEpoch_ = 0;
};

/**
 * The Montgomery-ladder ECDSA signing service (paper Section 7.1).
 */
class EcdsaLadderVictim final : public Victim
{
  public:
    EcdsaLadderVictim(Machine &machine, const VictimConfig &cfg);

    VictimFamily family() const override;

    /** The victim's key pair (experimenter-side ground truth). */
    const EcdsaKeyPair &keyPair() const { return key_; }

    /** sect571r1 ladders run ~570 iterations. */
    std::size_t expectedIterations() const override;

    /**
     * One access per half iteration on average — the paper's PSD
     * peak location (~0.41 MHz at default timing).
     */
    double expectedAccessFrequencyHz() const override;

  protected:
    Execution generateExecution(Cycles request_start) override;
    void rotateKey() override;
    Cycles closedLoopGap() override;

  private:
    Ecdsa ecdsa_;
    EcdsaKeyPair key_;
    Rng rng_;
};

/** Construct the family selected by @p cfg.family. */
std::unique_ptr<Victim> makeVictim(Machine &machine,
                                   const VictimConfig &cfg);

} // namespace llcf

#endif // LLCF_VICTIM_VICTIM_HH

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
 *  - EcdsaLadderVictim models a sect571r1 signer whose nonce
 *    multiplication is the vulnerable Montgomery ladder.  The target
 *    line is fetched at every iteration boundary (the `if (bit)` line
 *    acts as the attacker's clock) and once more at the iteration
 *    midpoint for bit value 0 (the instrumented layout of Section
 *    7.1).  Decoy lines model MAdd/MDouble body fetches — the
 *    false-positive sources the paper's Section 7.2 scanner must
 *    reject.  That fetch pattern depends on the nonce bits alone, so
 *    the victim draws the private scalar and each nonce exactly as
 *    the reference signer (crypto/ecdsa.hh) does and replays the
 *    nonce's ladder bits; it computes no public key, ladder or
 *    signature.  The one divergence: the reference signer redraws a
 *    nonce whose ladder ends at the point at infinity or whose r or
 *    s is 0, which happens with probability about 2^-570 per
 *    signature; the victim keeps that nonce.
 *
 *  - AesTableVictim (aes_victim.hh) encrypts with table-lookup
 *    AES-128; its T-table line accesses are key-byte-dependent at
 *    cache-line granularity, so the attacker recovers upper key-byte
 *    nibbles instead of nonce bits.
 *
 * The base class runs one request timeline for every family (key
 * rotation, jittered loop, think time or open-loop arrivals, ground
 * truth, stream registration); a family supplies its page layout, its
 * secret draws and the fetches one loop iteration makes.
 */

#ifndef LLCF_VICTIM_VICTIM_HH
#define LLCF_VICTIM_VICTIM_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "crypto/biguint.hh"
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

/** Physical core the victim runs on. */
constexpr unsigned kVictimCore = 2;

/** Loop-iteration duration (paper: ~9,700 cycles at 2 GHz).  For the
    AES family: one encryption window. */
constexpr Cycles kVictimIterationCycles = 9700;

/** Fraction of a request spent in the vulnerable loop. */
constexpr double kVictimDutyCycle = 0.25;

static_assert(kVictimIterationCycles > 0, "iterations must take time");
static_assert(kVictimDutyCycle > 0.0 && kVictimDutyCycle <= 1.0,
              "a duty cycle outside (0, 1] poisons every duration");

/** Victim service parameters. */
struct VictimConfig
{
    /** Which service family to run (see VictimFamily). */
    VictimFamily family = VictimFamily::EcdsaLadder;

    /** Per-iteration duration jitter (fraction). */
    double iterationJitter = 0.02;

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
 * A victim service instance on a simulated machine.  Concrete
 * families lay out their pages in their constructor and implement
 * the protected hooks the base class's request timeline calls.
 */
class Victim
{
  public:
    /** Ground truth of one triggered request. */
    struct Execution
    {
        /** ECDSA family: the request's nonce k. */
        BigUint nonce;
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
     * gaps so the leaky loop occupies ~kVictimDutyCycle of wall time.
     * Open loop: requests are timed by the arrival process and queue
     * behind the previous request when they arrive early.  Stops
     * once the request quota (if any) is exhausted.  Only the access
     * streams stay behind; each request's ground truth is dropped
     * once they are registered.  When @p truths is given, the ground
     * truth of every served request is appended to it instead.
     * @return the number of requests served (fewer than @p count
     *         once the quota runs out, possibly none).
     */
    unsigned serveRequests(Cycles first_start, unsigned count,
                           std::vector<Execution> *truths = nullptr);

    /**
     * Serve one request at @p start exactly as serveRequests(start, 1)
     * does, and return its ground truth.
     * @return std::nullopt once the request quota is exhausted.
     */
    std::optional<Execution> serveRequest(Cycles start);

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

    /** Duration of one full request (loop time / kVictimDutyCycle). */
    Cycles expectedRequestCycles(std::size_t iterations) const;

    /** Typical leakage-loop iterations per request (request sizing). */
    virtual std::size_t expectedIterations() const = 0;

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
    /** One request's fetch times: the target line's, and one list
        per decoy line in decoyPas() order. */
    struct Fetches
    {
        std::vector<Cycles> target;
        std::vector<std::vector<Cycles>> decoys;
    };

    /** Validates @p cfg (fatal on nonsense) and seeds rng_ from
        cfg.seed and @p timing_salt; maps nothing: concrete families
        lay out their own code/table pages. */
    Victim(Machine &machine, const VictimConfig &cfg,
           std::uint64_t timing_salt);

    /** Install a fresh secret at an epoch boundary. */
    virtual void rotateKey() = 0;

    /** Draw the request's secrets into @p exec (optionally reserving
        @p fetches); returns the number of loop iterations. */
    virtual std::size_t beginRequest(Execution &exec,
                                     Fetches &fetches) = 0;

    /** Iteration @p i runs @p dur cycles from @p start (its jitter
        already drawn): append its fetches, and its bit if not drawn
        up front. */
    virtual void iterate(std::size_t i, Cycles start, double dur,
                         Execution &exec, Fetches &fetches) = 0;

    /** Completes @p fetches as the loop exits at @p ladder_end. */
    virtual void endLoop(Cycles /*ladder_end*/, Fetches & /*fetches*/) {}

    Machine &machine_;
    VictimConfig cfg_;
    std::unique_ptr<AddressSpace> space_;
    Addr targetPa_ = 0;
    std::vector<Addr> decoyPas_;
    std::uint64_t requestCounter_ = 0;
    /** Timing draws (iteration jitter, think time), then whatever
        draws a family's iterate() makes. */
    Rng rng_;

  private:
    /**
     * The next request of a batch that began at @p first_start:
     * quota check, arrival timing, triggerRequest.  @p start is the
     * closed-loop start of this request and becomes the next one's.
     */
    std::optional<Execution> serveNext(Cycles first_start,
                                       Cycles &start);

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

    /** The current private scalar d (experimenter-side ground
        truth). */
    const BigUint &privateKey() const { return d_; }

    /** sect571r1 ladders run ~570 iterations. */
    std::size_t expectedIterations() const override;

  protected:
    void rotateKey() override;
    std::size_t beginRequest(Execution &exec, Fetches &fetches) override;
    void iterate(std::size_t i, Cycles start, double dur,
                 Execution &exec, Fetches &fetches) override;
    void endLoop(Cycles ladder_end, Fetches &fetches) override;

  private:
    /** Key and nonce draws: the reference signer's stream. */
    Rng secretRng_;
    BigUint d_;
};

/** Construct the family selected by @p cfg.family. */
std::unique_ptr<Victim> makeVictim(Machine &machine,
                                   const VictimConfig &cfg);

} // namespace llcf

#endif // LLCF_VICTIM_VICTIM_HH

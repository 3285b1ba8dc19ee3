#include "victim.hh"

#include <algorithm>

#include "common/log.hh"
#include "crypto/ec2m.hh"
#include "victim/aes_victim.hh"

namespace llcf {

namespace {

/** A uniform non-zero scalar below the sect571r1 order, drawn as the
    reference signer (crypto/ecdsa.hh) draws private keys and
    nonces. */
BigUint
drawScalar(Rng &rng)
{
    const BigUint &n = Sect571r1::instance().order();
    BigUint k;
    do {
        k = BigUint::randomBelow(n, rng);
    } while (k.isZero());
    return k;
}

} // namespace

const char *
victimFamilyName(VictimFamily family)
{
    switch (family) {
    case VictimFamily::EcdsaLadder:
        return "ecdsa";
    case VictimFamily::AesTable:
        return "aes";
    }
    return "?";
}

Victim::Victim(Machine &machine, const VictimConfig &cfg,
               std::uint64_t timing_salt)
    : machine_(machine),
      cfg_(cfg),
      space_(machine.newAddressSpace()),
      rng_(mix64(cfg.seed ^ timing_salt))
{
    if (kVictimCore >= machine.config().cores)
        fatal("victim core %u out of range", kVictimCore);
    if (cfg_.targetLineIndex >= kLinesPerPage)
        fatal("target line index %u out of range", cfg_.targetLineIndex);
    if (!(cfg_.iterationJitter >= 0.0) ||
        cfg_.iterationJitter >= 1.0) {
        // detlint: allow(float-format) -- fatal diagnostic only
        fatal("victim iterationJitter %.3f outside [0, 1)",
              cfg_.iterationJitter);
    }
    // Open-loop arrivals draw from their own positional stream so
    // closed-loop behaviour is byte-identical with or without the
    // traffic wing compiled in.
    if (cfg_.arrival.active())
        arrivals_ = std::make_unique<ArrivalProcess>(
            cfg_.arrival, mix64(cfg_.seed ^ 0x0a21));
}

Victim::~Victim() = default;

Cycles
Victim::expectedRequestCycles(std::size_t iterations) const
{
    const double ladder = static_cast<double>(iterations) *
                          static_cast<double>(kVictimIterationCycles);
    return static_cast<Cycles>(ladder / kVictimDutyCycle);
}

Victim::Execution
Victim::triggerRequest(Cycles request_start)
{
    if (cfg_.rotateKeys > 0 && requestsThisEpoch_ == cfg_.rotateKeys) {
        rotateKey();
        ++keyEpoch_;
        requestsThisEpoch_ = 0;
    }
    Execution exec;
    exec.requestStart = request_start;
    exec.keyEpoch = keyEpoch_;
    Fetches fetches;
    fetches.decoys.resize(decoyPas_.size());
    const std::size_t iters = beginRequest(exec, fetches);

    // Request timeline: pre-processing, loop, post-processing.
    const double loop_time = static_cast<double>(iters) *
                             static_cast<double>(kVictimIterationCycles);
    const double other_time =
        loop_time * (1.0 - kVictimDutyCycle) / kVictimDutyCycle;
    exec.ladderStart = request_start +
                       static_cast<Cycles>(other_time * 0.4);

    // Iteration boundaries with jitter.
    exec.iterationStarts.reserve(iters + 1);
    double t = static_cast<double>(exec.ladderStart);
    for (std::size_t i = 0; i < iters; ++i) {
        const Cycles start = static_cast<Cycles>(t);
        exec.iterationStarts.push_back(start);
        double dur = static_cast<double>(kVictimIterationCycles);
        if (cfg_.iterationJitter > 0.0) {
            dur *= std::max(0.5, 1.0 + cfg_.iterationJitter *
                                 rng_.nextGaussian());
        }
        iterate(i, start, dur, exec, fetches);
        t += dur;
    }
    exec.ladderEnd = static_cast<Cycles>(t);
    exec.iterationStarts.push_back(exec.ladderEnd);
    endLoop(exec.ladderEnd, fetches);
    exec.requestEnd = exec.ladderEnd +
        static_cast<Cycles>(other_time * 0.6);
    exec.targetAccesses = fetches.target;

    machine_.addStream(kVictimCore, targetPa_, std::move(fetches.target));
    for (std::size_t d = 0; d < decoyPas_.size(); ++d) {
        if (!fetches.decoys[d].empty()) {
            machine_.addStream(kVictimCore, decoyPas_[d],
                               std::move(fetches.decoys[d]));
        }
    }
    ++requestCounter_;
    ++requestsThisEpoch_;
    return exec;
}

std::optional<Victim::Execution>
Victim::serveNext(Cycles first_start, Cycles &start)
{
    if (remainingQuota() == 0)
        return std::nullopt;
    if (arrivals_) {
        // Open loop: the arrival clock runs independently of service
        // completions; early arrivals queue behind the in-flight
        // request.
        if (!arrivalsPrimed_) {
            nextArrival_ = first_start + arrivals_->nextInterarrival();
            arrivalsPrimed_ = true;
        }
        const Cycles arrival = nextArrival_;
        nextArrival_ = arrival + arrivals_->nextInterarrival();
        start = std::max({arrival, lastRequestEnd_, first_start});
        queueDelaySum_ += static_cast<double>(start - arrival);
        ++arrivalCount_;
    }
    Execution exec = triggerRequest(start);
    lastRequestEnd_ = exec.requestEnd;
    if (!arrivals_) {
        // Small think time between requests.
        start = exec.requestEnd +
                static_cast<Cycles>(rng_.nextExponential(
                    static_cast<double>(kVictimIterationCycles) * 20.0));
    }
    return exec;
}

unsigned
Victim::serveRequests(Cycles first_start, unsigned count,
                      std::vector<Execution> *truths)
{
    Cycles start = first_start;
    unsigned served = 0;
    for (; served < count; ++served) {
        std::optional<Execution> exec = serveNext(first_start, start);
        if (!exec)
            break;
        if (truths)
            truths->push_back(std::move(*exec));
    }
    return served;
}

std::optional<Victim::Execution>
Victim::serveRequest(Cycles start)
{
    return serveNext(start, start);
}

// ------------------------------------------------- EcdsaLadderVictim

static_assert(kVictimDecoyLines > 0,
              "the ECDSA victim derives its decoys from the first");

EcdsaLadderVictim::EcdsaLadderVictim(Machine &machine,
                                     const VictimConfig &cfg)
    : Victim(machine, cfg, 0x71c7),
      secretRng_(mix64(cfg.seed ^ 0xec2a)),
      d_(drawScalar(secretRng_))
{
    // The victim "library" is mapped once at container start and keeps
    // its VA-PA mapping for the container's lifetime (Section 7.1).
    const Addr code_base = space_->mmapAnon(4 * kPageBytes);
    targetPa_ = space_->translate(
        code_base + (static_cast<Addr>(cfg_.targetLineIndex)
                     << kLineBits));
    // Decoy lines: MAdd/MDouble bodies on neighbouring lines/pages.
    for (unsigned i = 0; i < kVictimDecoyLines; ++i) {
        const Addr va = code_base + ((i + 1) % 4) * kPageBytes +
            (((cfg_.targetLineIndex + 7 * (i + 1)) % kLinesPerPage)
             << kLineBits);
        decoyPas_.push_back(space_->translate(va));
    }
}

std::size_t
EcdsaLadderVictim::expectedIterations() const
{
    return 570;
}

void
EcdsaLadderVictim::rotateKey()
{
    d_ = drawScalar(secretRng_);
}

std::size_t
EcdsaLadderVictim::beginRequest(Execution &exec, Fetches &fetches)
{
    // The nonce's bits below its top bit, most significant first:
    // the sequence the ladder's `if (bit)` branch walks.
    exec.nonce = drawScalar(secretRng_);
    const unsigned top = exec.nonce.bitLength() - 1;
    exec.bits.reserve(top);
    for (unsigned i = top; i-- > 0;)
        exec.bits.push_back(exec.nonce.bit(i) ? 1 : 0);

    // Sized exactly (a boundary fetch per iteration plus the closing
    // one, a midpoint fetch per 0 bit, two decoy fetches per
    // iteration): doubling growth would churn about 50 KB of heap per
    // request and fragment the heap of long campaigns.
    const std::size_t iters = exec.bits.size();
    const auto zeros = static_cast<std::size_t>(
        std::count(exec.bits.begin(), exec.bits.end(), 0));
    fetches.target.reserve(iters + zeros + 1);
    fetches.decoys[0].reserve(2 * iters);
    return iters;
}

void
EcdsaLadderVictim::iterate(std::size_t i, Cycles start, double dur,
                           Execution &exec, Fetches &fetches)
{
    // Boundary fetch of the target line (the `if (bit)` clock).
    fetches.target.push_back(start);
    // Midpoint fetch when the monitored branch direction (bit 0) is
    // taken.
    if (exec.bits[i] == 0)
        fetches.target.push_back(start + static_cast<Cycles>(dur / 2));
    // Decoy fetches: function bodies run every iteration.  Decoy d
    // is staggered by 137 * (d + 1) cycles so their phases differ;
    // endLoop() derives the others from the first.
    fetches.decoys[0].push_back(start + static_cast<Cycles>(dur * 0.25) +
                                137);
    fetches.decoys[0].push_back(start + static_cast<Cycles>(dur * 0.75) +
                                137);
}

void
EcdsaLadderVictim::endLoop(Cycles ladder_end, Fetches &fetches)
{
    // Closing boundary fetch: the loop-header line is touched once
    // more when the ladder exits, matching the ground truth
    // (iterationStarts includes ladderEnd).  Without it the final
    // iteration has no closing boundary and its bit is unrecoverable
    // by construction.
    fetches.target.push_back(ladder_end);
    for (std::size_t d = 1; d < fetches.decoys.size(); ++d) {
        fetches.decoys[d] = fetches.decoys[0];
        for (auto &time : fetches.decoys[d])
            time += static_cast<Cycles>(137 * d);
    }
}

std::unique_ptr<Victim>
makeVictim(Machine &machine, const VictimConfig &cfg)
{
    switch (cfg.family) {
    case VictimFamily::EcdsaLadder:
        return std::make_unique<EcdsaLadderVictim>(machine, cfg);
    case VictimFamily::AesTable:
        return std::make_unique<AesTableVictim>(machine, cfg);
    }
    fatal("unknown victim family");
}

} // namespace llcf

#include "victim.hh"

#include <algorithm>
#include <string>

#include "common/log.hh"
#include "victim/aes_victim.hh"

namespace llcf {

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

Victim::Victim(Machine &machine, const VictimConfig &cfg)
    : machine_(machine),
      cfg_(cfg),
      space_(machine.newAddressSpace())
{
    if (cfg_.core >= machine.config().cores)
        fatal("victim core %u out of range", cfg_.core);
    if (cfg_.targetLineIndex >= kLinesPerPage)
        fatal("target line index %u out of range", cfg_.targetLineIndex);
    // dutyCycle divides expectedRequestCycles and the think-time
    // model; anything outside (0, 1] (or NaN) poisons every derived
    // duration, so reject it here instead of emitting nonsense.
    if (!(cfg_.dutyCycle > 0.0) || cfg_.dutyCycle > 1.0) {
        // detlint: allow(float-format) -- fatal diagnostic only
        fatal("victim dutyCycle %.3f outside (0, 1]", cfg_.dutyCycle);
    }
    if (cfg_.iterationCycles == 0)
        fatal("victim iterationCycles must be positive");
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
                          static_cast<double>(cfg_.iterationCycles);
    return static_cast<Cycles>(ladder / cfg_.dutyCycle);
}

Victim::Execution
Victim::triggerRequest(Cycles request_start)
{
    if (cfg_.rotateKeys > 0 && requestsThisEpoch_ == cfg_.rotateKeys) {
        rotateKey();
        ++keyEpoch_;
        requestsThisEpoch_ = 0;
    }
    Execution exec = generateExecution(request_start);
    exec.keyEpoch = keyEpoch_;
    ++requestCounter_;
    ++requestsThisEpoch_;
    return exec;
}

std::vector<Victim::Execution>
Victim::serveRequests(Cycles first_start, unsigned count)
{
    std::vector<Execution> out;
    out.reserve(count);
    Cycles start = first_start;
    for (unsigned i = 0; i < count; ++i) {
        if (remainingQuota() == 0)
            break;
        if (arrivals_) {
            // Open loop: the arrival clock runs independently of
            // service completions; early arrivals queue behind the
            // in-flight request.
            if (!arrivalsPrimed_) {
                nextArrival_ =
                    first_start + arrivals_->nextInterarrival();
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
            const Cycles gap = closedLoopGap();
            start = exec.requestEnd + gap;
        }
        out.push_back(std::move(exec));
    }
    return out;
}

// ------------------------------------------------- EcdsaLadderVictim

EcdsaLadderVictim::EcdsaLadderVictim(Machine &machine,
                                     const VictimConfig &cfg)
    : Victim(machine, cfg),
      ecdsa_(Rng(mix64(cfg.seed ^ 0xec2a))),
      rng_(mix64(cfg.seed ^ 0x71c7))
{
    key_ = ecdsa_.generateKey();

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

VictimFamily
EcdsaLadderVictim::family() const
{
    return VictimFamily::EcdsaLadder;
}

std::size_t
EcdsaLadderVictim::expectedIterations() const
{
    return 570;
}

double
EcdsaLadderVictim::expectedAccessFrequencyHz() const
{
    // One access per half iteration on average (boundary access every
    // iteration plus a midpoint access for about half the bits).
    const double half_iter = static_cast<double>(cfg_.iterationCycles)
                             / 2.0;
    return kCpuGhz * 1e9 / half_iter;
}

void
EcdsaLadderVictim::rotateKey()
{
    key_ = ecdsa_.generateKey();
}

Cycles
EcdsaLadderVictim::closedLoopGap()
{
    return static_cast<Cycles>(
        rng_.nextExponential(static_cast<double>(
            cfg_.iterationCycles) * 20.0));
}

Victim::Execution
EcdsaLadderVictim::generateExecution(Cycles request_start)
{
    Execution exec;
    exec.requestStart = request_start;

    // Real signing: real nonce, real ladder bit sequence.
    const std::string msg =
        "sign-request-" + std::to_string(requestCounter_);
    exec.record = ecdsa_.signWithTrace(sha256(msg), key_.d);
    exec.bits = exec.record.ladderBits;

    // Request timeline: pre-processing, ladder, post-processing.
    const std::size_t iters = exec.bits.size();
    const double ladder_time = static_cast<double>(iters) *
                               static_cast<double>(cfg_.iterationCycles);
    const double other_time =
        ladder_time * (1.0 - cfg_.dutyCycle) / cfg_.dutyCycle;
    const Cycles pre = static_cast<Cycles>(other_time * 0.4);
    exec.ladderStart = request_start + pre;

    // Iteration boundaries with jitter.
    exec.iterationStarts.reserve(iters + 1);
    std::vector<Cycles> target_times;
    std::vector<Cycles> decoy_times;
    double t = static_cast<double>(exec.ladderStart);
    for (std::size_t i = 0; i < iters; ++i) {
        const Cycles start = static_cast<Cycles>(t);
        exec.iterationStarts.push_back(start);
        double dur = static_cast<double>(cfg_.iterationCycles);
        if (cfg_.iterationJitter > 0.0) {
            dur *= std::max(0.5, 1.0 + cfg_.iterationJitter *
                                 rng_.nextGaussian());
        }
        // Boundary fetch of the target line (the `if (bit)` clock).
        target_times.push_back(start);
        // Midpoint fetch when the monitored branch direction is taken.
        const bool midpoint =
            cfg_.midpointOnZero ? exec.bits[i] == 0 : exec.bits[i] == 1;
        if (midpoint)
            target_times.push_back(start + static_cast<Cycles>(dur / 2));
        // Decoy fetches: function bodies run every iteration.
        decoy_times.push_back(start + static_cast<Cycles>(dur * 0.25));
        decoy_times.push_back(start + static_cast<Cycles>(dur * 0.75));
        t += dur;
    }
    exec.ladderEnd = static_cast<Cycles>(t);
    exec.iterationStarts.push_back(exec.ladderEnd);
    // Closing boundary fetch: the loop-header line is touched once
    // more when the ladder exits, matching the ground truth above
    // (iterationStarts includes ladderEnd).  Without it the final
    // iteration has no closing boundary and its bit is unrecoverable
    // by construction.
    target_times.push_back(exec.ladderEnd);
    exec.requestEnd = exec.ladderEnd +
        static_cast<Cycles>(other_time * 0.6);
    exec.targetAccesses = target_times;

    // Register the access streams with the machine.
    machine_.addStream(cfg_.core, targetPa_, std::move(target_times));
    for (std::size_t d = 0; d < decoyPas_.size(); ++d) {
        // Stagger decoys so their phases differ.
        std::vector<Cycles> times = decoy_times;
        for (auto &time : times)
            time += static_cast<Cycles>(137 * (d + 1));
        machine_.addStream(cfg_.core, decoyPas_[d], std::move(times));
    }
    return exec;
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

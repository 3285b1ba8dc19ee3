/**
 * @file
 * Open-loop offered-load generation: arrival processes and pinned
 * co-tenant access streams.
 *
 * The paper's production-cloud claim is that the pipeline survives
 * real tenant traffic, not the scheduled idle gaps of a closed-loop
 * victim.  This layer supplies that traffic deterministically: an
 * ArrivalProcess turns a positional RNG stream into Poisson or
 * bursty (on/off) inter-arrival gaps, victims consume one process
 * for open-loop request timing, and CoTenantLoad replays the same
 * arrival shape as pinned Machine streams so attacker probes contend
 * with offered load for the whole trial, across the attack layer's
 * clearStreams() calls.
 */

#ifndef LLCF_TRAFFIC_TRAFFIC_HH
#define LLCF_TRAFFIC_TRAFFIC_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.hh"
#include "common/types.hh"

namespace llcf {

class Machine;
class AddressSpace;

/** Shape of an open-loop arrival process. */
enum class ArrivalKind {
    None,    //!< closed loop: think-time gaps scheduled by the server
    Poisson, //!< memoryless arrivals at a fixed mean rate
    Bursty,  //!< on/off bursts; the long-run mean rate is preserved
};

/**
 * Declarative description of an arrival process.  `ratePerSec` is the
 * long-run mean arrival rate for both kinds; a bursty process
 * concentrates the same offered load into ON windows (arriving at
 * `ratePerSec / onFraction` inside a burst) separated by silent OFF
 * periods.
 */
struct ArrivalSpec
{
    ArrivalKind kind = ArrivalKind::None;
    double ratePerSec = 0.0;  //!< long-run mean arrivals per second
    double onFraction = 0.4;  //!< bursty: fraction of time inside bursts
    double meanBurstMs = 0.2; //!< bursty: mean ON-window length

    /** True when the spec describes an open-loop process. */
    bool active() const { return kind != ArrivalKind::None; }

    /** fatal() on non-positive rates or degenerate burst geometry. */
    void check() const;
};

/**
 * Deterministic arrival-gap generator over one positional RNG stream.
 * Identical (spec, seed) pairs yield identical gap sequences on any
 * thread count — the generator owns all of its state.
 */
class ArrivalProcess
{
  public:
    /** Validates @p spec (fatal on nonsense) and seeds the stream. */
    ArrivalProcess(const ArrivalSpec &spec, std::uint64_t seed);

    /** Cycles until the next arrival (always >= 1). */
    Cycles nextInterarrival();

    /** The validated spec this process draws from. */
    const ArrivalSpec &spec() const { return spec_; }

  private:
    ArrivalSpec spec_;
    Rng rng_;
    double gapMean_ = 0.0; //!< mean in-service gap, cycles
    double onMean_ = 0.0;  //!< bursty: mean ON-window length, cycles
    double offMean_ = 0.0; //!< bursty: mean OFF-window length, cycles
    double onLeft_ = 0.0;  //!< bursty: cycles left in the current burst
};

/** Co-tenant offered-load configuration (see CoTenantLoad). */
struct CoTenantLoadConfig
{
    unsigned tenants = 0;           //!< emulated co-tenant services
    ArrivalSpec arrival;            //!< per-tenant offered load shape
    std::uint64_t seed = 0;         //!< master seed; tenant t draws
                                    //!< from positional stream t
};

/**
 * Pre-schedules co-tenant cache traffic over a horizon as *pinned*
 * Machine streams: the attack layer's clearStreams() calls between
 * pipeline steps drop victim streams but keep these, so scan and
 * monitor probes contend with the offered load end to end.
 */
class CoTenantLoad
{
  public:
    /**
     * Maps one page per tenant, draws each tenant's arrivals from
     * `streamSeed(cfg.seed, tenant)`, and registers the resulting
     * access times as pinned streams spanning
     * [@p start, @p start + @p horizon).
     */
    CoTenantLoad(Machine &machine, const CoTenantLoadConfig &cfg,
                 Cycles start, Cycles horizon);
    ~CoTenantLoad();

    CoTenantLoad(const CoTenantLoad &) = delete;
    CoTenantLoad &operator=(const CoTenantLoad &) = delete;

    /** Total line accesses scheduled across all tenants. */
    std::uint64_t scheduledAccesses() const { return accesses_; }

    /** The hot-line physical addresses the tenants stream against.
     *  Streams apply lazily when a set is next synchronised, so
     *  accounting (and tests) touch these to flush pending load. */
    const std::vector<Addr> &linePas() const { return pas_; }

  private:
    std::unique_ptr<AddressSpace> space_;
    std::uint64_t accesses_ = 0;
    std::vector<Addr> pas_;
};

} // namespace llcf

#endif // LLCF_TRAFFIC_TRAFFIC_HH

/**
 * @file
 * Arrival-process generation and pinned co-tenant load scheduling.
 */

#include "traffic/traffic.hh"

#include <algorithm>
#include <utility>

#include "common/log.hh"
#include "mem/address_space.hh"
#include "sim/machine.hh"

namespace llcf {

void
ArrivalSpec::check() const
{
    if (!active())
        return;
    if (!(ratePerSec > 0.0)) {
        // detlint: allow(float-format) -- fatal diagnostic only
        fatal("arrival rate %.3f must be positive", ratePerSec);
    }
    if (kind == ArrivalKind::Bursty) {
        if (!(onFraction > 0.0) || onFraction > 1.0) {
            // detlint: allow(float-format) -- fatal diagnostic only
            fatal("arrival onFraction %.3f outside (0, 1]",
                  onFraction);
        }
        if (!(meanBurstMs > 0.0)) {
            // detlint: allow(float-format) -- fatal diagnostic only
            fatal("arrival meanBurstMs %.3f must be positive",
                  meanBurstMs);
        }
    }
}

ArrivalProcess::ArrivalProcess(const ArrivalSpec &spec, std::uint64_t seed)
    : spec_(spec), rng_(mix64(seed))
{
    if (!spec_.active())
        fatal("arrival process needs an active spec");
    spec_.check();
    const double mean_cycles = kCpuGhz * 1e9 / spec_.ratePerSec;
    if (spec_.kind == ArrivalKind::Poisson) {
        gapMean_ = mean_cycles;
        return;
    }
    // Bursty: the same long-run rate, concentrated into ON windows.
    gapMean_ = spec_.onFraction * mean_cycles;
    onMean_ = static_cast<double>(msToCycles(spec_.meanBurstMs));
    offMean_ = onMean_ * (1.0 - spec_.onFraction) / spec_.onFraction;
    onLeft_ = rng_.nextExponential(onMean_);
}

Cycles
ArrivalProcess::nextInterarrival()
{
    if (spec_.kind == ArrivalKind::Poisson) {
        const double gap = rng_.nextExponential(gapMean_);
        return std::max<Cycles>(1, static_cast<Cycles>(gap));
    }
    // Bursty on/off: candidate in-burst gaps are exponential; a gap
    // that overruns the current ON window burns the remainder, sits
    // out one OFF window, and redraws (valid by memorylessness).
    double total = 0.0;
    for (;;) {
        const double gap = rng_.nextExponential(gapMean_);
        if (gap <= onLeft_) {
            onLeft_ -= gap;
            total += gap;
            break;
        }
        total += onLeft_;
        if (offMean_ > 0.0)
            total += rng_.nextExponential(offMean_);
        onLeft_ = rng_.nextExponential(onMean_);
    }
    return std::max<Cycles>(1, static_cast<Cycles>(total));
}

constexpr unsigned kCoTenantCore = 3; //!< core the co-tenants run on
constexpr unsigned kCoTenantLinesPerTenant = 4; //!< distinct hot lines
constexpr unsigned kCoTenantAccessesPerArrival = 6; //!< touches/request
static_assert(kCoTenantLinesPerTenant >= 1 &&
                  kCoTenantLinesPerTenant <= kLinesPerPage,
              "co-tenant hot lines must fit one page");
static_assert(kCoTenantAccessesPerArrival > 0,
              "co-tenant requests must touch their lines");

CoTenantLoad::CoTenantLoad(Machine &machine, const CoTenantLoadConfig &cfg,
                           Cycles start, Cycles horizon)
    : space_(machine.newAddressSpace())
{
    if (cfg.tenants == 0)
        fatal("co-tenant load needs at least one tenant");
    // Small hosts have fewer cores than the default placement; the
    // load is shared-cache pressure, so any core off the victim's
    // works — take the last one the machine actually has.
    const unsigned core =
        std::min(kCoTenantCore, machine.config().cores - 1);

    for (unsigned t = 0; t < cfg.tenants; ++t) {
        // Positional sub-streams: arrivals and layout each get their
        // own child so adding tenants never perturbs earlier ones.
        const std::uint64_t tseed = streamSeed(cfg.seed, t);
        ArrivalProcess arrivals(cfg.arrival, streamSeed(tseed, 0));
        Rng layout = Rng::forStream(tseed, 1);

        const Addr page = space_->mmapAnon(kPageBytes);
        // One draw picks the base line; a stride coprime to the page
        // spreads the tenant's hot lines across distinct sets.
        const unsigned base =
            static_cast<unsigned>(layout.nextBelow(kLinesPerPage));
        std::vector<std::vector<Cycles>> times(kCoTenantLinesPerTenant);

        Cycles now = start;
        const Cycles end = start + horizon;
        std::uint64_t arrival_index = 0;
        for (;;) {
            now += arrivals.nextInterarrival();
            if (now >= end)
                break;
            for (unsigned k = 0; k < kCoTenantAccessesPerArrival; ++k) {
                const unsigned slot =
                    static_cast<unsigned>((arrival_index + k) %
                                          kCoTenantLinesPerTenant);
                times[slot].push_back(now + 37 * k);
            }
            ++arrival_index;
        }

        for (unsigned j = 0; j < kCoTenantLinesPerTenant; ++j) {
            if (times[j].empty())
                continue;
            const unsigned line = (base + 17 * j) % kLinesPerPage;
            const Addr pa = space_->translate(
                page + (static_cast<Addr>(line) << kLineBits));
            accesses_ += times[j].size();
            pas_.push_back(pa);
            machine.addStream(core, pa, std::move(times[j]),
                              /*is_store=*/false, /*pinned=*/true);
        }
    }
}

CoTenantLoad::~CoTenantLoad() = default;

} // namespace llcf

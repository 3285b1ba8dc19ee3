/**
 * @file
 * Prime+Probe monitors over one SF set (paper Section 6.1).
 *
 *  - Parallel: the paper's Parallel Probing — prime by traversing the
 *    eviction set 12 times with overlapped stores, probe all W lines
 *    with one overlapped load burst.  No replacement-state
 *    preparation needed, so priming is fast.
 *  - PsFlush: Prime+Scope "flush" strategy — load, clflush and
 *    sequentially reload the eviction set so its first line is the
 *    eviction candidate (EVC); probe only the EVC.
 *  - PsAlt: Prime+Scope "alternating" strategy — two eviction sets
 *    primed alternately with dependent loads; probe the active set's
 *    EVC.
 *
 * Monitors expose a trace-collection loop producing detection
 * timestamps (the input to the PSD pipeline and the nonce extractor).
 * The loop logs prime/probe latencies only into a sink its caller
 * passes; the covert-channel experiment (Table 5) is the only caller
 * that reads them.
 *
 * On a silent machine most Parallel probes repeat the previous one
 * exactly (private-cache hits, nothing replayed, not detected), and
 * so do most of its prime passes.  The monitor asks the machine to
 * fast-forward those (Machine::skipRepeats) instead of simulating
 * each; the trace, clock and every counter come out as if they ran.
 */

#ifndef LLCF_ATTACK_MONITOR_HH
#define LLCF_ATTACK_MONITOR_HH

#include <memory>
#include <vector>

#include "common/stats.hh"
#include "evset/session.hh"

namespace llcf {

/** Monitoring strategies evaluated in the paper. */
enum class MonitorKind { Parallel, PsFlush, PsAlt };

/** Human-readable strategy name (paper nomenclature). */
const char *monitorKindName(MonitorKind kind);

/** Prime and probe latencies of one trace, interrupt outliers
    (> 20k cycles) excluded (Table 5). */
struct MonitorLatencies
{
    SampleStats prime;
    SampleStats probe;
};

/**
 * Base class: the prime/probe state machine.
 */
class PrimeProbeMonitor
{
  public:
    /** Outcome of one probe. */
    struct ProbeResult
    {
        bool detected = false;
        Cycles duration = 0;
    };

    virtual ~PrimeProbeMonitor() = default;

    virtual MonitorKind kind() const = 0;

    /** Prepare the monitored set; returns the prime duration. */
    virtual Cycles prime() = 0;

    /** One probe. */
    virtual ProbeResult probe() = 0;

    /**
     * Monitor until @p deadline (absolute): prime once, then probe
     * continuously, re-priming after each detection.  When
     * @p latencies is non-null, every prime and probe duration is
     * logged into it (a fast-forwarded probe logs the duration of the
     * probe it repeats).
     * @return detection timestamps (probe completion times).
     */
    std::vector<Cycles> collectTrace(Cycles deadline,
                                     MonitorLatencies *latencies = nullptr);

    /**
     * Build a monitor.  @p evset must be a minimal SF eviction set;
     * @p alt_evset is required by PsAlt (a second eviction set for
     * the same SF set) and ignored otherwise.
     */
    static std::unique_ptr<PrimeProbeMonitor> make(
        MonitorKind kind, AttackSession &session,
        std::vector<Addr> evset, std::vector<Addr> alt_evset = {});

  protected:
    explicit PrimeProbeMonitor(AttackSession &session)
        : session_(session)
    {
    }

    /**
     * Fast-forward the probes, all starting before @p deadline, that
     * provably repeat the undetected probe that just ran; returns how
     * many were skipped.  None by default.
     */
    virtual std::uint64_t skipRepeatedProbes(Cycles) { return 0; }

    AttackSession &session_;
};

/** The paper's Parallel Probing monitor. */
class ParallelMonitor : public PrimeProbeMonitor
{
  public:
    ParallelMonitor(AttackSession &session, std::vector<Addr> evset);

    MonitorKind kind() const override { return MonitorKind::Parallel; }
    Cycles prime() override;
    ProbeResult probe() override;

  protected:
    std::uint64_t skipRepeatedProbes(Cycles deadline) override;

  private:
    std::vector<Addr> evset_;
    double threshold_ = 0.0; //!< calibrated probe-duration threshold
};

/** Prime+Scope with the flush-based prime pattern. */
class PsFlushMonitor : public PrimeProbeMonitor
{
  public:
    PsFlushMonitor(AttackSession &session, std::vector<Addr> evset);

    MonitorKind kind() const override { return MonitorKind::PsFlush; }
    Cycles prime() override;
    ProbeResult probe() override;

  private:
    std::vector<Addr> evset_;
};

/** Prime+Scope with the alternating two-set prime pattern. */
class PsAltMonitor : public PrimeProbeMonitor
{
  public:
    PsAltMonitor(AttackSession &session, std::vector<Addr> evset,
                 std::vector<Addr> alt_evset);

    MonitorKind kind() const override { return MonitorKind::PsAlt; }
    Cycles prime() override;
    ProbeResult probe() override;

  private:
    std::vector<Addr> sets_[2];
    unsigned active_ = 0;
};

} // namespace llcf

#endif // LLCF_ATTACK_MONITOR_HH

/**
 * @file
 * Host timing and in-memory span tracing for the repository benchmark.
 *
 * hostNs() is the benchmark's single host-clock read; everything the
 * benchmark times goes through it.  A Tracer records spans (name,
 * start, end, parent, op id) and per-op counts in memory; the caller
 * writes them out when the run ends.  A null Tracer* disables
 * tracing: ScopedSpan then costs one branch.
 */

#ifndef LLCF_PERFBENCH_TRACE_HH
#define LLCF_PERFBENCH_TRACE_HH

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace llcf::perfbench {

/** Host monotonic time in nanoseconds. */
inline std::uint64_t
hostNs()
{
    // detlint: allow(wallclock) -- benchmark host timing; never simulated state
    const auto t = std::chrono::steady_clock::now().time_since_epoch();
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t).count());
}

/** One closed span of host time. */
struct Span
{
    const char *name = "";
    std::uint64_t startNs = 0;
    std::uint64_t endNs = 0;
    int parent = -1;       //!< index of the enclosing span, or -1
    std::int64_t op = -1;  //!< op id; negative ids mark set-up work
};

/** One count attributed to an op (e.g. TestEvictions in a build). */
struct Count
{
    const char *name = "";
    double value = 0.0;
    std::int64_t op = -1;
};

/** In-memory span and count recorder for one traced run. */
class Tracer
{
  public:
    /** Attribute subsequent spans and counts to op @p op. */
    void setOp(std::int64_t op) { op_ = op; }

    /** Open a span; returns its index for close(). */
    int
    open(const char *name)
    {
        const int parent = stack_.empty() ? -1 : stack_.back();
        spans_.push_back({name, hostNs(), 0, parent, op_});
        stack_.push_back(static_cast<int>(spans_.size() - 1));
        return stack_.back();
    }

    /** Close the innermost span (which must be @p index). */
    void
    close(int index)
    {
        spans_[static_cast<std::size_t>(index)].endNs = hostNs();
        stack_.pop_back();
    }

    /** Record a count for the current op. */
    void
    count(const char *name, double value)
    {
        counts_.push_back({name, value, op_});
    }

    const std::vector<Span> &spans() const { return spans_; }
    const std::vector<Count> &counts() const { return counts_; }

  private:
    std::vector<Span> spans_;
    std::vector<Count> counts_;
    std::vector<int> stack_;
    std::int64_t op_ = -1;
};

/** RAII span; a null tracer records nothing. */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer *tracer, const char *name)
        : tracer_(tracer), index_(tracer ? tracer->open(name) : -1)
    {
    }

    ~ScopedSpan()
    {
        if (tracer_)
            tracer_->close(index_);
    }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    Tracer *tracer_;
    int index_;
};

/** Record a count when tracing is on. */
inline void
traceCount(Tracer *tracer, const char *name, double value)
{
    if (tracer)
        tracer->count(name, value);
}

} // namespace llcf::perfbench

#endif // LLCF_PERFBENCH_TRACE_HH

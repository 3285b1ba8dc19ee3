/**
 * @file
 * The repository benchmark's measuring binary.
 *
 *   llcf_perfbench --workload <fork-fleet|evset-cloud|blind-attack>
 *                  --seed <n> --seconds <s> --trace <0|1>
 *                  --out <result.json> [--spans-out <spans.json>]
 *
 * --trace 0 times the workload's ops with tracing off and reports the
 * end-to-end metrics (see workloads.hh for what an op runs).  --trace 1 runs every op twice (untraced and traced,
 * alternating which goes first), checks that both give the same
 * simulated result and that the traced ops reproduce the library's
 * runner, and reports the per-layer metrics, the tracing overhead and
 * the layer microbenchmarks.  perfbench/run.py
 * builds this binary and turns its result file into the benchmark's
 * output line; perfbench/README.md documents the metrics.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <map>
#include <string>
#include <vector>

#include "common/log.hh"
#include "harness/json.hh"
#include "micro.hh"
#include "trace.hh"
#include "workloads.hh"

namespace llcf::perfbench {
namespace {

struct Options
{
    Workload workload = Workload::EvsetCloud;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    bool trace = false;
    std::string out;
    std::string spansOut;
};

/** One reported metric. */
struct Metric
{
    std::string name;
    std::string unit;
    double value = 0.0;
};

struct RunResult
{
    bool correct = true;
    std::string error;
    std::size_t attempted = 0;
    std::size_t failed = 0;
    std::vector<Metric> metrics;
    std::vector<Metric> diagnostics;
    std::vector<std::pair<std::size_t, double>> ops; //!< (trial, host ms)
};

/** Quantile @p q of @p v, interpolating linearly between ranks. */
double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double rank = q * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (rank - static_cast<double>(lo));
}

double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

double
msSince(std::uint64_t t0)
{
    return static_cast<double>(hostNs() - t0) / 1e6;
}

/** This process image's peak resident memory (VmHWM).  getrusage's
 *  ru_maxrss is not used: Linux carries the parent's peak into it
 *  across fork and exec, so it would report run.py's own memory. */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    fatal("perfbench: no VmHWM in /proc/self/status");
}

/** The deterministic end-to-end metrics of the pool's records. */
void
addPoolMetrics(const WorkloadRunner &runner, const CampaignAggregate &pool,
               RunResult &r)
{
    const SuccessRate *ok = pool.outcome(runner.primaryOutcome());
    const StreamingStats *sim = pool.metric(runner.simCyclesMetric());
    r.metrics.push_back({"success_rate", "ratio",
                         ok ? static_cast<double>(ok->successes()) /
                                  static_cast<double>(pool.trials())
                            : 0.0});
    r.metrics.push_back({"sim_ms_p50", "sim_ms",
                         sim ? sim->median() / (kCpuGhz * 1e6) : 0.0});
}

/** An op produced a well-formed record: exactly one primary outcome. */
bool
wellFormed(const WorkloadRunner &runner, const TrialRecorder &rec)
{
    return recordedOutcome(rec, runner.primaryOutcome()).size() == 1;
}

/**
 * Host seconds of each of @p count set-ups.  Fork path: one-victim
 * library campaigns (the warm-up, Steps 0-2 and the snapshot, plus
 * one forked victim), each of which must reproduce the first; the
 * composed world the ops fork from is built afterwards, untimed.
 * Rebuild paths: runner.setup(), one warm-up op each.
 */
std::vector<double>
timeSetups(WorkloadRunner &runner, int count, RunResult &r)
{
    std::vector<double> setupS;
    CampaignAggregate first;
    for (int i = 0; i < count; ++i) {
        const std::uint64_t t0 = hostNs();
        if (!runner.forkPath()) {
            runner.setup(nullptr);
            setupS.push_back(msSince(t0) / 1e3);
            continue;
        }
        CampaignAggregate one = runner.runCampaign(1);
        setupS.push_back(msSince(t0) / 1e3);
        std::string why;
        if (i == 0) {
            first = std::move(one);
        } else if (!sameCampaign(first, one, &why)) {
            r.correct = false;
            r.error = "a repeated one-victim campaign gave another "
                      "result: " + why;
            return setupS;
        }
    }
    if (runner.forkPath())
        runner.setup(nullptr);
    return setupS;
}

void
runUntraced(const Options &opt, RunResult &r)
{
    WorkloadRunner runner(opt.workload);

    // Set-up is repeated and reported as a median; set-ups that take
    // seconds repeat fewer times.
    const std::vector<double> setupS = timeSetups(
        runner, opt.workload == Workload::EvsetCloud ? 15 : 5, r);
    if (!r.correct)
        return;

    // Cycle through the input pool until the time is up and every
    // trial ran once; each repeat must reproduce the trial's first
    // record exactly.
    const std::size_t k = runner.poolSize();
    std::vector<TrialRecorder> pool(k);
    std::vector<bool> seen(k, false);
    std::vector<double> opMs;
    const std::uint64_t loop0 = hostNs();
    for (std::size_t i = 0; i < k || msSince(loop0) < opt.seconds * 1e3;
         ++i) {
        const std::size_t t = opTrial(k, opt.seed, i);
        TrialContext ctx = makeContext(t);
        TrialRecorder rec;
        const std::uint64_t t0 = hostNs();
        runner.runUntraced(ctx, rec);
        opMs.push_back(msSince(t0));
        r.ops.emplace_back(t, opMs.back());
        r.failed += !wellFormed(runner, rec);
        std::string why;
        if (!seen[t]) {
            pool[t] = std::move(rec);
            seen[t] = true;
        } else if (!sameSimulatedResult(pool[t], rec, &why)) {
            r.correct = false;
            r.error = "a repeat of trial " + std::to_string(t) +
                      " gave another result: " + why;
            return;
        }
    }
    r.attempted = opMs.size();
    // Read before the cross-check below, whose runner allocates too.
    const double peakMb = peakRssMb();

    // Correctness: the op loop must reproduce the library's own
    // runner on the pool's trials.
    CampaignAggregate folded;
    for (const TrialRecorder &rec : pool)
        folded.fold(rec);
    std::string why;
    const std::uint64_t check0 = hostNs();
    if (!runner.crossCheck(folded, &why)) {
        r.correct = false;
        r.error = "op loop disagrees with the library runner: " + why;
        return;
    }
    const double checkS = msSince(check0) / 1e3;

    // The gated op time is the 95th percentile: on a shared VM the
    // noise is mostly sporadic speed-ups of some ops, which move the
    // median and the throughput from run to run but leave the slow
    // tail steady.  The median and throughput are kept as diagnostics.
    double totalMs = 0.0;
    for (double ms : opMs)
        totalMs += ms;
    r.metrics.push_back({"setup_s", "s", median(setupS)});
    r.metrics.push_back({"peak_rss_mb", "MB", peakMb});
    r.metrics.push_back({"op_ms_p95", "ms", quantile(opMs, 0.95)});
    addPoolMetrics(runner, folded, r);
    r.diagnostics.push_back({"op_ms_p50", "ms", median(opMs)});
    r.diagnostics.push_back({"ops_per_s", "1/s",
                             1e3 * static_cast<double>(opMs.size()) /
                                 totalMs});
    r.diagnostics.push_back({"pool_trials", "count", static_cast<double>(k)});
    r.diagnostics.push_back({"library_pool_s", "s", checkS});
}

/** Per-op aggregation of one tracer's spans and counts. */
class LayerView
{
  public:
    explicit LayerView(const Tracer &t)
    {
        for (const Span &s : t.spans())
            spanMs_[s.name][s.op] +=
                static_cast<double>(s.endNs - s.startNs) / 1e6;
        for (const Count &c : t.counts())
            counts_[c.name][c.op] += c.value;
    }

    bool
    has(const std::string &name) const
    {
        return spanMs_.count(name) || counts_.count(name);
    }

    /** Median over ops of the per-op total of span @p name (ms). */
    double spanMedian(const std::string &name) const
    {
        return medianOf(spanMs_, name);
    }

    /** Median over ops of the per-op total of count @p name. */
    double countMedian(const std::string &name) const
    {
        return medianOf(counts_, name);
    }

    double
    countTotal(const std::string &name) const
    {
        double sum = 0.0;
        if (auto it = counts_.find(name); it != counts_.end())
            for (const auto &[op, v] : it->second)
                sum += v;
        return sum;
    }

    /** (op span ms, per-op total of count @p count) for every op
     *  that has both. */
    std::vector<std::pair<double, double>>
    opPairs(const std::string &count) const
    {
        std::vector<std::pair<double, double>> out;
        auto ops = spanMs_.find("op");
        auto cs = counts_.find(count);
        if (ops == spanMs_.end() || cs == counts_.end())
            return out;
        for (const auto &[op, ms] : ops->second)
            if (auto c = cs->second.find(op); c != cs->second.end())
                out.emplace_back(ms, c->second);
        return out;
    }

  private:
    using PerOp = std::map<std::string, std::map<std::int64_t, double>>;

    static double
    medianOf(const PerOp &m, const std::string &name)
    {
        std::vector<double> v;
        if (auto it = m.find(name); it != m.end())
            for (const auto &[op, x] : it->second)
                v.push_back(x);
        return median(v);
    }

    PerOp spanMs_;
    PerOp counts_;
};

/** Write every span: the workload's own, then each sweep's. */
void
writeSpans(const std::string &path, const Tracer &own,
           const std::vector<Tracer> &sweeps)
{
    std::vector<std::pair<std::string, const Tracer *>> sources{
        {"workload", &own}};
    for (std::size_t k = 0; k < sweeps.size(); ++k)
        sources.emplace_back(std::string("sweep:") + workloadName(kWorkloads[k]),
                             &sweeps[k]);
    JsonWriter w;
    w.beginObject();
    for (const auto &[label, t] : sources) {
        if (t->spans().empty())
            continue;
        w.key(label).beginArray();
        for (const Span &s : t->spans()) {
            w.beginObject();
            w.member("name", std::string_view(s.name));
            w.member("start_ns", static_cast<std::uint64_t>(s.startNs));
            w.member("end_ns", static_cast<std::uint64_t>(s.endNs));
            w.member("parent", static_cast<std::int64_t>(s.parent));
            w.member("op", static_cast<std::int64_t>(s.op));
            w.endObject();
        }
        w.endArray();
    }
    w.endObject();
    std::ofstream(path) << w.str() << "\n";
}

/**
 * Trace pool trial 0 of workload @p w (fork: its world too) into
 * @p rec, and check it against the library's runner on that trial.
 */
bool
sweepWorkload(Workload w, Tracer &tracer, TrialRecorder &rec,
              std::string *why)
{
    WorkloadRunner runner(w);
    if (runner.forkPath()) {
        tracer.setOp(-1);
        runner.setup(&tracer);
    }
    tracer.setOp(0);
    TrialContext ctx = makeContext(0);
    {
        ScopedSpan span(&tracer, "op");
        runner.runTraced(ctx, rec, tracer);
    }
    CampaignAggregate one;
    one.fold(rec);
    return runner.crossCheck(one, why);
}

void
runTraced(const Options &opt, RunResult &r)
{
    WorkloadRunner runner(opt.workload);
    Tracer own;
    if (runner.forkPath()) {
        own.setOp(-1);
        runner.setup(&own);
    }

    // Run each op untraced and traced, alternating which goes first,
    // until the time is up and every pool trial ran once.
    const std::size_t k = runner.poolSize();
    std::vector<TrialRecorder> pool(k);
    std::vector<bool> seen(k, false);
    std::vector<double> untracedMs, tracedMs, ownBits, sweepBits;
    const std::uint64_t loop0 = hostNs();
    for (std::size_t i = 0; i < k || msSince(loop0) < opt.seconds * 1e3;
         ++i) {
        const std::size_t trial = opTrial(k, opt.seed, i);
        TrialRecorder plain, traced;
        for (int half = 0; half < 2; ++half) {
            TrialContext ctx = makeContext(trial);
            const std::uint64_t t0 = hostNs();
            if ((half == 0) == (i % 2 == 0)) {
                runner.runUntraced(ctx, plain);
                untracedMs.push_back(msSince(t0));
            } else {
                own.setOp(static_cast<std::int64_t>(i));
                ScopedSpan span(&own, "op");
                runner.runTraced(ctx, traced, own);
                tracedMs.push_back(msSince(t0));
            }
        }
        r.failed += !wellFormed(runner, plain);
        for (double v : recordedMetric(traced, "recovered_fraction"))
            ownBits.push_back(v);
        std::string why;
        if (!sameSimulatedResult(plain, traced, &why)) {
            r.correct = false;
            r.error = "traced op " + std::to_string(trial) +
                      " disagrees with the untraced op: " + why;
            return;
        }
        if (!seen[trial]) {
            pool[trial] = std::move(traced);
            seen[trial] = true;
        }
    }
    r.attempted = untracedMs.size();

    // The traced pool must reproduce the library's own runner (on the
    // fork path the untraced op body is itself a composition).
    CampaignAggregate folded;
    for (const TrialRecorder &rec : pool)
        folded.fold(rec);
    std::string why;
    if (!runner.crossCheck(folded, &why)) {
        r.correct = false;
        r.error = "traced ops disagree with the library runner: " + why;
        return;
    }

    // A layer this workload does not exercise is measured on one
    // traced op (pool trial 0) of the first other workload that does.
    std::vector<Tracer> sweeps(std::size(kWorkloads));
    std::vector<LayerView> views;
    views.emplace_back(own);
    for (std::size_t w = 0; w < sweeps.size(); ++w) {
        if (kWorkloads[w] == opt.workload)
            continue;
        TrialRecorder rec;
        if (!sweepWorkload(kWorkloads[w], sweeps[w], rec, &why)) {
            r.correct = false;
            r.error = std::string("traced ") + workloadName(kWorkloads[w]) +
                      " op disagrees with the library runner: " + why;
            return;
        }
        if (sweepBits.empty())
            sweepBits = recordedMetric(rec, "recovered_fraction");
        views.emplace_back(sweeps[w]);
    }
    auto pick = [&](const std::string &name) -> const LayerView & {
        for (const LayerView &v : views)
            if (v.has(name))
                return v;
        return views.front();
    };
    for (const char *layer :
         {"scenario.rig", "calib.calibrate", "victim.make", "attack.train",
          "evset.build", "attack.scan", "sim.snapshot", "sim.restore",
          "attack.step3"}) {
        r.metrics.push_back({std::string(layer) + "_ms", "ms",
                             pick(layer).spanMedian(layer)});
    }
    for (const char *count :
         {"calib.test_evictions", "evset.test_evictions", "evset.attempts",
          "attack.sets_scanned", "sim.accesses"}) {
        r.metrics.push_back({count, "count", pick(count).countMedian(count)});
    }
    const LayerView &ev = pick("evset.successes");
    r.metrics.push_back({"evset.success_ratio", "ratio",
                         ev.countTotal("evset.successes") /
                             ev.countTotal("evset.attempts")});

    std::vector<double> nsPerAccess, cyclesPerSec;
    for (const auto &[ms, accesses] : pick("sim.accesses").opPairs("sim.accesses"))
        if (accesses > 0)
            nsPerAccess.push_back(ms * 1e6 / accesses);
    for (const auto &[ms, cycles] : pick("sim.cycles").opPairs("sim.cycles"))
        cyclesPerSec.push_back(cycles / (ms / 1e3));
    r.metrics.push_back({"sim.ns_per_access", "ns", median(nsPerAccess)});
    r.metrics.push_back({"sim.sim_cycles_per_host_s", "1/s",
                         median(cyclesPerSec)});
    r.metrics.push_back({"attack.bits_recovered_p50", "fraction",
                         median(ownBits.empty() ? sweepBits : ownBits)});
    // Each pair ran back to back on the same trial, so the per-pair
    // ratio cancels both the trial mix and slow host drift.
    std::vector<double> overhead;
    for (std::size_t i = 0; i < tracedMs.size(); ++i)
        overhead.push_back((tracedMs[i] / untracedMs[i] - 1.0) * 100.0);
    r.metrics.push_back({"trace.overhead_pct", "%", median(overhead)});

    for (const MicroResult &m : runMicrobenchmarks())
        r.metrics.push_back({m.name, m.unit, m.value});

    if (!opt.spansOut.empty())
        writeSpans(opt.spansOut, own, sweeps);
}

void
writeResult(const Options &opt, const RunResult &r)
{
    JsonWriter w;
    w.beginObject();
    w.member("workload", std::string_view(workloadName(opt.workload)));
    w.member("trace", opt.trace);
    w.member("correct", r.correct);
    w.member("error", r.error);
    w.member("attempted", static_cast<std::uint64_t>(r.attempted));
    w.member("failed", static_cast<std::uint64_t>(r.failed));
    for (const auto &[label, list] :
         {std::pair<const char *, const std::vector<Metric> *>{
              "metrics", &r.metrics},
          {"diagnostics", &r.diagnostics}}) {
        w.key(label).beginObject();
        for (const Metric &m : *list) {
            w.key(m.name).beginObject();
            w.member("value", m.value);
            w.member("unit", m.unit);
            w.endObject();
        }
        w.endObject();
    }
    w.key("ops").beginArray();
    for (const auto &[trial, ms] : r.ops) {
        w.beginArray();
        w.value(static_cast<std::uint64_t>(trial));
        w.value(ms);
        w.endArray();
    }
    w.endArray();
    w.endObject();
    std::ofstream f(opt.out);
    f << w.str() << "\n";
    if (!f)
        fatal("perfbench: cannot write %s", opt.out.c_str());
}

bool
parseArgs(int argc, char **argv, Options &opt)
{
    bool haveWorkload = false, haveSeconds = false;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const std::string val = argv[i + 1];
        char *end = nullptr;
        if (key == "--workload") {
            haveWorkload = parseWorkload(val, opt.workload);
        } else if (key == "--seed") {
            opt.seed = std::strtoull(val.c_str(), &end, 10);
        } else if (key == "--seconds") {
            opt.seconds = std::strtod(val.c_str(), &end);
            haveSeconds = opt.seconds > 0.0;
        } else if (key == "--trace") {
            opt.trace = val == "1";
        } else if (key == "--out") {
            opt.out = val;
        } else if (key == "--spans-out") {
            opt.spansOut = val;
        } else {
            return false;
        }
        if (end && *end)
            return false;
    }
    return argc % 2 == 1 && haveWorkload && haveSeconds && !opt.out.empty();
}

} // namespace
} // namespace llcf::perfbench

int
main(int argc, char **argv)
{
    using namespace llcf::perfbench;
    Options opt;
    if (!parseArgs(argc, argv, opt)) {
        std::fprintf(stderr,
                     "usage: llcf_perfbench --workload <name> --seed <n> "
                     "--seconds <s> --trace <0|1> --out <file> "
                     "[--spans-out <file>]\n");
        return 2;
    }
    RunResult r;
    const double probeBefore = hostSpeedProbeMs();
    if (opt.trace)
        runTraced(opt, r);
    else
        runUntraced(opt, r);
    r.diagnostics.push_back(
        {"host_probe_ms", "ms", std::min(probeBefore, hostSpeedProbeMs())});
    writeResult(opt, r);
    return r.correct ? 0 : 1;
}

#include "aggregate.hh"

#include <cmath>

namespace llcf {

void
TrialRecorder::metric(std::string_view name, double v)
{
    metrics_.emplace_back(std::string(name), v);
}

void
TrialRecorder::outcome(std::string_view name, bool success)
{
    outcomes_.emplace_back(std::string(name), success);
}

StreamingStats &
TrialAggregate::statsFor(const std::string &name)
{
    for (auto &[n, stats] : metrics_) {
        if (n == name)
            return stats;
    }
    metrics_.emplace_back(name, StreamingStats{});
    return metrics_.back().second;
}

SuccessRate &
TrialAggregate::rateFor(const std::string &name)
{
    for (auto &[n, sr] : outcomes_) {
        if (n == name)
            return sr;
    }
    outcomes_.emplace_back(name, SuccessRate{});
    return outcomes_.back().second;
}

void
TrialAggregate::fold(const TrialRecorder &rec)
{
    ++trials_;
    for (const auto &[name, v] : rec.metrics())
        statsFor(name).add(v);
    for (const auto &[name, ok] : rec.outcomes())
        rateFor(name).add(ok);
}

const StreamingStats *
TrialAggregate::metric(std::string_view name) const
{
    for (const auto &[n, stats] : metrics_) {
        if (n == name)
            return &stats;
    }
    return nullptr;
}

const SuccessRate *
TrialAggregate::outcome(std::string_view name) const
{
    for (const auto &[n, sr] : outcomes_) {
        if (n == name)
            return &sr;
    }
    return nullptr;
}

void
TrialAggregate::writeJsonMembers(JsonWriter &w, const std::string &name,
                                 std::uint64_t masterSeed) const
{
    w.member("name", name);
    w.member("trials", static_cast<std::uint64_t>(trials_));
    w.member("seed", masterSeed);
    w.key("metrics").beginObject();
    for (const auto &[n, stats] : metrics_) {
        w.key(n);
        writeStatsObject(w, stats);
    }
    w.endObject();
    w.key("outcomes").beginObject();
    for (const auto &[n, sr] : outcomes_) {
        w.key(n).beginObject();
        w.member("trials", static_cast<std::uint64_t>(sr.trials()));
        w.member("successes",
                 static_cast<std::uint64_t>(sr.successes()));
        w.member("rate", sr.rate());
        w.endObject();
    }
    w.endObject();
}

void
TrialAggregate::writeState(JsonWriter &w) const
{
    w.beginObject();
    w.member("trials", static_cast<std::uint64_t>(trials_));
    w.key("metrics").beginArray();
    for (const auto &[n, stats] : metrics_) {
        const StreamingStatsState s = stats.state();
        w.beginObject();
        w.member("name", n);
        w.member("count", s.count);
        w.member("sum", s.sum);
        w.member("sum_comp", s.sumComp);
        w.member("mean", s.mean);
        w.member("m2", s.m2);
        w.member("min", s.min);
        w.member("max", s.max);
        w.key("head").beginArray();
        for (double v : s.head)
            w.value(v);
        w.endArray();
        w.key("levels").beginArray();
        for (const auto &level : s.levels) {
            w.beginArray();
            for (double v : level)
                w.value(v);
            w.endArray();
        }
        w.endArray();
        w.key("parity").beginArray();
        for (std::uint8_t p : s.parity)
            w.value(static_cast<std::uint64_t>(p));
        w.endArray();
        w.endObject();
    }
    w.endArray();
    w.key("outcomes").beginArray();
    for (const auto &[n, sr] : outcomes_) {
        w.beginObject();
        w.member("name", n);
        w.member("trials", static_cast<std::uint64_t>(sr.trials()));
        w.member("successes",
                 static_cast<std::uint64_t>(sr.successes()));
        w.endObject();
    }
    w.endArray();
    w.endObject();
}

namespace {

bool
fail(std::string *error, std::string why)
{
    if (error)
        *error = std::move(why);
    return false;
}

/** A finite JSON number; false + message otherwise. */
bool
finiteNumber(const JsonValue &v, const std::string &what, double &out,
             std::string *error)
{
    if (!v.isNumber() || !std::isfinite(v.asNumber()))
        return fail(error, what + " is not a finite number");
    out = v.asNumber();
    return true;
}

/** A required finite numeric member. */
bool
numberField(const JsonValue &obj, const char *key, double &out,
            std::string *error)
{
    const JsonValue *v = obj.find(key);
    if (!v)
        return fail(error, std::string("field '") + key + "' is missing");
    return finiteNumber(*v, std::string("field '") + key + "'", out,
                        error);
}

/** A required array member of finite numbers. */
bool
numberArray(const JsonValue &v, const std::string &what,
            std::vector<double> &out, std::string *error)
{
    if (!v.isArray())
        return fail(error, what + " is not an array");
    for (const JsonValue &item : v.items()) {
        double x = 0.0;
        if (!finiteNumber(item, what + " item", x, error))
            return false;
        out.push_back(x);
    }
    return true;
}

/** An array member, or nullptr + message. */
const JsonValue *
arrayField(const JsonValue &obj, const char *key, std::string *error)
{
    const JsonValue *v = obj.find(key);
    if (!v || !v->isArray()) {
        fail(error, std::string("field '") + key +
                        "' is missing or not an array");
        return nullptr;
    }
    return v;
}

/** One metric's checkpointed StreamingStats. */
bool
metricState(const JsonValue &m, StreamingStatsState &s,
            std::string *error)
{
    const JsonValue *head = arrayField(m, "head", error);
    const JsonValue *levels = arrayField(m, "levels", error);
    const JsonValue *parity = arrayField(m, "parity", error);
    if (!head || !levels || !parity ||
        !jsonCountField(m, "count", s.count, error) ||
        !numberField(m, "sum", s.sum, error) ||
        !numberField(m, "sum_comp", s.sumComp, error) ||
        !numberField(m, "mean", s.mean, error) ||
        !numberField(m, "m2", s.m2, error) ||
        !numberField(m, "min", s.min, error) ||
        !numberField(m, "max", s.max, error) ||
        !numberArray(*head, "head", s.head, error))
        return false;
    for (const JsonValue &level : levels->items()) {
        s.levels.emplace_back();
        if (!numberArray(level, "sketch level", s.levels.back(), error))
            return false;
    }
    for (const JsonValue &p : parity->items()) {
        if (!p.isNumber() || (p.asNumber() != 0.0 && p.asNumber() != 1.0))
            return fail(error, "sketch parity is not 0 or 1");
        s.parity.push_back(static_cast<std::uint8_t>(p.asNumber()));
    }
    return StreamingStats::validState(s, error);
}

} // namespace

bool
TrialAggregate::fromState(const JsonValue &v, TrialAggregate &out,
                          std::string *error)
{
    out = TrialAggregate{};
    if (!v.isObject())
        return fail(error, "aggregate state is not an object");
    std::uint64_t trials = 0;
    if (!jsonCountField(v, "trials", trials, error))
        return false;
    out.trials_ = static_cast<std::size_t>(trials);

    const JsonValue *metrics = arrayField(v, "metrics", error);
    if (!metrics)
        return false;
    for (const JsonValue &m : metrics->items()) {
        if (!m.isObject())
            return fail(error, "metric state is not an object");
        const std::string *name = jsonStringField(m, "name", error);
        if (!name)
            return false;
        if (out.metric(*name))
            return fail(error, "duplicate metric '" + *name + "'");
        StreamingStatsState s;
        if (!metricState(m, s, error)) {
            if (error)
                *error = "metric '" + *name + "': " + *error;
            return false;
        }
        out.metrics_.emplace_back(*name, StreamingStats::fromState(s));
    }

    const JsonValue *outcomes = arrayField(v, "outcomes", error);
    if (!outcomes)
        return false;
    for (const JsonValue &o : outcomes->items()) {
        if (!o.isObject())
            return fail(error, "outcome state is not an object");
        const std::string *name = jsonStringField(o, "name", error);
        std::uint64_t trialCount = 0;
        std::uint64_t successes = 0;
        if (!name || !jsonCountField(o, "trials", trialCount, error) ||
            !jsonCountField(o, "successes", successes, error))
            return false;
        if (successes > trialCount)
            return fail(error, "outcome '" + *name +
                                   "' has more successes than trials");
        if (out.outcome(*name))
            return fail(error, "duplicate outcome '" + *name + "'");
        out.outcomes_.emplace_back(
            *name, SuccessRate(static_cast<std::size_t>(trialCount),
                               static_cast<std::size_t>(successes)));
    }
    return true;
}

} // namespace llcf

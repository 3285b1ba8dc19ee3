#include "experiment.hh"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "common/options.hh"
#include "harness/thread_pool.hh"

namespace llcf {

void
ExperimentResult::writeJson(JsonWriter &w) const
{
    w.beginObject();
    aggregate.writeJsonMembers(w, name, masterSeed);
    if (!campaign.empty()) {
        w.key("campaign").beginObject();
        for (const auto &[key, v] : campaign)
            w.member(key, v);
        w.endObject();
    }
    w.endObject();
}

ExperimentRunner::ExperimentRunner(ExperimentConfig cfg)
    : cfg_(std::move(cfg))
{
}

void
ExperimentRunner::runShard(ThreadPool &pool, std::uint64_t masterSeed,
                           std::size_t first, std::size_t count,
                           const TrialFn &fn, TrialAggregate &aggregate)
{
    // One slot per trial; workers never touch the shared aggregate.
    std::vector<TrialRecorder> slots(count);
    pool.parallelFor(count, [&](std::size_t i) {
        const std::size_t trial = first + i;
        TrialContext ctx{trial, streamSeed(masterSeed, trial),
                         Rng::forStream(masterSeed, trial)};
        fn(ctx, slots[i]);
    });
    // Fold in trial order: aggregate content and key order are then
    // functions of (seed, trials) alone, independent of scheduling.
    for (const TrialRecorder &slot : slots)
        aggregate.fold(slot);
}

ExperimentResult
ExperimentRunner::run(const TrialFn &fn) const
{
    ExperimentResult result;
    result.name = cfg_.name;
    result.masterSeed = cfg_.masterSeed;
    result.threadsUsed = resolveThreadCount(cfg_.threads);
    ThreadPool pool(result.threadsUsed);
    for (std::size_t first = 0; first < cfg_.trials; first += kShardTrials)
        runShard(pool, cfg_.masterSeed, first,
                 std::min(kShardTrials, cfg_.trials - first), fn,
                 result.aggregate);
    return result;
}

ExperimentSuite::ExperimentSuite(std::string bench)
    : bench_(std::move(bench))
{
}

void
ExperimentSuite::contextValue(std::string key, double v)
{
    contextValues_.emplace_back(std::move(key), v);
}

void
ExperimentSuite::add(ExperimentResult result)
{
    results_.push_back(std::move(result));
}

std::string
ExperimentSuite::toJson() const
{
    JsonWriter w;
    w.beginObject();
    w.key("context").beginObject();
    w.member("bench", bench_);
    w.member("base_seed", baseSeed());
    w.member("full_scale", fullScale());
    for (const auto &[key, v] : contextValues_)
        w.member(key, v);
    w.endObject();
    w.key("benchmarks").beginArray();
    for (const auto &r : results_)
        r.writeJson(w);
    w.endArray();
    w.endObject();
    return w.str();
}

std::string
ExperimentSuite::writeFile(const std::string &path) const
{
    return writeBenchDocument(bench_, toJson(), path);
}

std::string
writeBenchDocument(const std::string &bench, const std::string &doc,
                   const std::string &path)
{
    std::string target = path;
    if (target.empty())
        target = envString("LLCF_JSON_OUT", "BENCH_" + bench + ".json");
    std::FILE *f = std::fopen(target.c_str(), "w");
    if (!f)
        return "";
    const bool ok = std::fwrite(doc.data(), 1, doc.size(), f) ==
                        doc.size() &&
                    std::fputc('\n', f) != EOF;
    std::fclose(f);
    return ok ? target : "";
}

} // namespace llcf

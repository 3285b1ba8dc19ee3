#include "checkpoint.hh"

#include <cerrno>
#include <cstdio>
#include <cstdlib>

namespace llcf {

std::string
campaignCheckpointJson(const CampaignCheckpoint &cp)
{
    JsonWriter w;
    w.beginObject();
    w.member("campaign", cp.campaign);
    w.member("fleet", cp.fleet);
    // Seeds are full 64-bit values; JSON numbers are doubles, so the
    // seed goes through a string to survive the round trip exactly.
    w.member("master_seed", std::to_string(cp.masterSeed));
    w.member("shard_trials", cp.shardTrials);
    w.member("next_trial", cp.nextTrial);
    w.key("aggregate");
    cp.aggregate.writeState(w);
    w.endObject();
    return w.str();
}

bool
writeCampaignCheckpoint(const std::string &path,
                        const CampaignCheckpoint &cp, std::string *error)
{
    const std::string doc = campaignCheckpointJson(cp);
    const std::string tmp = path + ".tmp";
    std::FILE *f = std::fopen(tmp.c_str(), "w");
    if (!f) {
        if (error)
            *error = "cannot open " + tmp + " for writing";
        return false;
    }
    const bool wrote =
        std::fwrite(doc.data(), 1, doc.size(), f) == doc.size() &&
        std::fputc('\n', f) != EOF;
    const bool closed = std::fclose(f) == 0;
    if (!wrote || !closed) {
        if (error)
            *error = "error writing " + tmp;
        std::remove(tmp.c_str());
        return false;
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        if (error)
            *error = "cannot rename " + tmp + " to " + path;
        std::remove(tmp.c_str());
        return false;
    }
    return true;
}

bool
loadCampaignCheckpoint(const std::string &path, CampaignCheckpoint &out,
                       std::string *error)
{
    auto reject = [&](const std::string &why) {
        if (error)
            *error = path + ": " + why;
        return false;
    };
    JsonValue doc;
    if (!loadJsonFile(path, doc, error))
        return false;
    if (!doc.isObject())
        return reject("checkpoint is not a JSON object");
    std::string why;
    const std::string *campaign = jsonStringField(doc, "campaign", &why);
    const std::string *seed = jsonStringField(doc, "master_seed", &why);
    const JsonValue *agg = doc.find("aggregate");
    if (!campaign || !seed ||
        !jsonCountField(doc, "fleet", out.fleet, &why) ||
        !jsonCountField(doc, "shard_trials", out.shardTrials, &why) ||
        !jsonCountField(doc, "next_trial", out.nextTrial, &why))
        return reject(why);
    if (!agg)
        return reject("checkpoint has no aggregate");
    out.campaign = *campaign;
    // The seed is a full 64-bit value carried as a decimal string.
    errno = 0;
    out.masterSeed = std::strtoull(seed->c_str(), nullptr, 10);
    if (seed->empty() ||
        seed->find_first_not_of("0123456789") != std::string::npos ||
        errno == ERANGE)
        return reject("master_seed is not a 64-bit decimal");
    if (!TrialAggregate::fromState(*agg, out.aggregate, &why))
        return reject(why);
    // The aggregate must hold exactly the trials before next_trial,
    // and a run only stops at a shard boundary or at its fleet's end.
    if (out.nextTrial != out.aggregate.trials())
        return reject("next_trial differs from the aggregate's trials");
    if (out.nextTrial > out.fleet)
        return reject("next_trial is past the fleet");
    if (out.shardTrials == 0)
        return reject("shard_trials is 0");
    if (out.nextTrial % out.shardTrials != 0 && out.nextTrial != out.fleet)
        return reject("next_trial is off a shard boundary");
    return true;
}

} // namespace llcf

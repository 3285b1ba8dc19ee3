/**
 * @file
 * Campaign checkpoint/resume.
 *
 * A checkpoint is the complete state of a half-finished campaign at a
 * shard boundary: the identity of the run (campaign name, fleet size,
 * master seed, shard width), the next trial to execute, and the
 * streaming aggregate of every completed trial.  All floating-point
 * state round-trips exactly (shortest-round-trip doubles), so a
 * resumed campaign continues bit-identically — its final JSON matches
 * an uninterrupted run byte for byte, at any thread count.
 *
 * Writes are atomic (temp file + rename): a campaign killed mid-write
 * leaves either the previous checkpoint or the new one, never a torn
 * file.
 */

#ifndef LLCF_CAMPAIGN_CHECKPOINT_HH
#define LLCF_CAMPAIGN_CHECKPOINT_HH

#include <string>

#include "harness/aggregate.hh"

namespace llcf {

/** Serialisable state of a partially-run campaign. */
struct CampaignCheckpoint
{
    std::string campaign;          //!< scenario name (identity check)
    std::uint64_t fleet = 0;       //!< total victims of the run
    std::uint64_t masterSeed = 0;  //!< root of the per-victim streams
    std::uint64_t shardTrials = 0; //!< shard width the run uses
    std::uint64_t nextTrial = 0;   //!< first trial not yet aggregated
    TrialAggregate aggregate;      //!< completed trials, in order
};

/** The checkpoint as a JSON document. */
std::string campaignCheckpointJson(const CampaignCheckpoint &cp);

/**
 * Write @p cp to @p path atomically (write to "<path>.tmp", rename
 * over @p path).  @return false and fills @p error on I/O failure.
 */
bool writeCampaignCheckpoint(const std::string &path,
                             const CampaignCheckpoint &cp,
                             std::string *error = nullptr);

/**
 * Load a checkpoint written by writeCampaignCheckpoint.  The file is
 * untrusted input: besides the aggregate's own checks
 * (TrialAggregate::fromState), next_trial must equal the aggregate's
 * trials, lie within the fleet, and sit on a shard boundary unless it
 * is the fleet's end.
 * @return false and fills @p error when the file is unreadable or
 *         malformed.
 */
bool loadCampaignCheckpoint(const std::string &path,
                            CampaignCheckpoint &out,
                            std::string *error = nullptr);

} // namespace llcf

#endif // LLCF_CAMPAIGN_CHECKPOINT_HH

/**
 * @file
 * Forwarding header that exists only for perfbench/, which includes
 * it and names the aggregate CampaignAggregate.  The aggregate itself
 * is the harness's TrialAggregate (harness/aggregate.hh); everything
 * else includes that header.
 */

#ifndef LLCF_CAMPAIGN_AGGREGATE_HH
#define LLCF_CAMPAIGN_AGGREGATE_HH

#include "harness/aggregate.hh"

namespace llcf {

using CampaignAggregate = TrialAggregate;

} // namespace llcf

#endif // LLCF_CAMPAIGN_AGGREGATE_HH

#pragma once
// Campaign report writers.
//
// The CSV report is the campaign's reproducibility artifact: it contains
// only fields that are pure functions of the job matrix and seeds, so its
// bytes are identical at --threads=1 and --threads=N (set include_timing to
// trade that guarantee for wall-clock columns). The JSON report is the full
// record: each job is the object checkpoint::write_result() journals, wall
// clock and memo counters included, so it is *not* byte-reproducible.

#include <string>

#include "engine/campaign.hpp"

namespace gshe::engine {

/// Aggregate per-job CSV. Deterministic unless include_timing.
std::string campaign_csv(const CampaignResult& result,
                         bool include_timing = false);

/// Full JSON report: {"threads", "wall_seconds", "jobs": [...]}, one
/// checkpoint::write_result() object per job in matrix order.
std::string campaign_json(const CampaignResult& result);

/// One-line human summary ("24 jobs, 18 success, 6 t-o, 0 errors, 12.3 s").
std::string campaign_summary(const CampaignResult& result);

}  // namespace gshe::engine

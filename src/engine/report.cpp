#include "engine/report.hpp"

#include <cstdio>

#include "common/report.hpp"
#include "engine/checkpoint.hpp"

namespace gshe::engine {

std::string campaign_csv(const CampaignResult& result, bool include_timing) {
    // The four oracle_* additions (PR 5) are plan data or per-job query-
    // stream data — deterministic with the query memo on or off, at any
    // thread/shard count. Memo hit/miss counters are scheduling-dependent
    // and ride the JSON report and the journal only, like wall-clock.
    std::vector<std::string> header = {
        "job",           "circuit",        "defense",      "attack",
        "seed",          "status",         "iterations",
        "oracle_patterns", "oracle_calls", "protected_cells", "key_bits",
        "key_error_rate", "key_exact",     "conflicts",    "decisions",
        "propagations",  "restarts",       "oracle_contract",
        "oracle_group",  "oracle_group_size", "oracle_unique", "error"};
    if (include_timing) {
        header.push_back("attack_seconds");
        header.push_back("oracle_seconds");
        header.push_back("job_seconds");
    }
    Csv csv(std::move(header));

    for (const auto& j : result.jobs) {
        const auto& r = j.result;
        std::vector<std::string> row = {
            Csv::num(static_cast<std::uint64_t>(j.index)),
            j.circuit,
            j.defense,
            j.attack,
            Csv::num(j.spec_seed),
            j.error.empty() ? attack::AttackResult::status_name(r.status)
                            : "error",
            Csv::num(static_cast<std::uint64_t>(r.iterations)),
            Csv::num(r.oracle_patterns),
            Csv::num(j.oracle_stats.calls),
            Csv::num(static_cast<std::uint64_t>(j.protected_cells)),
            Csv::num(static_cast<std::uint64_t>(j.key_bits)),
            Csv::num(r.key_error_rate),
            r.key_exact ? "1" : "0",
            Csv::num(r.solver_stats.conflicts),
            Csv::num(r.solver_stats.decisions),
            Csv::num(r.solver_stats.propagations),
            Csv::num(r.solver_stats.restarts),
            j.oracle_contract,
            Csv::num(j.oracle_group),
            Csv::num(j.oracle_group_size),
            Csv::num(j.oracle_unique),
            j.error};
        if (include_timing) {
            row.push_back(Csv::num(r.seconds));
            row.push_back(Csv::num(j.oracle_stats.seconds));
            row.push_back(Csv::num(j.job_seconds));
        }
        csv.row(std::move(row));
    }
    return csv.render();
}

std::string campaign_json(const CampaignResult& result) {
    JsonWriter w;
    w.begin_object();
    w.key("threads");
    w.value(static_cast<std::int64_t>(result.threads));
    w.key("wall_seconds");
    w.value(result.wall_seconds);
    w.key("jobs");
    w.begin_array();
    for (const auto& j : result.jobs) checkpoint::write_result(w, j);
    w.end_array();
    w.end_object();
    return w.str() + "\n";
}

std::string campaign_summary(const CampaignResult& result) {
    std::size_t timed_out = 0;
    for (const auto& j : result.jobs)
        if (j.error.empty() && j.result.timed_out()) ++timed_out;
    char buf[200];
    std::snprintf(buf, sizeof buf,
                  "%zu jobs on %d thread(s): %zu success, %zu t-o, %zu errors "
                  "in %.2f s",
                  result.jobs.size(), result.threads, result.succeeded(),
                  timed_out, result.errored(), result.wall_seconds);
    std::string summary = buf;
    if (result.shard.is_sharded()) {
        std::snprintf(buf, sizeof buf, "shard %s (%zu of %zu plan jobs): ",
                      result.shard.label().c_str(), result.jobs.size(),
                      result.plan_size);
        summary = buf + summary;
    }
    if (result.resumed > 0) {
        std::snprintf(buf, sizeof buf, " (%zu resumed from checkpoint)",
                      result.resumed);
        summary += buf;
    }
    if (result.shared > 0) {
        std::snprintf(buf, sizeof buf,
                      " (%zu answered by a sibling's attack run)",
                      result.shared);
        summary += buf;
    }
    if (!result.checkpoint_error.empty())
        summary += " [checkpoint disabled: " + result.checkpoint_error + "]";
    return summary;
}

}  // namespace gshe::engine

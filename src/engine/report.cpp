#include "engine/report.hpp"

#include <cstdio>

#include "common/report.hpp"

namespace gshe::engine {

std::string campaign_csv(const CampaignResult& result, bool include_timing) {
    // The four oracle_* additions (PR 5) are plan data or per-job query-
    // stream data — deterministic with the query memo on or off, at any
    // thread/shard count. Memo hit/miss counters are scheduling-dependent
    // and ride the JSON report only, like wall-clock.
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
    for (const auto& j : result.jobs) {
        const auto& r = j.result;
        w.begin_object();
        w.key("job");
        w.value(static_cast<std::uint64_t>(j.index));
        w.key("circuit");
        w.value(j.circuit);
        w.key("defense");
        w.value(j.defense);
        w.key("attack");
        w.value(j.attack);
        w.key("seed");
        w.value(j.spec_seed);
        w.key("derived_seed");
        w.value(j.derived_seed);
        if (!j.error.empty()) {
            w.key("error");
            w.value(j.error);
        } else {
            w.key("status");
            w.value(attack::AttackResult::status_name(r.status));
            w.key("iterations");
            w.value(static_cast<std::uint64_t>(r.iterations));
            w.key("protected_cells");
            w.value(static_cast<std::uint64_t>(j.protected_cells));
            w.key("key_bits");
            w.value(static_cast<std::uint64_t>(j.key_bits));
            w.key("key_error_rate");
            w.value(r.key_error_rate);
            w.key("key_exact");
            w.value(r.key_exact);
            w.key("attack_seconds");
            w.value(r.seconds);
            w.key("solver");
            w.begin_object();
            w.key("conflicts");
            w.value(r.solver_stats.conflicts);
            w.key("decisions");
            w.value(r.solver_stats.decisions);
            w.key("propagations");
            w.value(r.solver_stats.propagations);
            w.key("restarts");
            w.value(r.solver_stats.restarts);
            w.end_object();
            // CNF-emission telemetry. JSON-only, like wall clock: the
            // deterministic CSV layout stays frozen.
            w.key("encoder_stats");
            w.begin_object();
            w.key("vars");
            w.value(r.encoder_stats.vars);
            w.key("clauses");
            w.value(r.encoder_stats.clauses);
            w.key("gates_folded");
            w.value(r.encoder_stats.gates_folded);
            w.key("hash_hits");
            w.value(r.encoder_stats.hash_hits);
            w.key("agreements");
            w.value(r.encoder_stats.agreements);
            w.key("agreement_vars");
            w.value(r.encoder_stats.agreement_vars);
            w.key("agreement_clauses");
            w.value(r.encoder_stats.agreement_clauses);
            w.key("cone_gates");
            w.value(r.encoder_stats.cone_gates);
            w.key("sim_gates");
            w.value(r.encoder_stats.sim_gates);
            w.end_object();
            w.key("inplace_extractions");
            w.value(r.inplace_extractions);
            w.key("oracle");
            w.begin_object();
            w.key("calls");
            w.value(j.oracle_stats.calls);
            w.key("single_calls");
            w.value(j.oracle_stats.single_calls);
            w.key("patterns");
            w.value(j.oracle_stats.patterns);
            w.key("seconds");
            w.value(j.oracle_stats.seconds);
            w.key("contract");
            w.value(j.oracle_contract);
            w.key("group");
            w.value(j.oracle_group);
            w.key("group_size");
            w.value(j.oracle_group_size);
            w.key("unique_patterns");
            w.value(j.oracle_unique);
            // Memo counters are scheduling-dependent (which sibling job
            // paid each miss) — full-record JSON only, like wall-clock.
            w.key("cache");
            w.begin_object();
            w.key("enabled");
            w.value(j.oracle_cache_enabled);
            w.key("hits");
            w.value(j.oracle_cache.hits);
            w.key("misses");
            w.value(j.oracle_cache.misses);
            w.key("bypassed");
            w.value(j.oracle_cache.bypassed);
            w.key("inserted_bytes");
            w.value(j.oracle_cache.inserted_bytes);
            w.end_object();
            w.end_object();
        }
        w.key("job_seconds");
        w.value(j.job_seconds);
        w.end_object();
    }
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
    if (!result.checkpoint_error.empty())
        summary += " [checkpoint disabled: " + result.checkpoint_error + "]";
    return summary;
}

}  // namespace gshe::engine

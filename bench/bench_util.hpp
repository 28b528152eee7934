#pragma once
// Shared plumbing for the paper-reproduction benchmark binaries.
//
// Every binary runs with no arguments and completes on a laptop in seconds
// to a few minutes; environment variables scale the workload back up to
// paper scale:
//   GSHE_TIMEOUT_S     per-attack timeout in seconds (default 2; paper 48 h)
//   GSHE_FIG4_RUNS     Monte-Carlo transients per current (default 1500;
//                      paper 100 000)
//   GSHE_STT_RUNS      repetitions of the Sec. II STT-LUT experiment
//                      (default 10; paper 100)
//   GSHE_TABLE4_FULL   set to 1 to run the full 7-circuit Table IV grid
//   GSHE_THREADS       campaign worker threads (default 1: the tables report
//                      wall-clock runtimes, and parallel jobs contend for
//                      cache/memory; set 0 = all cores when only the
//                      success/t-o classification matters)

#include <cstdio>
#include <string>
#include <vector>

#include "common/env.hpp"
#include "common/report.hpp"
#include "engine/campaign.hpp"

namespace gshe::bench {

inline double attack_timeout_s() { return env_double("GSHE_TIMEOUT_S", 5.0); }

/// Worker threads for CampaignRunner-based benches (0 = all cores).
/// Defaults to 1 so reported per-attack runtimes are measured without
/// cross-job contention, matching the paper's one-attack-at-a-time setup.
inline int campaign_threads() {
    return static_cast<int>(env_long("GSHE_THREADS", 1));
}

/// Compact status cell shared by the campaign-based bench tables:
/// "error" | "exact" (right key) | "wrong" (converged on a wrong key) |
/// "t-o" (budget exhausted / no convergence).
inline std::string status_cell(const engine::JobResult& j) {
    if (!j.error.empty()) return "error";
    if (j.result.status == attack::AttackResult::Status::Success)
        return j.result.key_exact ? "exact" : "wrong";
    return "t-o";
}

/// Timing hook for solver benches: renders one JSON record per campaign
/// job — wall-seconds, status and solver work (plus an optional per-job
/// label such as the ablation config name) — and writes it to `path` (e.g.
/// "BENCH_solver.json"). These files seed the perf trajectory: successive
/// runs are comparable by label. Wall-clock fields are measured, not
/// derived, so the file is *not* byte-reproducible.
inline void write_solver_bench_json(const std::string& path,
                                    const engine::CampaignResult& campaign,
                                    const std::vector<std::string>& labels = {}) {
    JsonWriter w;
    w.begin_object();
    w.key("bench");
    w.value("solver");
    w.key("threads");
    w.value(static_cast<std::int64_t>(campaign.threads));
    w.key("wall_seconds");
    w.value(campaign.wall_seconds);
    w.key("jobs");
    w.begin_array();
    for (std::size_t i = 0; i < campaign.jobs.size(); ++i) {
        const engine::JobResult& j = campaign.jobs[i];
        w.begin_object();
        if (i < labels.size()) {
            w.key("label");
            w.value(labels[i]);
        }
        w.key("circuit");
        w.value(j.circuit);
        w.key("attack");
        w.value(j.attack);
        w.key("status");
        w.value(j.error.empty()
                    ? attack::AttackResult::status_name(j.result.status)
                    : "error");
        w.key("attack_seconds");
        w.value(j.result.seconds);
        w.key("job_seconds");
        w.value(j.job_seconds);
        w.key("iterations");
        w.value(static_cast<std::uint64_t>(j.result.iterations));
        w.key("conflicts");
        w.value(j.result.solver_stats.conflicts);
        w.key("decisions");
        w.value(j.result.solver_stats.decisions);
        w.key("propagations");
        w.value(j.result.solver_stats.propagations);
        w.key("restarts");
        w.value(j.result.solver_stats.restarts);
        w.key("inprocessings");
        w.value(j.result.solver_stats.inprocessings);
        w.key("vivified_lits");
        w.value(j.result.solver_stats.vivified_lits);
        w.key("xors_recovered");
        w.value(j.result.solver_stats.xors_recovered);
        w.key("eliminated_vars");
        w.value(j.result.solver_stats.eliminated_vars);
        w.key("gc_runs");
        w.value(j.result.solver_stats.gc_runs);
        w.end_object();
    }
    w.end_array();
    w.end_object();
    write_text_file(path, w.str() + "\n");
    std::printf("wrote %s (%zu jobs)\n", path.c_str(), campaign.jobs.size());
}

/// Perf-trajectory hook for the oracle query memo: one record per cache
/// mode (off/on), each summing the campaign's logical oracle batches, the
/// batches that actually reached the simulator, and memo hit/miss counts,
/// plus wall-seconds. Successive runs are comparable by the "mode" key.
/// Wall-clock fields are measured, not derived, so the file is *not*
/// byte-reproducible; the count fields are.
struct OracleCacheModeSummary {
    std::string mode;                  ///< "off" | "on"
    double wall_seconds = 0.0;
    std::uint64_t batches_logical = 0;    ///< queries attacks issued
    std::uint64_t batches_evaluated = 0;  ///< queries that paid a simulation
    std::uint64_t patterns_logical = 0;   ///< per-job OracleStats::patterns
    std::uint64_t cache_hits = 0;
    std::uint64_t cache_misses = 0;
    std::uint64_t bypassed = 0;
};

inline OracleCacheModeSummary summarize_cache_mode(
    const std::string& mode, const engine::CampaignResult& campaign) {
    OracleCacheModeSummary s;
    s.mode = mode;
    s.wall_seconds = campaign.wall_seconds;
    for (const engine::JobResult& j : campaign.jobs) {
        s.batches_logical += j.oracle_cache.logical();
        s.batches_evaluated += j.oracle_cache.evaluated();
        s.patterns_logical += j.oracle_stats.patterns;
        s.cache_hits += j.oracle_cache.hits;
        s.cache_misses += j.oracle_cache.misses;
        s.bypassed += j.oracle_cache.bypassed;
    }
    return s;
}

inline void write_oracle_cache_bench_json(
    const std::string& path, const std::vector<OracleCacheModeSummary>& modes,
    std::size_t jobs, std::size_t shared_groups) {
    JsonWriter w;
    w.begin_object();
    w.key("bench");
    w.value("oracle_cache");
    w.key("jobs");
    w.value(static_cast<std::uint64_t>(jobs));
    w.key("shared_groups");
    w.value(static_cast<std::uint64_t>(shared_groups));
    w.key("modes");
    w.begin_array();
    for (const OracleCacheModeSummary& s : modes) {
        w.begin_object();
        w.key("mode");
        w.value(s.mode);
        w.key("wall_seconds");
        w.value(s.wall_seconds);
        w.key("oracle_batches_logical");
        w.value(s.batches_logical);
        w.key("oracle_batches_evaluated");
        w.value(s.batches_evaluated);
        w.key("oracle_patterns_logical");
        w.value(s.patterns_logical);
        w.key("cache_hits");
        w.value(s.cache_hits);
        w.key("cache_misses");
        w.value(s.cache_misses);
        w.key("bypassed");
        w.value(s.bypassed);
        w.end_object();
    }
    w.end_array();
    w.end_object();
    write_text_file(path, w.str() + "\n");
    std::printf("wrote %s (%zu modes)\n", path.c_str(), modes.size());
}

/// BENCH_sim.json: the levelized bit-sliced simulation engine ablation.
/// Per-circuit rows pair deterministic plan counters (full vs frontier step
/// counts — the gating metric) with measured sweep timings (reference walk
/// vs plan kernel, single- vs multi-word, full vs cone-restricted per-DIP
/// sweeps — trajectory data, never gated). Wall-clock fields are measured,
/// not byte-reproducible; the counter fields are.
struct SimCircuitSummary {
    std::string name;
    std::uint64_t gates = 0;
    std::uint64_t camo_cells = 0;
    std::uint64_t inputs = 0;
    std::uint64_t full_steps = 0;       ///< full SimPlan steps
    std::uint64_t frontier_steps = 0;   ///< cone-restricted sub-plan steps
    double reference_sweep_s = 0.0;     ///< per 64-pattern reference walk
    double kernel_sweep_s = 0.0;        ///< per 64-pattern plan sweep
    double single_word_s = 0.0;         ///< 1024 patterns as 16 x run()
    double multi_word_s = 0.0;          ///< 1024 patterns as one 16-word run()
    double full_dip_s = 0.0;            ///< per-DIP full sweep()
    double frontier_dip_s = 0.0;        ///< per-DIP sweep_frontier()
};

inline void write_sim_bench_json(const std::string& path,
                                 const std::vector<SimCircuitSummary>& circuits,
                                 double step_reduction_geomean,
                                 double kernel_speedup_geomean,
                                 double multiword_speedup_geomean,
                                 double cone_speedup_geomean) {
    JsonWriter w;
    w.begin_object();
    w.key("bench");
    w.value("sim");
    w.key("circuits");
    w.begin_array();
    for (const SimCircuitSummary& c : circuits) {
        w.begin_object();
        w.key("name");
        w.value(c.name);
        w.key("gates");
        w.value(c.gates);
        w.key("camo_cells");
        w.value(c.camo_cells);
        w.key("inputs");
        w.value(c.inputs);
        w.key("full_steps");
        w.value(c.full_steps);
        w.key("frontier_steps");
        w.value(c.frontier_steps);
        w.key("reference_sweep_s");
        w.value(c.reference_sweep_s);
        w.key("kernel_sweep_s");
        w.value(c.kernel_sweep_s);
        w.key("single_word_s");
        w.value(c.single_word_s);
        w.key("multi_word_s");
        w.value(c.multi_word_s);
        w.key("full_dip_s");
        w.value(c.full_dip_s);
        w.key("frontier_dip_s");
        w.value(c.frontier_dip_s);
        w.end_object();
    }
    w.end_array();
    w.key("per_dip_step_reduction_geomean");
    w.value(step_reduction_geomean);
    w.key("kernel_speedup_geomean");
    w.value(kernel_speedup_geomean);
    w.key("multiword_speedup_geomean");
    w.value(multiword_speedup_geomean);
    w.key("cone_speedup_geomean");
    w.value(cone_speedup_geomean);
    w.end_object();
    write_text_file(path, w.str() + "\n");
    std::printf("wrote %s (%zu circuits)\n", path.c_str(), circuits.size());
}

inline void banner(const char* id, const char* title) {
    std::printf("\n================================================================\n");
    std::printf("%s — %s\n", id, title);
    std::printf("(reproduction of: Patnaik et al., \"Advancing Hardware Security\n");
    std::printf(" Using Polymorphic and Stochastic Spin-Hall Effect Devices\", DATE 2018)\n");
    std::printf("================================================================\n");
}

inline std::string eng(double v, const char* unit) {
    char buf[64];
    if (v == 0.0) {
        std::snprintf(buf, sizeof buf, "0 %s", unit);
    } else if (v >= 1.0) {
        std::snprintf(buf, sizeof buf, "%.4g %s", v, unit);
    } else if (v >= 1e-3) {
        std::snprintf(buf, sizeof buf, "%.4g m%s", v * 1e3, unit);
    } else if (v >= 1e-6) {
        std::snprintf(buf, sizeof buf, "%.4g u%s", v * 1e6, unit);
    } else if (v >= 1e-9) {
        std::snprintf(buf, sizeof buf, "%.4g n%s", v * 1e9, unit);
    } else if (v >= 1e-12) {
        std::snprintf(buf, sizeof buf, "%.4g p%s", v * 1e12, unit);
    } else {
        std::snprintf(buf, sizeof buf, "%.4g f%s", v * 1e15, unit);
    }
    return buf;
}

}  // namespace gshe::bench

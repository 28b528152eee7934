// A2 — Ablation: which CDCL solver features carry the attack. Runs the
// identical camouflaged-circuit attack with individual solver features
// disabled, then a conflict-budgeted inprocessing axis.
// Expected: clause learning is load-bearing (without it the attack times
// out); VSIDS and restarts give large constant factors.
//
// The configurations become one CampaignRunner job matrix: JobSpec carries
// per-job AttackOptions, so each job pins its own solver feature toggles
// while circuit, defense and selection stay fixed. Per-job wall-seconds
// land in BENCH_solver.json (the perf-trajectory seed; see
// bench::write_solver_bench_json).
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/ascii_table.hpp"
#include "engine/campaign.hpp"

using namespace gshe;
using namespace gshe::attack;
using namespace gshe::engine;

int main() {
    bench::banner("ABLATION", "CDCL solver features under the SAT attack");
    const double timeout = std::max(bench::attack_timeout_s(), 5.0);

    struct Config {
        std::string name;
        sat::Solver::Options opts;
        // Deterministic conflict cap (0 = wall clock only). The
        // inprocessing axis runs budgeted so its baseline-vs-pass deltas
        // reproduce identically on any host.
        std::uint64_t max_conflicts = 0;
    };
    constexpr std::uint64_t kInprocessBudget = 50000;
    const std::vector<Config> configs = {
        {"full CDCL (baseline)", {}},
        {"no VSIDS (index order)", {.use_vsids = false}},
        {"no restarts", {.use_restarts = false}},
        {"no phase saving", {.use_phase_saving = false}},
        {"no clause learning (DPLL)", {.use_learning = false}},
        // Inprocessing ablation axis: one budgeted baseline plus each pass
        // alone and all passes combined — the BENCH_solver.json rows CI
        // tracks for baseline-vs-inprocessing wall/conflict deltas.
        {"budgeted baseline (no inprocessing)", {}, kInprocessBudget},
        {"inprocessing: vivification", {.use_vivification = true},
         kInprocessBudget},
        {"inprocessing: XOR recovery", {.use_xor_recovery = true},
         kInprocessBudget},
        {"inprocessing: BVE", {.use_bve = true}, kInprocessBudget},
        {"inprocessing: viv+xor+bve",
         {.use_vivification = true, .use_xor_recovery = true, .use_bve = true},
         kInprocessBudget},
    };

    // 5% protection: solvable by a competent CDCL within seconds, so the
    // feature gaps (and the DPLL collapse) are visible rather than all-t-o.
    std::vector<JobSpec> jobs;
    std::vector<std::string> labels;
    for (const Config& c : configs) {
        JobSpec spec;
        spec.circuit = "c7552";
        spec.defense.kind = "camo";
        spec.defense.library = "gshe16";
        spec.defense.fraction = 0.05;
        spec.defense.protect_seed = 0xAB2;
        spec.attack = "sat";
        spec.attack_options.timeout_seconds = timeout;
        if (c.max_conflicts > 0)
            spec.attack_options.max_conflicts = c.max_conflicts;
        spec.attack_options.solver = c.opts;
        labels.push_back(c.name);
        jobs.push_back(std::move(spec));
    }

    CampaignOptions copts;
    copts.threads = bench::campaign_threads();
    const CampaignResult campaign = CampaignRunner(copts).run(jobs);

    std::printf("circuit: c7552 stand-in, %zu 16-function cells, timeout %.1f s\n",
                campaign.jobs.front().protected_cells, timeout);

    AsciiTable t("Attack cost by solver configuration");
    t.header({"configuration", "status", "time", "DIPs", "conflicts",
              "propagations"});
    for (std::size_t i = 0; i < configs.size(); ++i) {
        const JobResult& j = campaign.jobs[i];
        const AttackResult& res = j.result;
        t.row({configs[i].name, bench::status_cell(j),
               AsciiTable::runtime(res.seconds, res.timed_out()),
               std::to_string(res.iterations),
               std::to_string(res.solver_stats.conflicts),
               std::to_string(res.solver_stats.propagations)});
    }
    std::puts(t.render().c_str());
    std::printf("campaign: %zu jobs, %.1f s wall on %d thread(s)\n",
                campaign.jobs.size(), campaign.wall_seconds, campaign.threads);
    bench::write_solver_bench_json("BENCH_solver.json", campaign, labels);
    return 0;
}

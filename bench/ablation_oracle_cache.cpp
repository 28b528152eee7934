// A3 — Ablation: what the shared oracle service's query memo saves when a
// job matrix attacks identical defense instances (the Table IV methodology:
// one memorized gate selection reapplied across every technique column, so
// every {attack x seed} cell of a circuit faces the *same* chip).
//
// The same campaign runs twice — --oracle-cache=off then on — over a matrix
// whose defense uses a pinned protect_seed, putting all jobs of a circuit
// into one defense-instance sharing group. The seed replicates of the SAT
// attack do not query at all: it ignores the seed, so the engine runs it
// once per instance and copies the result. AppSAT reads its seed, so each
// replicate runs and queries, re-deriving largely the DIP sequence of the
// SAT run and of the other replicates before their random settlement
// samples diverge. Expected: the deterministic CSV is byte-identical across
// modes (the memo may never change results, only cost), while the number
// of oracle batches that actually reach the bit-parallel simulator drops:
// with the memo on, only the first job to issue a query pays for it.
// BENCH_oracle_cache.json records both modes (wall-seconds and
// oracle-pattern counts) as the perf-trajectory point.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/ascii_table.hpp"
#include "engine/campaign.hpp"
#include "engine/report.hpp"

using namespace gshe;
using namespace gshe::engine;

int main() {
    bench::banner("ABLATION",
                  "oracle query memo across jobs sharing a defense instance");
    // Budgeted by the deterministic conflict cap, not the wall clock: the
    // memo makes jobs *faster*, so a tight wall-clock timeout would let
    // borderline cells succeed with the memo on and time out with it off —
    // and the whole point of the comparison is that results never move.
    const double timeout = std::max(bench::attack_timeout_s(), 120.0);
    constexpr std::uint64_t kMaxConflicts = 30000;

    // One circuit, one pinned defense instance, {2 attacks x 3 seeds} = 6
    // jobs in a single sharing group, of which the SAT attack runs once
    // (plus nothing else, so every saving in the numbers below is the
    // memo's doing).
    DefenseConfig defense;
    defense.kind = "camo";
    defense.library = "gshe16";
    defense.fraction = 0.05;
    defense.protect_seed = 0xAB2;
    attack::AttackOptions attack_options;
    attack_options.timeout_seconds = timeout;
    attack_options.max_conflicts = kMaxConflicts;
    const std::vector<JobSpec> jobs = CampaignRunner::cross_product(
        {"c7552"}, {defense}, {"sat", "appsat"}, {1, 2, 3},
        attack_options);

    std::vector<bench::OracleCacheModeSummary> modes;
    std::string csv_off, csv_on;
    for (const bool cache_on : {false, true}) {
        CampaignOptions copts;
        copts.threads = bench::campaign_threads();
        copts.oracle_cache =
            cache_on ? OracleCacheMode::On : OracleCacheMode::Off;
        const CampaignResult campaign = CampaignRunner(copts).run(jobs);
        (cache_on ? csv_on : csv_off) = campaign_csv(campaign);
        modes.push_back(
            bench::summarize_cache_mode(cache_on ? "on" : "off", campaign));
    }

    AsciiTable t("Oracle cost by query-memo mode (6 jobs, 1 shared instance)");
    t.header({"memo", "wall s", "batches issued", "batches simulated",
              "hits", "misses"});
    for (const auto& s : modes)
        t.row({s.mode, AsciiTable::runtime(s.wall_seconds, false),
               std::to_string(s.batches_logical),
               std::to_string(s.batches_evaluated),
               std::to_string(s.cache_hits), std::to_string(s.cache_misses)});
    std::puts(t.render().c_str());

    const bool identical = csv_off == csv_on;
    std::printf("deterministic CSV identical across modes: %s\n",
                identical ? "yes" : "NO — memo changed results (BUG)");
    if (!modes.empty() && modes.front().batches_evaluated > 0) {
        const double saved =
            100.0 *
            (1.0 - static_cast<double>(modes.back().batches_evaluated) /
                       static_cast<double>(modes.front().batches_evaluated));
        std::printf("oracle batches simulated: %llu -> %llu (%.1f%% saved)\n",
                    static_cast<unsigned long long>(
                        modes.front().batches_evaluated),
                    static_cast<unsigned long long>(
                        modes.back().batches_evaluated),
                    saved);
    }
    bench::write_oracle_cache_bench_json("BENCH_oracle_cache.json", modes,
                                         jobs.size(), 1);
    return identical ? 0 : 1;
}

// Tests for the plan/execute/aggregate split and multi-process sharding:
// the planner's fingerprint and round-robin partition, the executor over
// arbitrary index subsets, the aggregator shared by live runs and journal
// merges, and — the acceptance criterion — that any shard count x any
// thread count x any kill/resume prefix, merged with merge_journals(),
// produces a CSV byte-identical to an unsharded --threads=1 run; and that
// mismatched plans or incomplete shard sets fail loudly with diagnostics
// naming the offending shard/journal/job. The JSON report writes each job
// as its journal result object.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "engine/campaign.hpp"
#include "engine/checkpoint.hpp"
#include "engine/merge.hpp"
#include "engine/report.hpp"
#include "netlist/generator.hpp"

namespace gshe::engine {
namespace {

using attack::AttackOptions;
using netlist::Netlist;

Netlist tiny_circuit(const std::string& name) {
    netlist::RandomSpec spec;
    spec.n_inputs = 12;
    spec.n_outputs = 8;
    spec.n_gates = 60;
    spec.seed = name == "alpha" ? 11 : 22;
    return netlist::random_circuit(spec, name);
}

/// 8-job matrix: 2 circuits x 2 defenses x 1 attack x 2 seeds, budgeted by
/// conflicts so every outcome is deterministic.
std::vector<JobSpec> matrix8() {
    DefenseConfig camo;
    camo.fraction = 0.10;
    DefenseConfig sarlock;
    sarlock.kind = "sarlock";
    sarlock.sarlock_bits = 4;

    AttackOptions opt;
    opt.timeout_seconds = 600.0;  // generous: the deterministic budget binds
    opt.max_conflicts = 10000;
    return CampaignRunner::cross_product({"alpha", "beta"}, {camo, sarlock},
                                         {"sat"}, {1, 2}, opt);
}

CampaignOptions test_options(int threads, ShardSpec shard = {},
                             std::string checkpoint = {}) {
    CampaignOptions options;
    options.threads = threads;
    options.netlist_provider = tiny_circuit;
    options.shard = shard;
    options.checkpoint_path = std::move(checkpoint);
    return options;
}

/// Unique-per-test scratch directory for shard journals, removed on
/// destruction.
struct ScratchDir {
    std::filesystem::path dir;
    explicit ScratchDir(const std::string& name)
        : dir(std::filesystem::temp_directory_path() /
              ("gshe_shard_" + name)) {
        std::filesystem::remove_all(dir);
        std::filesystem::create_directories(dir);
    }
    ~ScratchDir() { std::filesystem::remove_all(dir); }

    std::string journal(std::size_t shard) const {
        return (dir / ("shard" + std::to_string(shard) + ".jsonl")).string();
    }

    std::vector<std::string> lines(const std::string& path) const {
        std::vector<std::string> out;
        std::ifstream f(path, std::ios::binary);
        std::string line;
        while (std::getline(f, line)) out.push_back(line);
        return out;
    }

    void write_lines(const std::string& path,
                     const std::vector<std::string>& lines) const {
        std::ofstream f(path, std::ios::binary | std::ios::trunc);
        for (const auto& line : lines) f << line << '\n';
    }
};

/// Runs every shard of an N-way split as its own runner (the in-process
/// analogue of N processes), journaling each to its own file; returns the
/// journal paths.
std::vector<std::string> run_sharded(const ScratchDir& scratch,
                                     const std::vector<JobSpec>& jobs,
                                     std::size_t shards, int threads) {
    std::vector<std::string> paths;
    for (std::size_t s = 0; s < shards; ++s) {
        const std::string path = scratch.journal(s);
        const CampaignResult res =
            CampaignRunner(test_options(threads, ShardSpec{s, shards}, path))
                .run(jobs);
        EXPECT_EQ(res.errored(), 0u);
        paths.push_back(path);
    }
    return paths;
}

bool any_error_contains(const MergeReport& report, const std::string& text) {
    for (const auto& error : report.errors)
        if (error.find(text) != std::string::npos) return true;
    return false;
}

// ---- planner ----------------------------------------------------------------

TEST(JobPlanner, IndicesKeysAndSeedsMatchTheContract) {
    const auto jobs = matrix8();
    const JobPlan plan = plan_jobs(jobs, 0x5eed);
    ASSERT_EQ(plan.size(), jobs.size());
    EXPECT_EQ(plan.campaign_seed, 0x5eedu);
    EXPECT_NE(plan.fingerprint, 0u);
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        EXPECT_EQ(plan.jobs[i].index, i);
        EXPECT_EQ(plan.jobs[i].key, checkpoint::job_key(0x5eed, i, jobs[i]));
        EXPECT_EQ(plan.jobs[i].derived_seed,
                  CampaignRunner::derive_seed(0x5eed, i, jobs[i].seed));
        EXPECT_EQ(plan.jobs[i].spec.circuit, jobs[i].circuit);
    }
}

TEST(JobPlanner, FingerprintCoversSeedSpecAndOrder) {
    const auto jobs = matrix8();
    const JobPlan base = plan_jobs(jobs, 1);
    EXPECT_EQ(base.fingerprint, plan_jobs(jobs, 1).fingerprint);
    EXPECT_NE(base.fingerprint, plan_jobs(jobs, 2).fingerprint);

    auto edited = jobs;
    edited[3].attack_options.max_conflicts += 1;
    EXPECT_NE(base.fingerprint, plan_jobs(edited, 1).fingerprint);

    auto reordered = jobs;
    std::swap(reordered[0], reordered[1]);
    EXPECT_NE(base.fingerprint, plan_jobs(reordered, 1).fingerprint);

    auto truncated = jobs;
    truncated.pop_back();
    EXPECT_NE(base.fingerprint, plan_jobs(truncated, 1).fingerprint);
}

TEST(JobPlanner, ShardIndicesPartitionThePlan) {
    const JobPlan plan = plan_jobs(matrix8(), 1);
    for (const std::size_t total : {1ul, 2ul, 3ul, 5ul, 11ul}) {
        std::vector<char> seen(plan.size(), 0);
        for (std::size_t s = 0; s < total; ++s) {
            for (const std::size_t i :
                 plan.shard_indices(ShardSpec{s, total})) {
                EXPECT_EQ(i % total, s);
                EXPECT_FALSE(seen[i]) << "index " << i << " in two shards";
                seen[i] = 1;
            }
        }
        for (std::size_t i = 0; i < plan.size(); ++i)
            EXPECT_TRUE(seen[i]) << "index " << i << " in no shard";
    }
    EXPECT_THROW(plan.shard_indices(ShardSpec{2, 2}), std::invalid_argument);
    EXPECT_THROW(plan.shard_indices(ShardSpec{0, 0}), std::invalid_argument);
}

// ---- executor ---------------------------------------------------------------

TEST(Executor, RunsExactlyTheRequestedSubset) {
    const JobPlan plan = plan_jobs(matrix8(), CampaignOptions{}.campaign_seed);
    const CampaignRunner runner(test_options(2));
    const std::vector<std::size_t> subset = {6, 1, 3};
    const auto results = runner.execute(plan, subset);
    ASSERT_EQ(results.size(), 3u);
    for (std::size_t k = 0; k < subset.size(); ++k) {
        EXPECT_EQ(results[k].index, subset[k]) << "result order = input order";
        EXPECT_TRUE(results[k].error.empty()) << results[k].error;
        EXPECT_EQ(results[k].derived_seed, plan.jobs[subset[k]].derived_seed);
    }
    EXPECT_THROW(runner.execute(plan, {plan.size()}), std::invalid_argument);
}

TEST(Executor, RunnerRejectsAPlanForAnotherCampaignSeed) {
    const JobPlan plan = plan_jobs(matrix8(), 0x999);
    EXPECT_THROW(CampaignRunner(test_options(1)).run(plan),
                 std::invalid_argument);
}

// ---- aggregator -------------------------------------------------------------

TEST(Aggregator, SortsByIndexAndRejectsDuplicates) {
    JobResult a, b, c;
    a.index = 5;
    b.index = 1;
    c.index = 3;
    const CampaignResult res = aggregate_results({a, b, c}, 4, 1.5);
    ASSERT_EQ(res.jobs.size(), 3u);
    EXPECT_EQ(res.jobs[0].index, 1u);
    EXPECT_EQ(res.jobs[1].index, 3u);
    EXPECT_EQ(res.jobs[2].index, 5u);
    EXPECT_EQ(res.threads, 4);
    EXPECT_EQ(res.plan_size, 3u);

    JobResult dup;
    dup.index = 3;
    EXPECT_THROW(aggregate_results({a, c, dup}, 1, 0.0),
                 std::invalid_argument);
}

// ---- the sharding determinism contract --------------------------------------

TEST(ShardMerge, AnyShardCountAnyThreadCountIsByteIdenticalToUnsharded) {
    const auto jobs = matrix8();
    const CampaignResult unsharded =
        CampaignRunner(test_options(1)).run(jobs);
    ASSERT_EQ(unsharded.errored(), 0u);
    const std::string golden_csv = campaign_csv(unsharded);

    for (const std::size_t shards : {1ul, 2ul, 3ul}) {
        for (const int threads : {1, 4}) {
            ScratchDir scratch("merge_" + std::to_string(shards) + "_" +
                               std::to_string(threads));
            const auto paths = run_sharded(scratch, jobs, shards, threads);
            const MergeReport merged = merge_journals(paths);
            ASSERT_TRUE(merged.ok())
                << shards << " shards: " << merged.errors.front();
            EXPECT_EQ(campaign_csv(merged.result), golden_csv)
                << shards << " shards, " << threads << " threads";
            EXPECT_EQ(merged.result.plan_size, jobs.size());
            EXPECT_EQ(merged.result.resumed, 0u);
        }
    }
}

TEST(ShardMerge, KilledAndResumedShardStillMergesByteIdentical) {
    const auto jobs = matrix8();
    const std::string golden_csv =
        campaign_csv(CampaignRunner(test_options(1)).run(jobs));

    ScratchDir scratch("resume");
    const auto paths = run_sharded(scratch, jobs, 2, 1);

    // Kill-after-K simulation on shard 1: its journal truncated to the
    // first K records is exactly the on-disk state after K of its jobs
    // finished; a resumed shard run completes the slice.
    const std::vector<std::string> full = scratch.lines(paths[1]);
    ASSERT_EQ(full.size(), 4u);
    for (const std::size_t k : {0ul, 1ul, 3ul}) {
        scratch.write_lines(paths[1], {full.begin(), full.begin() + k});
        const CampaignResult resumed =
            CampaignRunner(test_options(2, ShardSpec{1, 2}, paths[1]))
                .run(jobs);
        EXPECT_EQ(resumed.resumed, k);
        EXPECT_EQ(scratch.lines(paths[1]).size(), 4u) << "journal healed";

        const MergeReport merged = merge_journals(paths);
        ASSERT_TRUE(merged.ok()) << "K=" << k << ": " << merged.errors.front();
        EXPECT_EQ(campaign_csv(merged.result), golden_csv) << "K=" << k;
    }
}

TEST(ShardMerge, SingleUnshardedJournalMergesToTheRunCsv) {
    const auto jobs = matrix8();
    ScratchDir scratch("single");
    const std::string path = scratch.journal(0);
    const CampaignResult run =
        CampaignRunner(test_options(2, ShardSpec{}, path)).run(jobs);
    const MergeReport merged = merge_journals({path});
    ASSERT_TRUE(merged.ok()) << merged.errors.front();
    EXPECT_EQ(campaign_csv(merged.result), campaign_csv(run));
}

// ---- loud failures ----------------------------------------------------------

TEST(ShardMerge, MismatchedPlanFingerprintsFailWithDiagnostics) {
    const auto jobs = matrix8();
    ScratchDir scratch("mismatch");

    CampaignOptions shard0 = test_options(1, ShardSpec{0, 2},
                                          scratch.journal(0));
    CampaignRunner(shard0).run(jobs);
    // Shard 1 of a DIFFERENT campaign (other seed => other fingerprint).
    CampaignOptions shard1 = test_options(1, ShardSpec{1, 2},
                                          scratch.journal(1));
    shard1.campaign_seed = 0xD1FF;
    CampaignRunner(shard1).run(jobs);

    const MergeReport merged =
        merge_journals({scratch.journal(0), scratch.journal(1)});
    EXPECT_FALSE(merged.ok());
    EXPECT_TRUE(any_error_contains(merged, "plan fingerprint mismatch"));
    EXPECT_TRUE(any_error_contains(merged, scratch.journal(1)));
}

TEST(ShardMerge, MissingShardAndMissingJobsAreListed) {
    const auto jobs = matrix8();
    ScratchDir scratch("missing");
    const auto paths = run_sharded(scratch, jobs, 3, 1);

    // Whole shard 2 absent: the diagnostic names the shard and its jobs.
    const MergeReport no_shard = merge_journals({paths[0], paths[1]});
    EXPECT_FALSE(no_shard.ok());
    EXPECT_TRUE(any_error_contains(no_shard, "no journal given for shard 2/3"));
    EXPECT_TRUE(any_error_contains(no_shard, "2, 5"));

    // One record deleted from shard 1: the diagnostic names journal and
    // the missing plan index (shard 1 of 3 owns indices 1, 4, 7).
    auto lines = scratch.lines(paths[1]);
    ASSERT_EQ(lines.size(), 3u);
    lines.erase(lines.begin() + 1);
    scratch.write_lines(paths[1], lines);
    const MergeReport partial = merge_journals(paths);
    EXPECT_FALSE(partial.ok());
    EXPECT_TRUE(any_error_contains(partial, paths[1]));
    EXPECT_TRUE(any_error_contains(partial, "missing 1 job(s): 4"));
}

TEST(ShardMerge, DuplicateShardsAndForeignRecordsAreRejected) {
    const auto jobs = matrix8();
    ScratchDir scratch("duplicate");
    const auto paths = run_sharded(scratch, jobs, 2, 1);

    const MergeReport duplicated = merge_journals({paths[0], paths[0]});
    EXPECT_FALSE(duplicated.ok());
    EXPECT_TRUE(any_error_contains(duplicated, "duplicate shard 0/2"));

    // A record smuggled from shard 1's journal into shard 0's: its stamp
    // disagrees with the rest of the file, caught at load.
    auto lines0 = scratch.lines(paths[0]);
    const auto lines1 = scratch.lines(paths[1]);
    lines0.push_back(lines1.front());
    scratch.write_lines(paths[0], lines0);
    const MergeReport foreign = merge_journals(paths);
    EXPECT_FALSE(foreign.ok());
    EXPECT_TRUE(any_error_contains(foreign, "mixed journals"));
    EXPECT_TRUE(any_error_contains(foreign, paths[0]));
}

TEST(ShardMerge, PreShardingRecordsAreDiagnosed) {
    // A journal written without shard stamps (plan fingerprint 0) cannot be
    // merged — the merge has no way to verify what plan it belongs to.
    const auto jobs = matrix8();
    ScratchDir scratch("unstamped");
    const std::string path = scratch.journal(0);
    JobResult r;
    r.index = 0;
    scratch.write_lines(path, {checkpoint::encode_record(
                                  checkpoint::job_key(1, 0, jobs[0]),
                                  jobs[0], r)});
    const MergeReport merged = merge_journals({path});
    EXPECT_FALSE(merged.ok());
    EXPECT_TRUE(any_error_contains(merged, "no plan fingerprint"));
}

TEST(ShardMerge, EmptyJournalsOfJoblessShardsMergeCleanly) {
    // More shards than jobs: shards that own nothing write legitimately
    // empty journals, which must not block the merge.
    const auto jobs = CampaignRunner::cross_product(
        {"alpha"}, {DefenseConfig{}}, {"sat"}, {1, 2}, AttackOptions{});
    ASSERT_EQ(jobs.size(), 2u);
    const std::string golden_csv =
        campaign_csv(CampaignRunner(test_options(1)).run(jobs));

    ScratchDir scratch("empty");
    const auto paths = run_sharded(scratch, jobs, 4, 1);  // shards 2,3 idle
    const MergeReport merged = merge_journals(paths);
    ASSERT_TRUE(merged.ok()) << merged.errors.front();
    EXPECT_EQ(campaign_csv(merged.result), golden_csv);

    // But all-empty is refused: there is no plan to merge against.
    scratch.write_lines(paths[0], {});
    scratch.write_lines(paths[1], {});
    const MergeReport all_empty = merge_journals(paths);
    EXPECT_FALSE(all_empty.ok());
    EXPECT_TRUE(any_error_contains(all_empty, "no records in any journal"));

    // And a missing file stays an error (a typo, not an empty shard).
    const MergeReport missing_file =
        merge_journals({scratch.journal(9), paths[0]});
    EXPECT_FALSE(missing_file.ok());
    EXPECT_TRUE(any_error_contains(missing_file, "cannot read"));
}

TEST(ShardMerge, CorruptShardStampIsADiagnosticNotACrash) {
    // "shards":0 in a hand-edited record must not reach the modulo
    // arithmetic (SIGFPE); it is reported like any other violation.
    const auto jobs = matrix8();
    ScratchDir scratch("corrupt_stamp");
    const std::string path = scratch.journal(0);
    JobResult r;
    r.index = 0;
    checkpoint::ShardStamp bad;
    bad.plan_fingerprint = 0x1234;
    bad.plan_size = 8;
    bad.shard_index = 0;
    bad.shard_total = 0;
    scratch.write_lines(path, {checkpoint::encode_record(
                                  checkpoint::job_key(1, 0, jobs[0]),
                                  jobs[0], r, bad)});
    const MergeReport merged = merge_journals({path});
    EXPECT_FALSE(merged.ok());
    EXPECT_TRUE(any_error_contains(merged, "invalid shard stamp"));
}

TEST(ShardResume, ResumingRestampsPreShardingRecords) {
    // A journal from a pre-sharding runner (no stamps) must not be a dead
    // end: one resume pass restamps the salvaged records, making the
    // journal mergeable without redoing the work.
    const auto jobs = matrix8();
    ScratchDir scratch("restamp");
    const std::string path = scratch.journal(0);

    // Full run, then strip every stamp — the journal an old binary left.
    const CampaignResult full =
        CampaignRunner(test_options(1, ShardSpec{}, path)).run(jobs);
    const std::string golden_csv = campaign_csv(full);
    const JobPlan plan = plan_jobs(jobs, CampaignOptions{}.campaign_seed);
    std::vector<std::string> unstamped;
    for (const auto& record : checkpoint::load_journal(path))
        unstamped.push_back(checkpoint::encode_record(
            record.key, record.spec, record.result));  // default stamp
    scratch.write_lines(path, unstamped);
    EXPECT_FALSE(merge_journals({path}).ok());

    // Resume: every job satisfied from cache, journal rewritten stamped.
    const CampaignResult resumed =
        CampaignRunner(test_options(1, ShardSpec{}, path)).run(jobs);
    EXPECT_EQ(resumed.resumed, jobs.size());
    EXPECT_EQ(campaign_csv(resumed), golden_csv);
    for (const auto& record : checkpoint::load_journal(path))
        EXPECT_EQ(record.stamp.plan_fingerprint, plan.fingerprint);
    const MergeReport merged = merge_journals({path});
    ASSERT_TRUE(merged.ok()) << merged.errors.front();
    EXPECT_EQ(campaign_csv(merged.result), golden_csv);
}

TEST(ShardMerge, ErroredRecordsDoNotCountAsCompletedWork) {
    // This engine never journals errors, but a foreign writer might; an
    // errored record must surface as a missing job, not ride into the CSV.
    const auto jobs = matrix8();
    ScratchDir scratch("errored");
    const std::string path = scratch.journal(0);
    CampaignRunner(test_options(1, ShardSpec{}, path)).run(jobs);

    auto records = checkpoint::load_journal(path);
    ASSERT_EQ(records.size(), 8u);
    std::vector<std::string> lines;
    for (auto& record : records) {
        if (record.result.index == 3) record.result.error = "oom";
        lines.push_back(checkpoint::encode_record(record.key, record.spec,
                                                  record.result,
                                                  record.stamp));
    }
    scratch.write_lines(path, lines);

    const MergeReport merged = merge_journals({path});
    EXPECT_FALSE(merged.ok());
    EXPECT_TRUE(any_error_contains(merged, "missing 1 job(s): 3"));
}

TEST(ShardResume, JournalFromAnotherShardOfTheSamePlanFailsLoudly) {
    // Pointing shard 0 at shard 1's journal would silently discard shard
    // 1's completed work (no key matches, records dropped as stale). The
    // plan fingerprint detects the operator error instead.
    const auto jobs = matrix8();
    ScratchDir scratch("wrong_shard");
    const auto paths = run_sharded(scratch, jobs, 2, 1);
    EXPECT_THROW(
        CampaignRunner(test_options(1, ShardSpec{0, 2}, paths[1])).run(jobs),
        std::runtime_error);
    // The journal survives untouched for the rightful owner.
    EXPECT_EQ(scratch.lines(paths[1]).size(), 4u);
}

TEST(ShardResume, PreShardingJournalUnderAShardedResumeFailsLoudly) {
    // An unstamped (pre-sharding) journal of the whole plan resumed with
    // --shard=0/2 would silently drop the odd-index completed jobs when
    // the journal is rewritten. The key-based ownership check refuses.
    const auto jobs = matrix8();
    ScratchDir scratch("preshard_sharded");
    const std::string path = scratch.journal(0);
    CampaignRunner(test_options(1, ShardSpec{}, path)).run(jobs);
    std::vector<std::string> unstamped;
    for (const auto& record : checkpoint::load_journal(path))
        unstamped.push_back(checkpoint::encode_record(
            record.key, record.spec, record.result));  // default stamp
    scratch.write_lines(path, unstamped);

    EXPECT_THROW(
        CampaignRunner(test_options(1, ShardSpec{0, 2}, path)).run(jobs),
        std::runtime_error);
    // The other shards' work survives for a correct (unsharded) resume.
    EXPECT_EQ(scratch.lines(path).size(), 8u);
    const CampaignResult resumed =
        CampaignRunner(test_options(1, ShardSpec{}, path)).run(jobs);
    EXPECT_EQ(resumed.resumed, 8u);
}

TEST(ShardResume, ShardRunWritesStampedRecords) {
    const auto jobs = matrix8();
    ScratchDir scratch("stamped");
    const auto paths = run_sharded(scratch, jobs, 2, 1);
    const JobPlan plan = plan_jobs(jobs, CampaignOptions{}.campaign_seed);
    for (std::size_t s = 0; s < 2; ++s) {
        const auto records = checkpoint::load_journal(paths[s]);
        ASSERT_EQ(records.size(), 4u);
        for (const auto& record : records) {
            EXPECT_EQ(record.stamp.plan_fingerprint, plan.fingerprint);
            EXPECT_EQ(record.stamp.plan_size, jobs.size());
            EXPECT_EQ(record.stamp.shard_index, s);
            EXPECT_EQ(record.stamp.shard_total, 2u);
        }
    }
}

// ---- result sharing ---------------------------------------------------------

/// The Table IV methodology's matrix: one pinned gate selection, so each
/// circuit's camo and sarlock jobs attack one shared instance each, beside
/// private stochastic instances; 2 circuits x 3 defenses x {sat,
/// double_dip, appsat} x 3 seeds = 54 jobs.
std::vector<JobSpec> protect_seed_matrix() {
    DefenseConfig camo;
    camo.fraction = 0.10;
    DefenseConfig sarlock;
    sarlock.kind = "sarlock";
    sarlock.sarlock_bits = 4;
    DefenseConfig stochastic;
    stochastic.kind = "stochastic";
    stochastic.fraction = 0.10;
    stochastic.accuracy = 0.95;
    std::vector<DefenseConfig> defenses = {camo, sarlock, stochastic};
    for (DefenseConfig& d : defenses) d.protect_seed = 7;

    AttackOptions opt;
    opt.timeout_seconds = 600.0;  // generous: the deterministic budget binds
    opt.max_conflicts = 10000;
    return CampaignRunner::cross_product({"alpha", "beta"}, defenses,
                                         {"sat", "double_dip", "appsat"},
                                         {1, 2, 3}, opt);
}

std::vector<std::size_t> all_indices(const JobPlan& plan) {
    return plan.shard_indices(ShardSpec{});
}

/// `follower` with its identity and measured wall-clock fields replaced by
/// `leader`'s: what must then equal the leader field for field.
JobResult masked_follower(JobResult follower, const JobResult& leader) {
    follower.index = leader.index;
    follower.spec_seed = leader.spec_seed;
    follower.derived_seed = leader.derived_seed;
    follower.job_seconds = leader.job_seconds;
    follower.result.seconds = leader.result.seconds;
    follower.oracle_stats.seconds = leader.oracle_stats.seconds;
    follower.oracle_cache = leader.oracle_cache;
    return follower;
}

TEST(ResultSharing, LeadersAreTheLowestIndexOfOneSeedFreeSearch) {
    DefenseConfig camo;
    camo.protect_seed = 7;
    AttackOptions opt;
    opt.max_conflicts = 1000;
    auto jobs = CampaignRunner::cross_product({"alpha"}, {camo},
                                              {"sat", "appsat"}, {1, 2, 3}, opt);
    JobSpec other_budget = jobs[0];  // same instance, another search
    other_budget.attack_options.max_conflicts = 2000;
    jobs.push_back(other_budget);
    JobSpec other_seed_field = jobs[1];  // differs only in the option seed
    other_seed_field.attack_options.seed = 99;
    jobs.push_back(other_seed_field);
    const JobPlan plan = plan_jobs(jobs, 1);
    ASSERT_EQ(plan.groups.size(), 1u);  // one shared instance

    // Plan order: sat 0-2, appsat 3-5 (AppSAT reads its seed: each runs),
    // sat at another budget 6, sat with another option seed 7.
    EXPECT_EQ(result_leaders(plan, all_indices(plan)),
              (std::vector<std::size_t>{0, 0, 0, 3, 4, 5, 6, 0}));
    // The lowest index present leads, whatever the order of `indices`.
    EXPECT_EQ(result_leaders(plan, {7, 2, 5, 1}),
              (std::vector<std::size_t>{3, 3, 2, 3}));

    // Without a pinned selection every instance is private: nothing shares.
    for (JobSpec& spec : jobs) spec.defense.protect_seed.reset();
    const JobPlan unpinned = plan_jobs(jobs, 1);
    const auto leaders = result_leaders(unpinned, all_indices(unpinned));
    for (std::size_t pos = 0; pos < leaders.size(); ++pos)
        EXPECT_EQ(leaders[pos], pos);
}

TEST(ResultSharing, SharedCsvEqualsTheMergeOfPrivateShards) {
    const auto jobs = protect_seed_matrix();
    const CampaignResult shared = CampaignRunner(test_options(4)).run(jobs);
    ASSERT_EQ(shared.errored(), 0u);
    // Per circuit, camo and sarlock x {sat, double_dip}: 1 leader and 2
    // followers each.
    EXPECT_EQ(shared.shared, 16u);

    // Seeds are the innermost matrix axis, so each of 3 round-robin shards
    // holds one member of every result group and runs every job privately.
    const JobPlan plan = plan_jobs(jobs, CampaignOptions{}.campaign_seed);
    for (std::size_t s = 0; s < 3; ++s) {
        const auto mine = plan.shard_indices(ShardSpec{s, 3});
        const auto leaders = result_leaders(plan, mine);
        for (std::size_t pos = 0; pos < leaders.size(); ++pos)
            EXPECT_EQ(leaders[pos], pos) << "shard " << s;
    }
    ScratchDir scratch("sharing_private");
    const MergeReport merged =
        merge_journals(run_sharded(scratch, jobs, 3, 2));
    ASSERT_TRUE(merged.ok()) << merged.errors.front();
    EXPECT_EQ(campaign_csv(merged.result), campaign_csv(shared));
}

TEST(ResultSharing, FollowersCopyTheirLeaderAndQueryNothing) {
    const auto jobs = protect_seed_matrix();
    const CampaignResult run = CampaignRunner(test_options(3)).run(jobs);
    ASSERT_EQ(run.errored(), 0u);
    const JobPlan plan = plan_jobs(jobs, CampaignOptions{}.campaign_seed);
    const auto leaders = result_leaders(plan, all_indices(plan));

    std::size_t followers = 0;
    for (std::size_t i = 0; i < run.jobs.size(); ++i) {
        const JobResult& j = run.jobs[i];
        if (j.attack == "appsat" || j.defense.rfind("stochastic", 0) == 0) {
            // Seed-reading attacks and private instances run their own
            // attack against their own oracle client.
            EXPECT_EQ(leaders[i], i) << i;
            EXPECT_GT(j.oracle_cache.logical(), 0u) << i;
        }
        if (leaders[i] == i) continue;
        ++followers;
        const JobResult& leader = run.jobs[leaders[i]];
        EXPECT_TRUE(j.attack == "sat" || j.attack == "double_dip") << i;
        EXPECT_EQ(j.spec_seed, jobs[i].seed) << i;
        EXPECT_EQ(j.derived_seed, plan.jobs[i].derived_seed) << i;
        EXPECT_EQ(j.result.seconds, 0.0) << i;
        EXPECT_EQ(j.oracle_stats.seconds, 0.0) << i;
        EXPECT_EQ(j.oracle_cache.logical(), 0u) << i;
        EXPECT_EQ(j.oracle_unique, leader.oracle_unique) << i;
        // Every other field is the leader's: the journal record serializes
        // them all.
        EXPECT_EQ(checkpoint::encode_record(0, jobs[i], masked_follower(j, leader)),
                  checkpoint::encode_record(0, jobs[i], leader))
            << i;
    }
    EXPECT_EQ(followers, run.shared);
}

TEST(ResultSharing, JournalHoldsEveryJobAndResumesFromTheLeaders) {
    const auto jobs = protect_seed_matrix();
    ScratchDir scratch("sharing_resume");
    const std::string path = scratch.journal(0);
    const CampaignResult full =
        CampaignRunner(test_options(2, ShardSpec{}, path)).run(jobs);
    ASSERT_EQ(full.errored(), 0u);
    const std::string golden_csv = campaign_csv(full);
    const auto records = checkpoint::load_journal(path);
    ASSERT_EQ(records.size(), jobs.size()) << "one record per clean job";

    // Kill after every leader finished but before any follower was
    // journaled: the resumed run's lowest pending member of each result
    // group runs the attack again, and the CSV must not move.
    const JobPlan plan = plan_jobs(jobs, CampaignOptions{}.campaign_seed);
    const auto leaders = result_leaders(plan, all_indices(plan));
    std::vector<std::string> leader_lines;
    for (const auto& record : records)
        if (leaders[record.result.index] == record.result.index)
            leader_lines.push_back(record.line);
    scratch.write_lines(path, leader_lines);
    const CampaignResult resumed =
        CampaignRunner(test_options(2, ShardSpec{}, path)).run(jobs);
    EXPECT_EQ(resumed.resumed, jobs.size() - full.shared);
    EXPECT_EQ(resumed.shared, full.shared / 2);  // 2 pending per group: 1 copies
    EXPECT_EQ(campaign_csv(resumed), golden_csv);
    EXPECT_EQ(scratch.lines(path).size(), jobs.size()) << "journal healed";
}

TEST(ResultSharing, OneWorkerPerLeaderAndErrorsReachTheFollowers) {
    DefenseConfig camo;
    camo.protect_seed = 7;
    const auto jobs = CampaignRunner::cross_product(
        {"alpha", "nope"}, {camo}, {"sat"}, {1, 2, 3}, AttackOptions{});
    CampaignOptions options = test_options(8);
    options.netlist_provider = [](const std::string& name) {
        if (name != "alpha") throw std::runtime_error("no circuit " + name);
        return tiny_circuit(name);
    };
    std::vector<std::size_t> reported;
    options.on_job_done = [&](const JobResult& j) { reported.push_back(j.index); };
    const CampaignResult res = CampaignRunner(options).run(jobs);
    EXPECT_EQ(res.threads, 2);  // two attack runs, one per instance
    EXPECT_EQ(res.shared, 4u);
    for (const std::size_t i : {3u, 4u, 5u})
        EXPECT_NE(res.jobs[i].error.find("no circuit nope"), std::string::npos)
            << i;
    EXPECT_EQ(res.errored(), 3u);
    // Each leader is reported before its followers, which come right after.
    ASSERT_EQ(reported.size(), jobs.size());
    for (std::size_t k = 0; k < reported.size(); k += 3) {
        EXPECT_EQ(reported[k] % 3, 0u);
        EXPECT_EQ(reported[k + 1], reported[k] + 1);
        EXPECT_EQ(reported[k + 2], reported[k] + 2);
    }
}

/// The dynamic defense of Sec. V-C under one pinned gate selection: 2
/// circuits x dynamic x {sat, double_dip, appsat} x 3 seeds = 18 jobs,
/// each dynamic job with its own seeded re-keying oracle.
std::vector<JobSpec> dynamic_matrix(std::uint64_t rekey_interval,
                                    bool pinned = true) {
    DefenseConfig dynamic;
    dynamic.kind = "dynamic";
    dynamic.fraction = 0.10;
    dynamic.rekey_interval = rekey_interval;
    if (pinned) dynamic.protect_seed = 7;
    AttackOptions opt;
    opt.timeout_seconds = 600.0;  // generous: the deterministic budget binds
    opt.max_conflicts = 10000;
    return CampaignRunner::cross_product({"alpha", "beta"}, {dynamic},
                                         {"sat", "double_dip", "appsat"},
                                         {1, 2, 3}, opt);
}

/// The CSV of `jobs` run as 3 round-robin shards, merged: seeds are the
/// innermost axis, so every job attacks privately.
std::string private_csv(const std::vector<JobSpec>& jobs,
                        const std::string& name) {
    ScratchDir scratch(name);
    const MergeReport merged = merge_journals(run_sharded(scratch, jobs, 3, 1));
    EXPECT_TRUE(merged.ok()) << merged.errors.front();
    return campaign_csv(merged.result);
}

TEST(ResultSharing, EpochZeroLeadersAnswerTheirDynamicReplicates) {
    // Every sat/double_dip leader here finishes inside its first re-keying
    // interval, so on one worker each of its 2 queued followers copies it.
    const auto jobs = dynamic_matrix(64);
    const JobPlan plan = plan_jobs(jobs, CampaignOptions{}.campaign_seed);
    const auto leaders = result_leaders(plan, all_indices(plan));
    const CampaignResult run = CampaignRunner(test_options(1)).run(jobs);
    ASSERT_EQ(run.errored(), 0u);
    EXPECT_EQ(run.threads, 1);
    EXPECT_EQ(run.shared, 8u);  // 2 circuits x 2 attacks x 2 followers

    std::size_t followers = 0;
    for (std::size_t i = 0; i < run.jobs.size(); ++i) {
        const JobResult& j = run.jobs[i];
        if (leaders[i] == i) continue;
        ++followers;
        const JobResult& leader = run.jobs[leaders[i]];
        ASSERT_EQ(leader.oracle_epochs, 0u) << "leader " << leaders[i];
        EXPECT_TRUE(conditional_copy(plan.jobs[i])) << i;
        EXPECT_EQ(j.oracle_cache.logical(), 0u) << i << " queried nothing";
        // Its own private instance's group, not its leader's.
        EXPECT_EQ(j.oracle_group, i) << i;
        EXPECT_EQ(j.oracle_group_size, 1u) << i;
        JobResult masked = masked_follower(j, leader);
        masked.oracle_group = leader.oracle_group;
        EXPECT_EQ(checkpoint::encode_record(0, jobs[i], masked),
                  checkpoint::encode_record(0, jobs[i], leader))
            << i;
    }
    EXPECT_EQ(followers, run.shared);

    // Whichever followers idle workers start instead, the CSV is the one
    // of private runs.
    const std::string csv = private_csv(jobs, "sharing_dynamic");
    EXPECT_EQ(campaign_csv(run), csv);
    const CampaignResult wide = CampaignRunner(test_options(8)).run(jobs);
    EXPECT_EQ(wide.threads, 8);  // 10 runnable jobs, then 8 queued followers
    EXPECT_EQ(campaign_csv(wide), csv);
}

TEST(ResultSharing, LeadersThatCrossAnEpochLeaveTheirReplicatesToRun) {
    // Re-keying every 2 queries: each leader leaves epoch 0, so its
    // followers run their own attacks against their own seeded oracles.
    const auto jobs = dynamic_matrix(2);
    const JobPlan plan = plan_jobs(jobs, CampaignOptions{}.campaign_seed);
    const auto leaders = result_leaders(plan, all_indices(plan));
    const CampaignResult run = CampaignRunner(test_options(1)).run(jobs);
    ASSERT_EQ(run.errored(), 0u);
    EXPECT_EQ(run.shared, 0u);
    std::size_t followers = 0;
    for (std::size_t i = 0; i < run.jobs.size(); ++i) {
        if (leaders[i] == i) continue;
        ++followers;
        ASSERT_GT(run.jobs[leaders[i]].oracle_epochs, 0u) << leaders[i];
        EXPECT_GT(run.jobs[i].oracle_cache.logical(), 0u) << i;
        EXPECT_EQ(run.jobs[i].oracle_group, i) << i;
    }
    EXPECT_EQ(followers, 8u);
    EXPECT_EQ(campaign_csv(run), private_csv(jobs, "sharing_rekeyed"));
}

TEST(ResultSharing, UnpinnedOrSeedReadingDynamicJobsNeverFollow) {
    // Per-job gate selections are different netlists, and AppSAT draws its
    // samples from the seed: neither can reuse another job's run.
    const JobPlan unpinned =
        plan_jobs(dynamic_matrix(64, false), CampaignOptions{}.campaign_seed);
    const auto leaders = result_leaders(unpinned, all_indices(unpinned));
    for (std::size_t pos = 0; pos < leaders.size(); ++pos)
        EXPECT_EQ(leaders[pos], pos);

    const JobPlan pinned =
        plan_jobs(dynamic_matrix(64), CampaignOptions{}.campaign_seed);
    const auto pinned_leaders = result_leaders(pinned, all_indices(pinned));
    std::size_t followers = 0;
    for (std::size_t i = 0; i < pinned.size(); ++i) {
        if (pinned.jobs[i].spec.attack == "appsat") {
            EXPECT_EQ(pinned_leaders[i], i);
        }
        followers += pinned_leaders[i] != i;
    }
    EXPECT_EQ(followers, 8u);
}

// ---- the JSON report --------------------------------------------------------

TEST(CampaignReport, EachJobIsItsJournalResultObject) {
    // The report and the journal write a job through one function,
    // checkpoint::write_result(): a clean job's report element is the
    // "result" object of its journal line byte for byte, followers of a
    // shared attack run included. An errored job is reported with its
    // error and is not journaled.
    auto jobs = protect_seed_matrix();
    JobSpec unknown_attack = jobs.front();
    unknown_attack.attack = "no_such_attack";
    jobs.push_back(unknown_attack);
    const std::size_t errored = jobs.size() - 1;
    ScratchDir scratch("report_schema");
    const std::string path = scratch.journal(0);
    const CampaignResult run =
        CampaignRunner(test_options(2, ShardSpec{}, path)).run(jobs);
    ASSERT_GT(run.shared, 0u);
    ASSERT_EQ(run.errored(), 1u);
    ASSERT_FALSE(run.jobs[errored].error.empty());

    const std::string result_key = ",\"result\":";
    std::vector<std::string> journaled(jobs.size());
    for (const auto& record : checkpoint::load_journal(path)) {
        const std::size_t at = record.line.rfind(result_key) + result_key.size();
        // The result object is the record's last field.
        journaled.at(record.result.index) =
            record.line.substr(at, record.line.size() - at - 1);
    }
    EXPECT_TRUE(journaled[errored].empty()) << "errored jobs are not journaled";

    const std::string report = campaign_json(run);
    const std::string head = "\"jobs\":[";
    std::size_t pos = report.find(head);
    ASSERT_NE(pos, std::string::npos);
    pos += head.size();
    for (std::size_t i = 0; i < errored; ++i) {
        ASSERT_FALSE(journaled[i].empty()) << i;
        ASSERT_EQ(report.compare(pos, journaled[i].size(), journaled[i]), 0)
            << i;
        pos += journaled[i].size();
        ASSERT_EQ(report[pos], ',') << i;
        ++pos;
    }
    // The errored job is the last element, and the journal's reader decodes
    // it: the error, beside a default attack result.
    const std::string tail = "]}\n";
    ASSERT_EQ(report.compare(report.size() - tail.size(), tail.size(), tail), 0);
    const std::string element =
        report.substr(pos, report.size() - tail.size() - pos);
    const auto decoded = checkpoint::decode_record(
        "{\"v\":" + std::to_string(checkpoint::kJournalVersion) +
        ",\"key\":0,\"spec\":{},\"result\":" + element + "}");
    ASSERT_TRUE(decoded.has_value()) << element;
    EXPECT_EQ(decoded->result.index, errored);
    EXPECT_EQ(decoded->result.error, run.jobs[errored].error);
    EXPECT_EQ(decoded->result.result.status, attack::AttackResult{}.status);
}

}  // namespace
}  // namespace gshe::engine

// Tests for the benchmark's own arithmetic (metrics.hpp). Build and run:
//   cmake --build .bench_build/perfbench --target perfbench_tests
//   .bench_build/perfbench/perfbench_tests
#include <gtest/gtest.h>

#include "metrics.hpp"

using gshe::attack::AttackResult;
using gshe::engine::JobResult;
using perfbench::Outcome;

namespace {

JobResult job(const std::string& attack, AttackResult::Status status,
              const std::string& contract, bool key_exact) {
    JobResult j;
    j.circuit = "c7552";
    j.defense = "camo:gshe16@5%";
    j.attack = attack;
    j.oracle_contract = contract;
    j.result.status = status;
    j.result.key_exact = key_exact;
    return j;
}

}  // namespace

TEST(Classify, VerdictsBudgetAndErrors) {
    using S = AttackResult::Status;
    EXPECT_EQ(perfbench::classify(job("sat", S::Success, "deterministic", true)),
              Outcome::Success);
    EXPECT_EQ(perfbench::classify(job("sat", S::Inconsistent, "non_cacheable", false)),
              Outcome::Inconsistent);
    EXPECT_EQ(perfbench::classify(job("double_dip", S::TimedOut, "deterministic", false)),
              Outcome::TimedOut);
    EXPECT_EQ(perfbench::classify(job("sat", S::IterationCap, "deterministic", false)),
              Outcome::TimedOut);
    JobResult errored = job("sat", S::Success, "deterministic", true);
    errored.error = "unknown circuit";
    EXPECT_EQ(perfbench::classify(errored), Outcome::Error);
}

TEST(Classify, WrongKeyOnlyForExactAttacksOnDeterministicOracles) {
    using S = AttackResult::Status;
    EXPECT_EQ(perfbench::classify(job("sat", S::Success, "deterministic", false)),
              Outcome::WrongKey);
    EXPECT_EQ(perfbench::classify(job("double_dip", S::Success, "deterministic", false)),
              Outcome::WrongKey);
    // AppSAT settles for an approximate key by design.
    EXPECT_EQ(perfbench::classify(job("appsat", S::Success, "deterministic", false)),
              Outcome::Success);
    // Noisy and re-keyed chips may steer an exact attack to another key.
    EXPECT_EQ(perfbench::classify(job("sat", S::Success, "non_cacheable", false)),
              Outcome::Success);
    EXPECT_EQ(perfbench::classify(job("sat", S::Success, "epoch_keyed", false)),
              Outcome::Success);
}

TEST(Classify, ResolvedAndFailedShares) {
    EXPECT_TRUE(perfbench::is_resolved(Outcome::Success));
    EXPECT_TRUE(perfbench::is_resolved(Outcome::Inconsistent));
    EXPECT_FALSE(perfbench::is_resolved(Outcome::TimedOut));
    EXPECT_FALSE(perfbench::is_failed(Outcome::TimedOut));  // a budget outcome
    EXPECT_TRUE(perfbench::is_failed(Outcome::Error));
    EXPECT_TRUE(perfbench::is_failed(Outcome::WrongKey));
    EXPECT_FALSE(perfbench::is_resolved(Outcome::WrongKey));
}

TEST(Percentile, TailNeedsTenSamplesBeyondIt) {
    // The workloads' job counts per campaign: 3, 24 and 96.
    EXPECT_FALSE(perfbench::tail_percentile(3).has_value());
    EXPECT_FALSE(perfbench::tail_percentile(24).has_value());
    EXPECT_FALSE(perfbench::tail_percentile(99).has_value());
    EXPECT_DOUBLE_EQ(*perfbench::tail_percentile(100), 0.9);
    EXPECT_DOUBLE_EQ(*perfbench::tail_percentile(999), 0.9);
    EXPECT_DOUBLE_EQ(*perfbench::tail_percentile(1000), 0.99);
    EXPECT_DOUBLE_EQ(*perfbench::tail_percentile(10000), 0.999);
}

TEST(Percentile, MedianAndQuantileInterpolate) {
    EXPECT_DOUBLE_EQ(perfbench::median({3.0, 1.0, 2.0}), 2.0);
    EXPECT_DOUBLE_EQ(perfbench::median({4.0, 1.0, 2.0, 3.0}), 2.5);
    EXPECT_DOUBLE_EQ(perfbench::quantile({0.0, 10.0}, 0.9), 9.0);
    EXPECT_DOUBLE_EQ(perfbench::median({7.0}), 7.0);
    EXPECT_THROW(perfbench::median({}), std::invalid_argument);
}

TEST(Percentile, GeometricMean) {
    EXPECT_NEAR(perfbench::geometric_mean({1.0, 4.0}), 2.0, 1e-12);
    EXPECT_NEAR(perfbench::geometric_mean({0.5, 0.5, 0.5}), 0.5, 1e-12);
    EXPECT_THROW(perfbench::geometric_mean({}), std::invalid_argument);

    // 96 job times in two clusters: one job crossing the gap at the median
    // moves the sample median by half the gap, the geometric mean by a
    // ninety-sixth of the log ratio.
    std::vector<double> even(48, 1.0), shifted(47, 1.0);
    even.resize(96, 2.0);
    shifted.resize(96, 2.0);
    EXPECT_DOUBLE_EQ(perfbench::median(shifted) - perfbench::median(even), 0.5);
    EXPECT_NEAR(perfbench::geometric_mean(shifted) / perfbench::geometric_mean(even),
                std::pow(2.0, 1.0 / 96.0), 1e-12);
}

TEST(EngineArithmetic, IdleAndOverhead) {
    // 3 workers for 10 s, 24 s inside jobs: 6 s idle.
    EXPECT_DOUBLE_EQ(perfbench::worker_idle_s(3, 10.0, 24.0), 6.0);
    EXPECT_DOUBLE_EQ(perfbench::worker_idle_s(1, 5.0, 5.0), 0.0);

    std::vector<JobResult> jobs(2);
    jobs[0].job_seconds = 2.0;
    jobs[0].result.seconds = 1.5;
    jobs[1].job_seconds = 1.0;
    jobs[1].result.seconds = 0.75;
    EXPECT_DOUBLE_EQ(perfbench::job_overhead_s(jobs), 0.75);
    EXPECT_DOUBLE_EQ(perfbench::job_overhead_s({}), 0.0);
}

TEST(Digest, IgnoresTimingAndCompletionOrder) {
    using S = AttackResult::Status;
    std::vector<JobResult> a = {job("sat", S::Success, "deterministic", true),
                                job("double_dip", S::TimedOut, "deterministic", false)};
    a[0].index = 0;
    a[1].index = 1;
    const std::uint64_t base =
        perfbench::csv_digest(gshe::engine::aggregate_results(a, 1, 1.0));
    EXPECT_EQ(base, perfbench::csv_digest(gshe::engine::aggregate_results(a, 1, 1.0)));

    // Wall-clock fields and completion order do not enter the digest.
    std::vector<JobResult> b = {a[1], a[0]};
    b[0].job_seconds = 9.0;
    b[1].result.seconds = 4.0;
    b[1].oracle_stats.seconds = 0.5;
    EXPECT_EQ(base, perfbench::csv_digest(gshe::engine::aggregate_results(b, 3, 7.0)));

    // A deterministic field does.
    a[1].result.solver_stats.conflicts = 50176;
    EXPECT_NE(base, perfbench::csv_digest(gshe::engine::aggregate_results(a, 1, 1.0)));
}

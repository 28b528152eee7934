#pragma once
// The benchmark's own arithmetic, kept apart from the measuring harness so
// test_perfbench.cpp can check it without running a campaign: outcome
// classification, quantiles, the geometric mean and the percentile a
// sample count supports, the engine idle and overhead sums, and the deterministic-CSV
// digest.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/hash.hpp"
#include "engine/campaign.hpp"
#include "engine/report.hpp"

namespace perfbench {

/// How one job ended, from the user's point of view.
enum class Outcome {
    Success,       ///< attack converged on a key
    Inconsistent,  ///< verdict: no key matches the oracle (stochastic regime)
    TimedOut,      ///< conflict budget or iteration cap reached: not a failure
    Error,         ///< the job threw
    WrongKey,      ///< exact attack on a deterministic oracle, non-exact key
};

inline const char* outcome_name(Outcome o) {
    switch (o) {
        case Outcome::Success: return "success";
        case Outcome::Inconsistent: return "inconsistent";
        case Outcome::TimedOut: return "t-o";
        case Outcome::Error: return "error";
        case Outcome::WrongKey: return "wrong-key";
    }
    return "?";
}

/// The attacks that claim an exact key when they succeed. AppSAT settles
/// for an approximate key by design, so a non-exact AppSAT key is no error.
inline bool is_exact_attack(const std::string& attack) {
    return attack == "sat" || attack == "double_dip";
}

inline Outcome classify(const gshe::engine::JobResult& job) {
    using Status = gshe::attack::AttackResult::Status;
    if (!job.error.empty()) return Outcome::Error;
    switch (job.result.status) {
        case Status::Success:
            // Only a deterministic oracle promises that the true key is the
            // one consistent answer; a stochastic or re-keyed chip may
            // legitimately steer an exact attack to another key.
            if (is_exact_attack(job.attack) &&
                job.oracle_contract == "deterministic" &&
                !job.result.key_exact)
                return Outcome::WrongKey;
            return Outcome::Success;
        case Status::Inconsistent: return Outcome::Inconsistent;
        case Status::TimedOut:
        case Status::IterationCap: return Outcome::TimedOut;
    }
    return Outcome::Error;
}

inline bool is_resolved(Outcome o) {
    return o == Outcome::Success || o == Outcome::Inconsistent;
}
inline bool is_failed(Outcome o) {
    return o == Outcome::Error || o == Outcome::WrongKey;
}

/// Linear-interpolated quantile (q in [0, 1]) of a non-empty sample.
inline double quantile(std::vector<double> v, double q) {
    if (v.empty()) throw std::invalid_argument("quantile of an empty sample");
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// Geometric mean of a non-empty sample of positive times: the typical job
/// time, with every job weighted alike on a log scale.
inline double geometric_mean(const std::vector<double>& v) {
    if (v.empty()) throw std::invalid_argument("geometric mean of an empty sample");
    double log_sum = 0.0;
    for (const double x : v) log_sum += std::log(std::max(x, 1e-12));
    return std::exp(log_sum / static_cast<double>(v.size()));
}

/// The highest tail percentile a timing sample of size n can report: the
/// largest of p90/p99/p999 with at least ten samples beyond it. None when
/// even p90 has fewer, in which case only the median is printed.
inline std::optional<double> tail_percentile(std::size_t n) {
    std::optional<double> best;
    for (const double p : {0.9, 0.99, 0.999})
        if (static_cast<double>(n) * (1.0 - p) >= 10.0 - 1e-9) best = p;
    return best;
}

/// Worker time not spent inside a job: threads x wall - sum of job times.
/// A 1-thread campaign has only scheduling gaps here.
inline double worker_idle_s(int threads, double wall_s, double job_sum_s) {
    return static_cast<double>(threads) * wall_s - job_sum_s;
}

/// Job time outside the attack itself (netlist and defense builds, plan
/// cache prewarm, oracle service set-up): sum of job - attack seconds.
inline double job_overhead_s(const std::vector<gshe::engine::JobResult>& jobs) {
    double overhead = 0.0;
    for (const auto& j : jobs) overhead += j.job_seconds - j.result.seconds;
    return overhead;
}

/// FNV-1a of the campaign's deterministic CSV (no timing columns): equal
/// for any two runs that produced the same per-job results.
inline std::uint64_t csv_digest(const gshe::engine::CampaignResult& result) {
    return gshe::fnv1a(gshe::engine::campaign_csv(result, false));
}

}  // namespace perfbench

#pragma once
// Common result/option types for the oracle-guided attacks.

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "camo/key.hpp"
#include "sat/encoder.hpp"
#include "sat/solver.hpp"

namespace gshe::attack {

struct AttackOptions {
    /// Wall-clock budget for the whole attack; exceeded => Status::TimedOut
    /// (the "t-o" cells of Table IV, scaled from the paper's 48 h).
    double timeout_seconds = 60.0;
    /// Deterministic resource cap: maximum cumulative solver conflicts per
    /// miter solver. Key extraction runs on the miter's own solver and so
    /// shares its allowance; only Double DIP's 2-DIP miter and the single-DIP
    /// miter it hands over to get one each. Exhaustion reports
    /// Status::TimedOut like the wall clock, but — unlike the wall clock —
    /// identically on every machine, load level and thread count; the
    /// campaign engine budgets with this so "t-o" cells reproduce
    /// bit-for-bit.
    std::uint64_t max_conflicts = std::numeric_limits<std::uint64_t>::max();
    /// Hard cap on DIP iterations (safety net; effectively unbounded).
    std::size_t max_iterations = 1u << 20;
    /// Seed for attack-internal randomness (AppSAT's reinforcement
    /// sampling); the campaign engine overrides it with the derived
    /// per-job seed so seed-replicated jobs are independent. The exact
    /// attacks ignore it (Attack::reads_seed).
    std::uint64_t seed = 0xa99;
    /// Random patterns used for the a-posteriori key check.
    std::size_t verify_patterns = 1 << 12;
    std::uint64_t verify_seed = 0xbeefcafe;
    /// AppSAT settlement threshold (AppSatOptions::error_threshold) when the
    /// attack is launched through the registry — the only AppSAT knob job
    /// matrices need (Sec. V-B runs AppSAT at a PAC tolerance). Ignored by
    /// the exact attacks.
    double appsat_error_threshold = 0.0;

    bool operator==(const AttackOptions&) const = default;
};

struct AttackResult {
    enum class Status {
        Success,       ///< loop converged; a key consistent with all queries
        TimedOut,      ///< budget exhausted (paper: "t-o")
        Inconsistent,  ///< no key matches the oracle answers (stochastic oracle)
        IterationCap,  ///< max_iterations hit
    };

    Status status = Status::TimedOut;
    camo::Key key;                 ///< recovered key (valid for Success)
    std::size_t iterations = 0;    ///< distinguishing inputs used
    double seconds = 0.0;
    std::uint64_t oracle_patterns = 0;
    /// Post-hoc validation against the defender's ground truth: fraction of
    /// verify_patterns on which the recovered key's circuit differs from the
    /// true functionality (0.0 = exact on the sample).
    double key_error_rate = 1.0;
    bool key_exact = false;  ///< error rate was 0 on the sample
    /// Solver work, summed over every solver the attack used (Double DIP
    /// runs two miters, each under its own conflict cap).
    sat::SolverStats solver_stats;
    /// CNF-emission telemetry, summed over every encoder the attack used
    /// (Double DIP runs two miters). Telemetry only: rides the JSON report
    /// and journal, never the deterministic CSV.
    sat::EncoderStats encoder_stats;
    /// Key extractions answered by an assumption solve on the live miter
    /// solver (one when the miter goes Unsat, plus one per AppSAT
    /// settlement). Deterministic, but JSON/journal only like encoder_stats.
    std::uint64_t inplace_extractions = 0;

    bool timed_out() const { return status == Status::TimedOut; }
    static std::string status_name(Status s);
    /// Inverse of status_name; std::nullopt for unrecognized strings (the
    /// checkpoint journal decoder treats those as corrupt records).
    static std::optional<Status> status_from_name(const std::string& name);
};

}  // namespace gshe::attack

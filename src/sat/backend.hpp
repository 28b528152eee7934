#pragma once
// The SAT-solver interface.
//
// Every SAT consumer in the repo — the oracle-guided attacks, the
// equivalence checker, the CNF encoder — programs against the abstract
// SolverBackend interface below. Its one implementation is the in-tree
// incremental CDCL solver of sat/solver.hpp (MiniSat architecture,
// deterministic), so every campaign runs one solver whose conflict budget
// makes each "t-o" cell of the paper's Table IV reproducible.
//
// The result, budget and stat types live here rather than on sat::Solver,
// so this header depends only on sat/types.hpp; each has this one name.
// The solver has no options: its heuristic constants (VSIDS decays, Luby
// restarts of base 128, learnt-DB reduction from 4096 learnt clauses, glue
// LBD 2, chronological backtracking past 100 levels) are fixed in
// sat/solver.hpp.

#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "sat/types.hpp"

namespace gshe::sat {

/// Outcome of a solve call. Unknown = a resource budget ran out first
/// (the "t-o" semantics of the paper's Table IV).
enum class SolveResult { Sat, Unsat, Unknown };

/// Resource budget. The conflict cap is cumulative over the solver's
/// lifetime (matching the deterministic AttackOptions::max_conflicts
/// contract); wall clock is per solve call.
struct SolverBudget {
    double max_seconds = std::numeric_limits<double>::infinity();
    std::uint64_t max_conflicts = std::numeric_limits<std::uint64_t>::max();
};

/// Cumulative solver work counters.
struct SolverStats {
    std::uint64_t decisions = 0;
    std::uint64_t propagations = 0;
    std::uint64_t conflicts = 0;
    std::uint64_t restarts = 0;
    std::uint64_t learnt_clauses = 0;
    std::uint64_t removed_clauses = 0;
    /// Learnt clauses asserted one level down instead of at the end of a
    /// backjump over more than Solver::kChronoLevels levels.
    std::uint64_t chrono_backtracks = 0;
    std::uint64_t gc_runs = 0;  ///< clause-arena compactions
};

/// Abstract incremental SAT solver: problem construction,
/// solve-with-assumptions, model access, budget and stats.
class SolverBackend {
public:
    virtual ~SolverBackend() = default;

    // ---- problem construction ----------------------------------------------
    virtual Var new_var() = 0;
    virtual int num_vars() const = 0;

    /// Adds the clause over `lits`, which the solver copies: a caller may
    /// pass a reused buffer, a Clause or a stack array without allocating
    /// (the pointer-and-length form of cmsat_add_clause). Returns false
    /// once the formula is known unsatisfiable at the root level.
    virtual bool add_clause(std::span<const Lit> lits) = 0;
    bool add_clause(Lit a) {
        const Lit lits[] = {a};
        return add_clause(std::span<const Lit>(lits));
    }
    bool add_clause(Lit a, Lit b) {
        const Lit lits[] = {a, b};
        return add_clause(std::span<const Lit>(lits));
    }
    bool add_clause(Lit a, Lit b, Lit c) {
        const Lit lits[] = {a, b, c};
        return add_clause(std::span<const Lit>(lits));
    }

    virtual std::size_t num_clauses() const = 0;

    // ---- solving -----------------------------------------------------------
    virtual SolveResult solve(const std::vector<Lit>& assumptions) = 0;
    SolveResult solve() { return solve({}); }

    /// Model value after SolveResult::Sat (Undef for never-assigned vars).
    virtual LBool model_value(Var v) const = 0;
    bool model_bool(Var v) const { return model_value(v) == LBool::True; }

    // ---- budget / stats ----------------------------------------------------
    virtual void set_budget(const SolverBudget& b) = 0;
    /// Convenience used by the attack loops: remaining wall clock plus the
    /// deterministic cumulative-conflict cap, in one call (the one budget
    /// helper every attack shares).
    void set_budget(double remaining_seconds, std::uint64_t max_conflicts) {
        SolverBudget b;
        b.max_seconds = remaining_seconds;
        b.max_conflicts = max_conflicts;
        set_budget(b);
    }

    virtual const SolverStats& stats() const = 0;
};

/// Creates the solver named `name`. "internal" (the CDCL solver of
/// sat/solver.hpp) is the only name; any other throws
/// std::invalid_argument.
std::unique_ptr<SolverBackend> make_backend(const std::string& name);

}  // namespace gshe::sat

#pragma once
// Internal plumbing shared by the oracle-guided attacks (sat_attack,
// double_dip, appsat). Not part of the stable public API.
//
// The single-DIP refinement loop lives here: sat_attack *is* this loop, and
// Double DIP falls back to it (seeded with its phase-1 observations) once no
// 2-DIP remains. Both budget dimensions — wall clock and the deterministic
// cumulative-conflict cap of AttackOptions::max_conflicts — are applied on
// every solve through the one shared budget helper. Every miter runs on the
// in-tree CDCL sat::Solver configured by AttackOptions::solver.

#include <optional>
#include <vector>

#include "attack/attack_result.hpp"
#include "attack/oracle.hpp"
#include "camo/key.hpp"
#include "common/timer.hpp"
#include "netlist/netlist.hpp"
#include "sat/backend.hpp"
#include "sat/encoder.hpp"

namespace gshe::attack::detail {

/// Recorded oracle I/O observations.
struct History {
    std::vector<std::vector<bool>> inputs;
    std::vector<std::vector<bool>> outputs;

    std::size_t size() const { return inputs.size(); }
    /// True when the exact pair is already recorded. The same input with a
    /// *different* output is not a duplicate — a stochastic oracle answering
    /// inconsistently is an observation the attacks must keep.
    bool contains(const std::vector<bool>& x, const std::vector<bool>& y) const {
        for (std::size_t i = 0; i < inputs.size(); ++i)
            if (inputs[i] == x && outputs[i] == y) return true;
        return false;
    }
    /// Records the pair unless it is an exact duplicate (AppSAT's random
    /// reinforcement can re-draw a pattern across settlement rounds, which
    /// would add identical agreement CNF to the miter again). Returns
    /// whether the pair was new.
    bool add(std::vector<bool> x, std::vector<bool> y) {
        if (contains(x, y)) return false;
        inputs.push_back(std::move(x));
        outputs.push_back(std::move(y));
        return true;
    }
};

/// The result of attacking a netlist with nothing camouflaged: the empty
/// key is exact, found without solving or querying the oracle. Every
/// attack returns it before building a miter.
AttackResult uncamouflaged_result(const Timer& timer);

/// The per-solve budget every attack applies: the wall-clock remainder of
/// the attack's timeout plus the deterministic conflict cap. This is the
/// single point where AttackOptions turns into a sat::SolverBudget — the
/// attacks contain no ad-hoc budget math.
void set_remaining_budget(sat::SolverBackend& solver,
                          const AttackOptions& options, const Timer& timer);

/// Reads the model values of `vars` from a SAT backend.
std::vector<bool> model_values(const sat::SolverBackend& solver,
                               const std::vector<sat::Var>& vars);

/// Key extraction on the live miter solver: solves under {~guard} — which
/// relaxes the guarded difference constraint while every agreement, learned
/// clause and inprocessing fact persists — and reads the model of `keys` as
/// a key consistent with every recorded observation. The solve shares the
/// miter solver's cumulative conflict allowance. Returns std::nullopt on
/// inconsistency or timeout; `timed_out` tells the two apart (the budget —
/// wall clock or `max_conflicts` — ran out first). Counts the extraction
/// into `res`.
std::optional<camo::Key> extract_inplace(sat::SolverBackend& solver,
                                         const std::vector<sat::Var>& keys,
                                         sat::Lit guard,
                                         const AttackOptions& options,
                                         const Timer& timer, bool& timed_out,
                                         AttackResult& res);

/// Finishes an Unsat miter for run_single_dip_loop and appsat_attack:
/// extracts a key on `solver` under {~guard} and sets res.status / res.key.
void finish_by_extraction(AttackResult& res, const AttackOptions& options,
                          const Timer& timer, sat::SolverBackend& solver,
                          const std::vector<sat::Var>& keys, sat::Lit guard);

/// Runs the classic single-DIP refinement loop to completion: build the
/// two-copy miter with its output difference behind a selector literal d,
/// replay `history` as agreement constraints, then iterate solve under {d}
/// → oracle query → constrain until UNSAT (key extraction under {~d} on the
/// same solver follows) or a budget runs out. New observations are appended
/// to `history`; `prior_iterations` seeds the iteration counter (Double
/// DIP's phase 1).
/// The returned result has status, key, iterations and solver_stats set —
/// callers finish it with finalize_result().
AttackResult run_single_dip_loop(const netlist::Netlist& camo_nl,
                                 Oracle& oracle, const AttackOptions& options,
                                 const Timer& timer, History& history,
                                 std::size_t prior_iterations);

/// Fills the post-run fields common to every attack: wall time, oracle cost,
/// and — on Success — the a-posteriori key check against the defender's
/// ground truth.
void finalize_result(AttackResult& res, const netlist::Netlist& nl,
                     const Oracle& oracle, const AttackOptions& options,
                     const Timer& timer);

}  // namespace gshe::attack::detail

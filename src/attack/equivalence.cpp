#include "attack/equivalence.hpp"

#include <stdexcept>

#include "attack/miter_detail.hpp"
#include "sat/encoder.hpp"
#include "sat/solver.hpp"

namespace gshe::attack {
namespace {

EquivResult run_miter(sat::SolverBackend& solver, sat::CircuitEncoder& enc,
                      const std::vector<sat::Var>& pis,
                      const std::vector<sat::Lit>& outs_a,
                      const std::vector<sat::Lit>& outs_b,
                      double timeout_seconds) {
    enc.add_difference(outs_a, outs_b);
    sat::SolverBudget budget;
    budget.max_seconds = timeout_seconds;
    solver.set_budget(budget);

    EquivResult res;
    switch (solver.solve()) {
        case sat::SolveResult::Unsat:
            res.status = EquivStatus::Equivalent;
            break;
        case sat::SolveResult::Sat:
            res.status = EquivStatus::Different;
            res.counterexample = detail::model_values(solver, pis);
            break;
        case sat::SolveResult::Unknown:
            res.status = EquivStatus::Unknown;
            break;
    }
    return res;
}

}  // namespace

EquivResult check_equivalence(const netlist::Netlist& a,
                              const netlist::Netlist& b,
                              double timeout_seconds) {
    if (a.inputs().size() != b.inputs().size() ||
        a.outputs().size() != b.outputs().size())
        throw std::invalid_argument("check_equivalence: interface mismatch");
    if (!a.camo_cells().empty() || !b.camo_cells().empty())
        throw std::invalid_argument(
            "check_equivalence: camouflaged netlists need a key "
            "(use check_key_equivalence)");

    sat::Solver solver;
    sat::CircuitEncoder enc(solver);
    const auto enc_a = enc.encode(a);
    const auto enc_b = enc.encode(b, enc_a.pis);
    return run_miter(solver, enc, enc_a.pis, enc_a.outs, enc_b.outs,
                     timeout_seconds);
}

EquivResult check_key_equivalence(const netlist::Netlist& camo_nl,
                                  const camo::Key& key,
                                  double timeout_seconds) {
    if (key.bits.size() != static_cast<std::size_t>(camo_nl.key_bit_count()))
        throw std::invalid_argument("check_key_equivalence: key size mismatch");

    sat::Solver solver;
    sat::CircuitEncoder enc(solver);
    // Copy A: key variables pinned to the candidate key.
    const auto enc_a = enc.encode(camo_nl);
    for (std::size_t i = 0; i < enc_a.keys.size(); ++i)
        solver.add_clause(sat::Lit(enc_a.keys[i], !key.bits[i]));
    // Copy B: key variables pinned to the true key (ground truth).
    const camo::Key truth = camo::true_key(camo_nl);
    const auto enc_b = enc.encode(camo_nl, enc_a.pis);
    for (std::size_t i = 0; i < enc_b.keys.size(); ++i)
        solver.add_clause(sat::Lit(enc_b.keys[i], !truth.bits[i]));

    return run_miter(solver, enc, enc_a.pis, enc_a.outs, enc_b.outs,
                     timeout_seconds);
}

}  // namespace gshe::attack

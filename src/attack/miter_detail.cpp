#include "attack/miter_detail.hpp"

#include "attack/sat_attack.hpp"

namespace gshe::attack::detail {

AttackResult uncamouflaged_result(const Timer& timer) {
    AttackResult res;
    res.status = AttackResult::Status::Success;
    res.seconds = timer.seconds();
    res.key_error_rate = 0.0;
    res.key_exact = true;
    return res;
}

void set_remaining_budget(sat::SolverBackend& solver,
                          const AttackOptions& options, const Timer& timer) {
    solver.set_budget(options.timeout_seconds - timer.seconds(),
                      options.max_conflicts);
}

std::vector<bool> model_values(const sat::SolverBackend& solver,
                               const std::vector<sat::Var>& vars) {
    std::vector<bool> out(vars.size());
    for (std::size_t i = 0; i < vars.size(); ++i)
        out[i] = solver.model_bool(vars[i]);
    return out;
}

std::optional<camo::Key> extract_inplace(sat::SolverBackend& solver,
                                         const std::vector<sat::Var>& keys,
                                         sat::Lit guard,
                                         const AttackOptions& options,
                                         const Timer& timer, bool& timed_out,
                                         AttackResult& res) {
    timed_out = false;
    ++res.inplace_extractions;

    set_remaining_budget(solver, options, timer);
    switch (solver.solve({~guard})) {
        case sat::SolveResult::Sat: {
            camo::Key key;
            key.bits = model_values(solver, keys);
            return key;
        }
        case sat::SolveResult::Unsat:
            return std::nullopt;
        case sat::SolveResult::Unknown:
            timed_out = true;
            return std::nullopt;
    }
    return std::nullopt;
}

void finish_by_extraction(AttackResult& res, const AttackOptions& options,
                          const Timer& timer, sat::SolverBackend& solver,
                          const std::vector<sat::Var>& keys, sat::Lit guard) {
    bool timed_out = false;
    const std::optional<camo::Key> key =
        extract_inplace(solver, keys, guard, options, timer, timed_out, res);
    if (key) {
        res.status = AttackResult::Status::Success;
        res.key = *key;
    } else {
        res.status = timed_out ? AttackResult::Status::TimedOut
                               : AttackResult::Status::Inconsistent;
    }
}

AttackResult run_single_dip_loop(const netlist::Netlist& camo_nl,
                                 Oracle& oracle, const AttackOptions& options,
                                 const Timer& timer, History& history,
                                 std::size_t prior_iterations) {
    AttackResult res;
    res.iterations = prior_iterations;

    sat::Solver solver;
    sat::CircuitEncoder encoder(solver);
    const auto enc1 = encoder.encode(camo_nl);
    const auto enc2 = encoder.encode(camo_nl, enc1.pis);
    // The difference rides a selector literal, so the one solver serves
    // both faces of the attack: DIP solves assume {guard}, key extraction
    // assumes {~guard}.
    const sat::Lit guard(solver.new_var(), false);
    encoder.add_difference(enc1.outs, enc2.outs, guard);
    encoder.add_agreements(camo_nl, {enc1.keys, enc2.keys}, history.inputs,
                           history.outputs);

    while (true) {
        if (res.iterations >= options.max_iterations) {
            res.status = AttackResult::Status::IterationCap;
            break;
        }
        if (options.timeout_seconds - timer.seconds() <= 0.0) {
            res.status = AttackResult::Status::TimedOut;
            break;
        }
        set_remaining_budget(solver, options, timer);

        const auto r = solver.solve({guard});
        if (r == sat::SolveResult::Unknown) {
            res.status = AttackResult::Status::TimedOut;
            break;
        }
        if (r == sat::SolveResult::Unsat) {
            // No distinguishing input remains: extract any consistent key.
            finish_by_extraction(res, options, timer, solver, enc1.keys, guard);
            break;
        }

        // A DIP was found: query the oracle and pin both key copies to it.
        ++res.iterations;
        std::vector<bool> dip = model_values(solver, enc1.pis);
        std::vector<bool> response = oracle.query_single(dip);
        encoder.add_agreements(camo_nl, {enc1.keys, enc2.keys}, {dip},
                               {response});
        history.add(std::move(dip), std::move(response));
    }

    res.solver_stats = solver.stats();
    sat::accumulate(res.encoder_stats, encoder.stats());
    return res;
}

void finalize_result(AttackResult& res, const netlist::Netlist& nl,
                     const Oracle& oracle, const AttackOptions& options,
                     const Timer& timer) {
    res.seconds = timer.seconds();
    res.oracle_patterns = oracle.patterns_queried();
    if (res.status == AttackResult::Status::Success) {
        res.key_error_rate = key_error_rate(nl, res.key, options.verify_patterns,
                                            options.verify_seed);
        res.key_exact = res.key_error_rate == 0.0;
    }
}

}  // namespace gshe::attack::detail

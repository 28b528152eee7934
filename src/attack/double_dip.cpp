#include "attack/double_dip.hpp"

#include "attack/miter_detail.hpp"
#include "attack/sat_attack.hpp"
#include "common/timer.hpp"

namespace gshe::attack {

using detail::History;

AttackResult double_dip_attack(const netlist::Netlist& camo_nl, Oracle& oracle,
                               const AttackOptions& options) {
    Timer timer;
    if (camo_nl.camo_cells().empty()) return detail::uncamouflaged_result(timer);

    // Phase 1: 2-DIP miter. Four circuit copies share the inputs; pairs
    // (k1,k2) and (k3,k4) each disagree; all cross pairs are distinct keys.
    sat::Solver solver(options.solver);
    sat::CircuitEncoder encoder(solver);
    const auto enc1 = encoder.encode(camo_nl);
    const auto enc2 = encoder.encode(camo_nl, enc1.pis);
    const auto enc3 = encoder.encode(camo_nl, enc1.pis);
    const auto enc4 = encoder.encode(camo_nl, enc1.pis);
    encoder.add_difference(enc1.outs, enc2.outs);
    encoder.add_difference(enc3.outs, enc4.outs);
    encoder.add_difference(enc1.keys, enc3.keys);
    encoder.add_difference(enc1.keys, enc4.keys);
    encoder.add_difference(enc2.keys, enc3.keys);
    encoder.add_difference(enc2.keys, enc4.keys);

    AttackResult res;
    History history;
    bool two_dips_exhausted = false;
    while (true) {
        if (res.iterations >= options.max_iterations) {
            res.status = AttackResult::Status::IterationCap;
            break;
        }
        if (options.timeout_seconds - timer.seconds() <= 0.0) {
            res.status = AttackResult::Status::TimedOut;
            break;
        }
        detail::set_remaining_budget(solver, options, timer);

        const auto r = solver.solve();
        if (r == sat::SolveResult::Unknown) {
            res.status = AttackResult::Status::TimedOut;
            break;
        }
        if (r == sat::SolveResult::Unsat) {  // no 2-DIP remains
            two_dips_exhausted = true;
            break;
        }

        ++res.iterations;
        std::vector<bool> dip = detail::model_values(solver, enc1.pis);
        std::vector<bool> response = oracle.query_single(dip);
        // One call pins all four key copies, sharing one simulation sweep.
        encoder.add_agreements(camo_nl,
                               {enc1.keys, enc2.keys, enc3.keys, enc4.keys},
                               {dip}, {response});
        history.add(std::move(dip), std::move(response));
    }

    if (two_dips_exhausted) {
        // Phase 2: fewer than two eliminable keys remain; the standard
        // single-DIP loop finishes the job, seeded with the phase-1
        // observations, on a solver and encoder of its own.
        res = detail::run_single_dip_loop(camo_nl, oracle, options, timer,
                                          history, res.iterations);
    }
    // The counters cover both miters.
    sat::accumulate(res.solver_stats, solver.stats());
    sat::accumulate(res.encoder_stats, encoder.stats());
    detail::finalize_result(res, camo_nl, oracle, options, timer);
    return res;
}

}  // namespace gshe::attack

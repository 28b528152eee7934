#include "attack/appsat.hpp"

#include <algorithm>

#include "attack/miter_detail.hpp"
#include "attack/sat_attack.hpp"
#include "common/timer.hpp"
#include "netlist/simulator.hpp"

namespace gshe::attack {

using detail::History;

AttackResult appsat_attack(const netlist::Netlist& camo_nl, Oracle& oracle,
                           const AppSatOptions& options) {
    Timer timer;
    const AttackOptions& base = options.base;
    if (camo_nl.camo_cells().empty()) return detail::uncamouflaged_result(timer);
    AttackResult res;

    sat::Solver solver;
    sat::CircuitEncoder encoder(solver);
    const auto enc1 = encoder.encode(camo_nl);
    const auto enc2 = encoder.encode(camo_nl, enc1.pis);
    // The difference rides a selector literal, so settlement extraction is
    // one assumption solve under {~guard} on this same solver.
    const sat::Lit guard(solver.new_var(), false);
    encoder.add_difference(enc1.outs, enc2.outs, guard);

    netlist::Simulator sim(camo_nl);
    Rng sample_rng(options.sample_seed);
    History history;

    auto record = [&](std::vector<bool> x, std::vector<bool> y) {
        if (!history.add(x, y)) return;  // exact duplicate: CNF already holds
        encoder.add_agreements(camo_nl, {enc1.keys, enc2.keys}, {x}, {y});
    };

    while (true) {
        if (res.iterations >= base.max_iterations) {
            res.status = AttackResult::Status::IterationCap;
            break;
        }
        if (base.timeout_seconds - timer.seconds() <= 0.0) {
            res.status = AttackResult::Status::TimedOut;
            break;
        }
        detail::set_remaining_budget(solver, base, timer);

        const auto r = solver.solve({guard});
        if (r == sat::SolveResult::Unknown) {
            res.status = AttackResult::Status::TimedOut;
            break;
        }
        if (r == sat::SolveResult::Unsat) {
            detail::finish_by_extraction(res, base, timer, solver, enc1.keys,
                                         guard);
            break;
        }

        ++res.iterations;
        std::vector<bool> dip = detail::model_values(solver, enc1.pis);
        std::vector<bool> response = oracle.query_single(dip);
        record(std::move(dip), std::move(response));

        // Settlement: estimate the candidate key's error on random queries.
        if (res.iterations % options.settle_every != 0) continue;
        bool timed_out = false;
        const auto candidate = detail::extract_inplace(
            solver, enc1.keys, guard, base, timer, timed_out, res);
        if (!candidate) {
            res.status = timed_out ? AttackResult::Status::TimedOut
                                   : AttackResult::Status::Inconsistent;
            break;
        }
        const auto fns = camo::functions_for_key(camo_nl, *candidate);
        std::uint64_t mismatched = 0, total = 0;
        std::vector<std::vector<bool>> wrong_inputs;
        std::vector<std::vector<bool>> wrong_outputs;
        const std::size_t n_pis = camo_nl.inputs().size();
        const std::size_t n_outs = camo_nl.outputs().size();
        // Sampling runs in multi-word chunks: patterns are drawn and the
        // oracle is queried in the historical per-word order (so rng and
        // oracle metering/epoch state are untouched), then one packed sweep
        // evaluates the candidate on the whole chunk.
        constexpr std::size_t kSweepWords = 16;
        std::vector<std::uint64_t> pis;
        std::vector<std::vector<std::uint64_t>> truths;
        std::vector<std::uint64_t> pi(n_pis);
        for (std::size_t base_w = 0; base_w < options.sample_words;
             base_w += kSweepWords) {
            const std::size_t chunk =
                std::min(kSweepWords, options.sample_words - base_w);
            pis.assign(n_pis * chunk, 0);
            truths.clear();
            for (std::size_t w = 0; w < chunk; ++w) {
                for (std::size_t i = 0; i < n_pis; ++i) {
                    pi[i] = sample_rng();
                    pis[i * chunk + w] = pi[i];
                }
                truths.push_back(oracle.query(pi));
            }
            const auto guesses = sim.run(pis, chunk, {.overrides = *fns});
            for (std::size_t w = 0; w < chunk; ++w) {
                const auto& truth = truths[w];
                std::uint64_t diff = 0;
                for (std::size_t o = 0; o < n_outs; ++o)
                    diff |= truth[o] ^ guesses[o * chunk + w];
                total += 64;
                if (diff == 0) continue;
                mismatched +=
                    static_cast<std::uint64_t>(__builtin_popcountll(diff));
                // Reinforce with the first mismatching pattern of this word.
                const int bit = __builtin_ctzll(diff);
                std::vector<bool> x(n_pis), y(n_outs);
                for (std::size_t i = 0; i < n_pis; ++i)
                    x[i] = ((pis[i * chunk + w] >> bit) & 1) != 0;
                for (std::size_t o = 0; o < n_outs; ++o)
                    y[o] = ((truth[o] >> bit) & 1) != 0;
                wrong_inputs.push_back(std::move(x));
                wrong_outputs.push_back(std::move(y));
            }
        }
        const double err =
            total == 0 ? 0.0 : static_cast<double>(mismatched) / static_cast<double>(total);
        if (err <= options.error_threshold) {
            // Probably-approximately-correct: settle on the candidate.
            res.status = AttackResult::Status::Success;
            res.key = *candidate;
            break;
        }
        // Reinforce with every queued wrong pattern in one add_agreements
        // call, whose simulation sweeps run packed (up to 1024 patterns a
        // sweep) instead of one sweep per pattern. Duplicates already in
        // the history are dropped first; the clause stream matches the
        // per-pattern record calls exactly.
        std::vector<std::vector<bool>> fresh_inputs;
        std::vector<std::vector<bool>> fresh_outputs;
        for (std::size_t i = 0; i < wrong_inputs.size(); ++i) {
            if (!history.add(wrong_inputs[i], wrong_outputs[i])) continue;
            fresh_inputs.push_back(std::move(wrong_inputs[i]));
            fresh_outputs.push_back(std::move(wrong_outputs[i]));
        }
        encoder.add_agreements(camo_nl, {enc1.keys, enc2.keys}, fresh_inputs,
                               fresh_outputs);
    }

    res.solver_stats = solver.stats();
    sat::accumulate(res.encoder_stats, encoder.stats());
    detail::finalize_result(res, camo_nl, oracle, options.base, timer);
    return res;
}

}  // namespace gshe::attack

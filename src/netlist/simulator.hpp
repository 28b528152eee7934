#pragma once
// 64-way bit-parallel logic simulation.
//
// Each primary input carries a 64-bit word = 64 independent patterns, so one
// sweep evaluates 64 vectors at once; an n_words sweep carries n_words words
// per signal and evaluates n_words x 64 patterns in one pass. This is the
// workhorse for the attack oracle, for equivalence spot-checks, and for the
// stochastic-oracle study. A SimView says what the circuit computes:
// camouflaged gates evaluate their *true* function by default (the oracle
// view); per-camo-cell overrides give the attacker view under a key guess
// and per-cell flip masks the noisy view.
//
// Four entry points: sweep (every gate's words), run (the primary-output
// words of a sweep), sweep_frontier (the CNF encoder's cone-restricted
// sweep) and run_reference (the per-gate walk, kept as the executable
// spec). Sweeps execute the netlist's cached SimPlan
// (netlist/sim_plan.hpp): a levelized struct-of-arrays compilation of the
// topo order driven by a tight branch-free loop. The step order is a valid
// topological order, so every word is bit-identical to run_reference.

#include <cstdint>
#include <span>
#include <vector>

#include "netlist/netlist.hpp"

namespace gshe::netlist {

/// What a sweep evaluates. Empty spans give the oracle view: true
/// functions, no injected errors, DFF outputs at zero.
struct SimView {
    /// Attacker view: camo cell k computes overrides[k] instead of its true
    /// function. One entry per camo cell.
    std::span<const core::Bool2> overrides = {};
    /// Noisy view, the tunable stochastic mode of the GSHE primitive
    /// (Sec. V-B): word w of camo cell k's output is XORed with
    /// flip_masks[k * n_words + w] (bit i set = pattern i's evaluation of
    /// that device was wrong). Cell-major, n_words entries per camo cell.
    std::span<const std::uint64_t> flip_masks = {};
    /// DFF output words, input-major like the primary inputs
    /// (dff_words[i * n_words + w] is word w of nl.dffs()[i]).
    std::span<const std::uint64_t> dff_words = {};
};

class Simulator {
public:
    explicit Simulator(const Netlist& nl) : nl_(&nl) {}
    /// The simulator keeps a pointer to the netlist (and reads its cached
    /// SimPlan on every sweep), so a temporary would dangle.
    explicit Simulator(const Netlist&&) = delete;

    /// Evaluates n_words x 64 packed patterns under `view`. `pi_words` is
    /// input-major (`pi_words[i * n_words + w]` is word w of
    /// nl.inputs()[i]). Returns every gate's words, gate-major
    /// (`span[g * n_words + w]`); the span aliases internal scratch and is
    /// valid until the next sweep on this Simulator.
    std::span<const std::uint64_t> sweep(std::span<const std::uint64_t> pi_words,
                                         std::size_t n_words = 1,
                                         const SimView& view = {}) const;

    /// The primary-output words of sweep(), output-major
    /// (`result[o * n_words + w]`).
    std::vector<std::uint64_t> run(std::span<const std::uint64_t> pi_words,
                                   std::size_t n_words = 1,
                                   const SimView& view = {}) const;

    /// Oracle-view sweep of the cone-restricted sub-plan
    /// (Netlist::frontier_plan()). Same layout as sweep(), but the words are
    /// valid ONLY at Netlist::frontier_read_set() gates — exactly what the
    /// CNF encoder reads per agreement.
    std::span<const std::uint64_t> sweep_frontier(
        std::span<const std::uint64_t> pi_words, std::size_t n_words = 1) const;

    /// Reference per-gate topological walk over one word — the executable
    /// specification the plan kernel is tested against. Slow path; tests
    /// and benches only.
    std::vector<std::uint64_t> run_reference(
        std::span<const std::uint64_t> pi_words, const SimView& view = {}) const;

    /// Evaluates a two-input truth table on packed words.
    static std::uint64_t eval_word(core::Bool2 fn, std::uint64_t a,
                                   std::uint64_t b) {
        const std::uint8_t tt = fn.truth_table();
        std::uint64_t r = 0;
        if (tt & 0x1) r |= ~a & ~b;
        if (tt & 0x2) r |= ~a & b;
        if (tt & 0x4) r |= a & ~b;
        if (tt & 0x8) r |= a & b;
        return r;
    }

private:
    /// Throws std::invalid_argument unless n_words > 0 and every span of
    /// the sweep has the size the netlist and n_words call for.
    void check(std::span<const std::uint64_t> pi_words, std::size_t n_words,
               const SimView& view) const;
    /// Executes `plan` into values_ (slot-major: values_[slot * n_words + w])
    /// and returns the gate slots. Arguments must have passed check().
    std::span<const std::uint64_t> execute(const SimPlan& plan,
                                           std::span<const std::uint64_t> pi_words,
                                           std::size_t n_words,
                                           const SimView& view) const;

    const Netlist* nl_;
    mutable std::vector<std::uint64_t> values_;     // slot-major sweep values
    mutable std::vector<std::uint8_t> tt_scratch_;  // override-patched tables
};

}  // namespace gshe::netlist

// Tests for the levelized bit-sliced simulation engine (netlist/sim_plan.hpp
// + netlist/simulator.hpp): plan-kernel vs reference-walk word equality on
// 200 randomized netlists (oracle, override, noisy and DFF views),
// multi-word vs per-word equality for every view, cone-restricted vs full
// sweep equality on every frontier read gate, the view-size checks, and
// plan-cache invalidation under camouflage() / clear_camouflage().
#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <random>
#include <span>
#include <stdexcept>
#include <vector>

#include "camo/cell_library.hpp"
#include "camo/protect.hpp"
#include "netlist/generator.hpp"
#include "netlist/netlist.hpp"
#include "netlist/sim_plan.hpp"
#include "netlist/simulator.hpp"

namespace gshe {
namespace {

using netlist::Netlist;
using netlist::SimView;
using netlist::Simulator;

std::vector<std::uint64_t> random_words(std::mt19937_64& rng, std::size_t n) {
    std::vector<std::uint64_t> w(n);
    for (auto& x : w) x = rng();
    return w;
}

/// Word w of every row of a row-major block with n_words words per row
/// (input-major PI words, cell-major flip masks).
std::vector<std::uint64_t> word_slice(const std::vector<std::uint64_t>& block,
                                      std::size_t n_words, std::size_t w) {
    std::vector<std::uint64_t> slice(block.size() / n_words);
    for (std::size_t i = 0; i < slice.size(); ++i)
        slice[i] = block[i * n_words + w];
    return slice;
}

/// Attacker-view override draw: each camo cell picks a random candidate.
std::vector<core::Bool2> random_overrides(const Netlist& nl,
                                          std::mt19937_64& rng) {
    std::vector<core::Bool2> fns;
    fns.reserve(nl.camo_cells().size());
    for (const auto& cell : nl.camo_cells())
        fns.push_back(cell.candidates[rng() % cell.candidates.size()]);
    return fns;
}

// ---- plan kernel vs reference walk ------------------------------------------

TEST(SimPlanKernel, TwoHundredRandomNetlistsMatchTheReferenceWalk) {
    // The level-major SoA kernel computes bit-identical words to the
    // per-gate topological walk, for the oracle view, the attacker
    // (override) view, and the noisy view.
    std::size_t camo_checked = 0;
    for (std::uint64_t seed = 1; seed <= 200; ++seed) {
        std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ull);
        netlist::RandomSpec spec;
        spec.n_inputs = 6 + static_cast<int>(seed % 13);
        spec.n_outputs = 3 + static_cast<int>(seed % 7);
        spec.n_gates = 30 + static_cast<int>(seed % 90);
        spec.seed = seed;
        const Netlist plain = netlist::random_circuit(spec);
        const camo::Protection prot = camo::apply_camouflage(
            plain, camo::select_gates(plain, 0.15, seed), camo::gshe16(),
            seed);
        const Netlist& nl = prot.netlist;
        const Simulator sim(nl);

        const auto pi = random_words(rng, nl.inputs().size());
        // Oracle view.
        EXPECT_EQ(sim.run(pi), sim.run_reference(pi)) << "seed " << seed;
        if (nl.camo_cells().empty()) continue;
        ++camo_checked;
        // Attacker view under a random key guess.
        const auto fns = random_overrides(nl, rng);
        EXPECT_EQ(sim.run(pi, 1, {.overrides = fns}),
                  sim.run_reference(pi, {.overrides = fns}))
            << "seed " << seed;
        // Stochastic-primitive view: random per-cell flip masks.
        const auto flips = random_words(rng, nl.camo_cells().size());
        EXPECT_EQ(sim.run(pi, 1, {.flip_masks = flips}),
                  sim.run_reference(pi, {.flip_masks = flips}))
            << "seed " << seed;
    }
    // The sweep exercised real camouflage, not 200 plain circuits.
    EXPECT_GT(camo_checked, 150u);
}

TEST(SimPlanKernel, SequentialNetlistsMatchTheReferenceWalkWithDffWords) {
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        std::mt19937_64 rng(seed);
        netlist::SequentialSpec spec;
        spec.n_inputs = 8;
        spec.n_outputs = 6;
        spec.n_ffs = 10;
        spec.n_gates = 80;
        spec.seed = seed;
        const Netlist nl = netlist::random_sequential(spec);
        const Simulator sim(nl);

        const auto pi = random_words(rng, nl.inputs().size());
        const auto dff = random_words(rng, nl.dffs().size());
        EXPECT_EQ(sim.run(pi, 1, {.dff_words = dff}),
                  sim.run_reference(pi, {.dff_words = dff}))
            << "seed " << seed;
        // Empty dff_words means all-zero DFF outputs.
        EXPECT_EQ(sim.run(pi), sim.run_reference(pi)) << "seed " << seed;

        // Multi-word DFF words are input-major, like the primary inputs.
        constexpr std::size_t kWords = 3;
        const auto pi_words = random_words(rng, nl.inputs().size() * kWords);
        const auto dff_words = random_words(rng, nl.dffs().size() * kWords);
        const auto multi = sim.run(pi_words, kWords, {.dff_words = dff_words});
        for (std::size_t w = 0; w < kWords; ++w) {
            const auto one = sim.run_reference(
                word_slice(pi_words, kWords, w),
                {.dff_words = word_slice(dff_words, kWords, w)});
            for (std::size_t o = 0; o < one.size(); ++o)
                EXPECT_EQ(multi[o * kWords + w], one[o])
                    << "seed " << seed << " word " << w << " out " << o;
        }
    }
}

TEST(SimPlanKernel, RunGathersTheOutputWordsOfTheSweep) {
    netlist::RandomSpec spec;
    spec.n_inputs = 10;
    spec.n_outputs = 6;
    spec.n_gates = 60;
    spec.seed = 77;
    const Netlist plain = netlist::random_circuit(spec);
    const camo::Protection prot = camo::apply_camouflage(
        plain, camo::select_gates(plain, 0.15, 7), camo::gshe16(), 7);
    const Netlist& nl = prot.netlist;
    ASSERT_FALSE(nl.camo_cells().empty());
    const Simulator sim(nl);

    std::mt19937_64 rng(99);
    const auto fns = random_overrides(nl, rng);
    const SimView view{.overrides = fns};
    for (const std::size_t n_words : {std::size_t{1}, std::size_t{3}}) {
        const auto pi = random_words(rng, nl.inputs().size() * n_words);
        const std::vector<std::uint64_t> outs = sim.run(pi, n_words, view);
        const std::span<const std::uint64_t> all = sim.sweep(pi, n_words, view);
        ASSERT_EQ(all.size(), nl.size() * n_words);
        ASSERT_EQ(outs.size(), nl.outputs().size() * n_words);
        for (std::size_t o = 0; o < nl.outputs().size(); ++o)
            for (std::size_t w = 0; w < n_words; ++w)
                EXPECT_EQ(outs[o * n_words + w],
                          all[std::size_t{nl.outputs()[o].gate} * n_words + w])
                    << "words " << n_words << " output " << o << " word " << w;
    }
}

// ---- multi-word sweeps ------------------------------------------------------

TEST(MultiWordSweep, MatchesPerWordSweepsForEveryView) {
    for (std::uint64_t seed = 1; seed <= 30; ++seed) {
        std::mt19937_64 rng(seed * 31337);
        netlist::RandomSpec spec;
        spec.n_inputs = 9;
        spec.n_outputs = 5;
        spec.n_gates = 70;
        spec.seed = seed;
        const Netlist plain = netlist::random_circuit(spec);
        const camo::Protection prot = camo::apply_camouflage(
            plain, camo::select_gates(plain, 0.15, seed), camo::gshe16(),
            seed);
        const Netlist& nl = prot.netlist;
        const Simulator sim(nl);
        const std::size_t n_in = nl.inputs().size();
        const std::size_t n_out = nl.outputs().size();
        const std::size_t n_words = 1 + seed % 16;

        // Input-major PI words, cell-major flip masks, and their per-word
        // slices.
        const auto pi_words = random_words(rng, n_in * n_words);
        const auto fns = random_overrides(nl, rng);
        const auto flips = random_words(rng, nl.camo_cells().size() * n_words);
        const auto multi = sim.run(pi_words, n_words);
        const auto multi_fn = sim.run(pi_words, n_words, {.overrides = fns});
        const auto multi_noisy =
            sim.run(pi_words, n_words, {.flip_masks = flips});
        ASSERT_EQ(multi.size(), n_out * n_words);
        ASSERT_EQ(multi_fn.size(), n_out * n_words);
        ASSERT_EQ(multi_noisy.size(), n_out * n_words);
        for (std::size_t w = 0; w < n_words; ++w) {
            const auto slice = word_slice(pi_words, n_words, w);
            const auto flip_slice = word_slice(flips, n_words, w);
            const auto one = sim.run(slice);
            const auto one_fn = sim.run(slice, 1, {.overrides = fns});
            const auto one_noisy = sim.run(slice, 1, {.flip_masks = flip_slice});
            for (std::size_t o = 0; o < n_out; ++o) {
                EXPECT_EQ(multi[o * n_words + w], one[o])
                    << "seed " << seed << " word " << w << " out " << o;
                EXPECT_EQ(multi_fn[o * n_words + w], one_fn[o])
                    << "seed " << seed << " word " << w << " out " << o;
                EXPECT_EQ(multi_noisy[o * n_words + w], one_noisy[o])
                    << "seed " << seed << " word " << w << " out " << o;
            }
        }
    }
}

TEST(MultiWordSweep, RejectsBadArguments) {
    const Netlist nl = netlist::c17();
    const Simulator sim(nl);
    const std::vector<std::uint64_t> pi(nl.inputs().size() * 2, 0);
    EXPECT_THROW(sim.run(pi, 0), std::invalid_argument);
    // Word count not matching inputs() * n_words.
    EXPECT_THROW(sim.run(pi, 3), std::invalid_argument);
}

TEST(Simulator, ViewSizesValidatedOnEverySweep) {
    // A sequential camouflaged netlist, so every view span has a size to
    // get wrong. Each wrong size below is wrong at one word and at two.
    netlist::SequentialSpec spec;
    spec.n_inputs = 6;
    spec.n_outputs = 4;
    spec.n_ffs = 5;
    spec.n_gates = 60;
    spec.seed = 11;
    const Netlist seq = netlist::random_sequential(spec);
    const camo::Protection prot = camo::apply_camouflage(
        seq, camo::select_gates(seq, 0.10, 11), camo::gshe16(), 11);
    const Netlist& nl = prot.netlist;
    const std::size_t cells = nl.camo_cells().size();
    ASSERT_GE(cells, 2u);
    ASSERT_GE(nl.dffs().size(), 1u);
    const Simulator sim(nl);

    std::mt19937_64 rng(5);
    const std::vector<core::Bool2> overrides(cells + 1, core::Bool2::AND());
    const auto masks = random_words(rng, 3 * cells);
    const auto dff = random_words(rng, 3 * nl.dffs().size());
    const SimView wrong[] = {
        {.overrides = overrides}, {.flip_masks = masks}, {.dff_words = dff}};
    for (std::size_t v = 0; v < std::size(wrong); ++v) {
        for (const std::size_t n_words : {std::size_t{1}, std::size_t{2}}) {
            const auto pi = random_words(rng, nl.inputs().size() * n_words);
            EXPECT_THROW(sim.run(pi, n_words, wrong[v]), std::invalid_argument)
                << "view " << v << " words " << n_words;
            EXPECT_THROW(sim.sweep(pi, n_words, wrong[v]), std::invalid_argument)
                << "view " << v << " words " << n_words;
        }
        const auto pi = random_words(rng, nl.inputs().size());
        EXPECT_THROW(sim.run_reference(pi, wrong[v]), std::invalid_argument)
            << "view " << v;
    }

    // Flip masks are cell-major: one mask per cell is one word's worth.
    const auto one_per_cell = random_words(rng, cells);
    const auto pi1 = random_words(rng, nl.inputs().size());
    const auto pi2 = random_words(rng, nl.inputs().size() * 2);
    EXPECT_NO_THROW(sim.run(pi1, 1, {.flip_masks = one_per_cell}));
    EXPECT_THROW(sim.run(pi2, 2, {.flip_masks = one_per_cell}),
                 std::invalid_argument);
}

// ---- cone-restricted sweeps -------------------------------------------------

TEST(FrontierSweep, EqualsTheFullSweepOnEveryReadGate) {
    // The acceptance property for the restricted plan: every gate in
    // frontier_read_set() carries exactly the full-sweep words, at 1-4
    // words, on 100 randomized camouflaged netlists.
    std::size_t restricted_somewhere = 0;
    for (std::uint64_t seed = 1; seed <= 100; ++seed) {
        std::mt19937_64 rng(seed ^ 0xDEADBEEFull);
        netlist::RandomSpec spec;
        spec.n_inputs = 8 + static_cast<int>(seed % 8);
        spec.n_outputs = 4 + static_cast<int>(seed % 5);
        spec.n_gates = 40 + static_cast<int>(seed % 80);
        spec.seed = seed;
        const Netlist plain = netlist::random_circuit(spec);
        const camo::Protection prot = camo::apply_camouflage(
            plain, camo::select_gates(plain, 0.10, seed), camo::gshe16(),
            seed);
        const Netlist& nl = prot.netlist;
        const Simulator sim(nl);
        const std::vector<netlist::GateId>& reads = nl.frontier_read_set();

        // The sub-plan never needs more steps than the full plan, and the
        // whole point is that it usually needs fewer.
        ASSERT_LE(nl.frontier_plan().steps(), nl.sim_plan().steps())
            << "seed " << seed;
        if (nl.frontier_plan().steps() < nl.sim_plan().steps())
            ++restricted_somewhere;

        const std::size_t n_words = 1 + seed % 4;
        const auto pi_words =
            random_words(rng, nl.inputs().size() * n_words);
        const std::span<const std::uint64_t> full = sim.sweep(pi_words, n_words);
        // Copy before the next sweep invalidates the scratch-aliasing span.
        const std::vector<std::uint64_t> full_copy(full.begin(), full.end());
        const std::span<const std::uint64_t> frontier =
            sim.sweep_frontier(pi_words, n_words);
        ASSERT_EQ(frontier.size(), nl.size() * n_words) << "seed " << seed;
        for (const netlist::GateId g : reads)
            for (std::size_t w = 0; w < n_words; ++w)
                EXPECT_EQ(frontier[g * n_words + w], full_copy[g * n_words + w])
                    << "seed " << seed << " word " << w << " gate " << g;
    }
    EXPECT_GT(restricted_somewhere, 50u);
}

TEST(FrontierSweep, RestrictedPlanRejectsUnknownReadGates) {
    const Netlist nl = netlist::c17();
    const netlist::GateId bogus = static_cast<netlist::GateId>(nl.size());
    EXPECT_THROW(netlist::build_restricted_plan(nl, std::vector{bogus}),
                 std::out_of_range);
}

// ---- plan-cache invalidation ------------------------------------------------

TEST(PlanCache, CamouflageAndClearInvalidateThePlans) {
    netlist::RandomSpec spec;
    spec.n_inputs = 8;
    spec.n_outputs = 4;
    spec.n_gates = 40;
    spec.seed = 5;
    Netlist nl = netlist::random_circuit(spec);

    // Warm every plan cache on the plain netlist.
    const std::size_t plain_steps = nl.sim_plan().steps();
    ASSERT_TRUE(nl.camo_cells().empty());
    EXPECT_TRUE(nl.sim_plan().camo_step.empty());

    // Camouflage a NAND/NOR gate in place: the rebuilt plan must bind the
    // new camo step.
    netlist::GateId target = netlist::kNoGate;
    for (netlist::GateId g = 0; g < nl.size(); ++g) {
        const netlist::Gate& gate = nl.gate(g);
        if (gate.type == netlist::CellType::Logic &&
            (gate.fn == core::Bool2::NAND() || gate.fn == core::Bool2::NOR())) {
            target = g;
            break;
        }
    }
    ASSERT_NE(target, netlist::kNoGate);
    nl.camouflage(target, {core::Bool2::NAND(), core::Bool2::NOR()}, "test");
    ASSERT_EQ(nl.camo_cells().size(), 1u);
    ASSERT_EQ(nl.sim_plan().camo_step.size(), 1u);
    EXPECT_EQ(nl.sim_plan().out[nl.sim_plan().camo_step[0]], target);
    EXPECT_EQ(nl.sim_plan().steps(), plain_steps);

    // The rebuilt plan actually routes overrides: forcing the complement
    // function must flip the gate's value on some pattern.
    const Simulator sim(nl);
    std::mt19937_64 rng(17);
    const auto pi = random_words(rng, nl.inputs().size());
    const core::Bool2 truth = nl.gate(target).fn;
    const core::Bool2 other =
        truth == core::Bool2::NAND() ? core::Bool2::NOR() : core::Bool2::NAND();
    const std::span<const std::uint64_t> swept = sim.sweep(pi);
    const std::vector<std::uint64_t> true_all(swept.begin(), swept.end());
    const std::vector<core::Bool2> wrong{other};
    EXPECT_EQ(sim.run(pi, 1, {.overrides = wrong}),
              sim.run_reference(pi, {.overrides = wrong}));

    // clear_camouflage() drops the binding again.
    nl.clear_camouflage();
    EXPECT_TRUE(nl.sim_plan().camo_step.empty());
    const std::span<const std::uint64_t> cleared = sim.sweep(pi);
    EXPECT_EQ(std::vector<std::uint64_t>(cleared.begin(), cleared.end()),
              true_all);
}

TEST(PlanCache, CopiesStartColdAndRebuildCorrectly) {
    netlist::RandomSpec spec;
    spec.n_inputs = 8;
    spec.n_outputs = 4;
    spec.n_gates = 40;
    spec.seed = 9;
    const Netlist plain = netlist::random_circuit(spec);
    const camo::Protection prot = camo::apply_camouflage(
        plain, camo::select_gates(plain, 0.15, 2), camo::gshe16(), 2);
    ASSERT_FALSE(prot.netlist.camo_cells().empty());

    // Warm the original, then copy: the copy's lazily rebuilt plans must
    // produce the same words.
    (void)prot.netlist.sim_plan();
    (void)prot.netlist.frontier_plan();
    const Netlist copy = prot.netlist;
    std::mt19937_64 rng(3);
    const auto pi = random_words(rng, prot.netlist.inputs().size());
    EXPECT_EQ(Simulator(copy).run(pi), Simulator(prot.netlist).run(pi));
    EXPECT_EQ(copy.frontier_read_set(), prot.netlist.frontier_read_set());
}

}  // namespace
}  // namespace gshe

// Tests for the levelized bit-sliced simulation engine (netlist/sim_plan.hpp
// + the Simulator rewrite): plan-kernel vs reference-walk word equality on
// 200 randomized netlists (camo overrides, noisy flip masks, DFF words),
// cone-restricted vs full sweep equality on every frontier read gate,
// multi-word vs repeated-64 equality, and plan-cache invalidation under
// camouflage() / clear_camouflage().
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
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
using netlist::Simulator;

std::vector<std::uint64_t> random_words(std::mt19937_64& rng, std::size_t n) {
    std::vector<std::uint64_t> w(n);
    for (auto& x : w) x = rng();
    return w;
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
    // The tentpole's core claim: the level-major SoA kernel computes
    // bit-identical words to the historical per-gate topological walk, for
    // the oracle view, the attacker (override) view, and the noisy view.
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
        EXPECT_EQ(sim.run_with_functions(pi, fns),
                  sim.run_reference(pi, fns))
            << "seed " << seed;
        // Stochastic-primitive view: random per-cell flip masks.
        const auto flips = random_words(rng, nl.camo_cells().size());
        EXPECT_EQ(sim.run_noisy(pi, flips),
                  sim.run_reference(pi, {}, {}, flips))
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
        EXPECT_EQ(sim.run(pi, dff), sim.run_reference(pi, {}, dff))
            << "seed " << seed;
        // Empty dff_words means all-zero DFF outputs, as before.
        EXPECT_EQ(sim.run(pi), sim.run_reference(pi)) << "seed " << seed;
    }
}

TEST(SimPlanKernel, RunSingleAndRunAllAgreeWithThePackedSweep) {
    netlist::RandomSpec spec;
    spec.n_inputs = 10;
    spec.n_outputs = 6;
    spec.n_gates = 60;
    spec.seed = 77;
    const Netlist plain = netlist::random_circuit(spec);
    const camo::Protection prot = camo::apply_camouflage(
        plain, camo::select_gates(plain, 0.15, 7), camo::gshe16(), 7);
    const Netlist& nl = prot.netlist;
    const Simulator sim(nl);

    std::mt19937_64 rng(99);
    std::vector<bool> pattern(nl.inputs().size());
    std::vector<std::uint64_t> pi(nl.inputs().size());
    for (std::size_t i = 0; i < pattern.size(); ++i) {
        pattern[i] = (rng() & 1) != 0;
        pi[i] = pattern[i] ? ~0ull : 0ull;
    }
    const std::vector<std::uint64_t> outs = sim.run(pi);
    const std::vector<bool> single = sim.run_single(pattern);
    ASSERT_EQ(single.size(), outs.size());
    for (std::size_t o = 0; o < outs.size(); ++o)
        EXPECT_EQ(single[o], (outs[o] & 1) != 0) << "output " << o;

    // run_single_all / the allocation-free span twin agree gate for gate.
    const std::vector<char> all = sim.run_single_all(pattern);
    const std::span<const char> all_span = sim.run_single_all_span(pattern);
    ASSERT_EQ(all.size(), nl.size());
    ASSERT_EQ(all_span.size(), nl.size());
    for (std::size_t g = 0; g < nl.size(); ++g)
        EXPECT_EQ(all[g], all_span[g]) << "gate " << g;

    const std::vector<std::uint64_t> words = sim.run_all(pi);
    ASSERT_EQ(words.size(), nl.size());
    for (std::size_t g = 0; g < nl.size(); ++g)
        EXPECT_EQ((words[g] & 1) != 0, all[g] != 0) << "gate " << g;
}

// ---- multi-word sweeps ------------------------------------------------------

TEST(MultiWordSweep, MatchesRepeatedSixtyFourBitSweeps) {
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

        // Input-major multi-word block and its per-word slices.
        const auto pi_words = random_words(rng, n_in * n_words);
        const auto fns = random_overrides(nl, rng);
        const auto multi = sim.run_words(pi_words, n_words);
        const auto multi_fn =
            sim.run_words_with_functions(pi_words, n_words, fns);
        ASSERT_EQ(multi.size(), n_out * n_words);
        ASSERT_EQ(multi_fn.size(), n_out * n_words);
        for (std::size_t w = 0; w < n_words; ++w) {
            std::vector<std::uint64_t> slice(n_in);
            for (std::size_t i = 0; i < n_in; ++i)
                slice[i] = pi_words[i * n_words + w];
            const auto one = sim.run(slice);
            const auto one_fn = sim.run_with_functions(slice, fns);
            for (std::size_t o = 0; o < n_out; ++o) {
                EXPECT_EQ(multi[o * n_words + w], one[o])
                    << "seed " << seed << " word " << w << " out " << o;
                EXPECT_EQ(multi_fn[o * n_words + w], one_fn[o])
                    << "seed " << seed << " word " << w << " out " << o;
            }
        }
    }
}

TEST(MultiWordSweep, RejectsBadArguments) {
    const Netlist nl = netlist::c17();
    const Simulator sim(nl);
    const std::vector<std::uint64_t> pi(nl.inputs().size() * 2, 0);
    EXPECT_THROW(sim.run_words(pi, 0), std::invalid_argument);
    // Word count not matching inputs() * n_words.
    EXPECT_THROW(sim.run_words(pi, 3), std::invalid_argument);
}

// ---- cone-restricted sweeps -------------------------------------------------

TEST(FrontierSweep, EqualsTheFullSweepOnEveryReadGate) {
    // The acceptance property for the restricted plan: every gate in
    // frontier_read_set() carries exactly the full-sweep value, single-bit
    // and multi-word, on 100 randomized camouflaged netlists.
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

        // Single-pattern: frontier values match run_single_all at reads.
        std::vector<bool> pattern(nl.inputs().size());
        for (std::size_t i = 0; i < pattern.size(); ++i)
            pattern[i] = (rng() & 1) != 0;
        const std::vector<char> full = sim.run_single_all(pattern);
        const std::span<const char> frontier = sim.run_frontier_single(pattern);
        for (const netlist::GateId g : reads)
            EXPECT_EQ(frontier[g], full[g]) << "seed " << seed << " gate " << g;

        // Multi-word: frontier words match per-word run_all at reads.
        const std::size_t n_words = 1 + seed % 4;
        const auto pi_words =
            random_words(rng, nl.inputs().size() * n_words);
        const std::span<const std::uint64_t> fw =
            sim.run_frontier_words(pi_words, n_words);
        ASSERT_EQ(fw.size(), nl.size() * n_words) << "seed " << seed;
        // Copy before the next run invalidates the scratch-aliasing span.
        const std::vector<std::uint64_t> fw_copy(fw.begin(), fw.end());
        for (std::size_t w = 0; w < n_words; ++w) {
            std::vector<std::uint64_t> slice(nl.inputs().size());
            for (std::size_t i = 0; i < slice.size(); ++i)
                slice[i] = pi_words[i * n_words + w];
            const std::vector<std::uint64_t> all = sim.run_all(slice);
            for (const netlist::GateId g : reads)
                EXPECT_EQ(fw_copy[g * n_words + w], all[g])
                    << "seed " << seed << " word " << w << " gate " << g;
        }
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
    const auto true_all = sim.run_all(pi);
    const std::vector<core::Bool2> wrong{other};
    EXPECT_EQ(sim.run_with_functions(pi, wrong), sim.run_reference(pi, wrong));

    // clear_camouflage() drops the binding again.
    nl.clear_camouflage();
    EXPECT_TRUE(nl.sim_plan().camo_step.empty());
    EXPECT_EQ(sim.run_all(pi), true_all);
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

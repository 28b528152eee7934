// Tests for the paper's announced extensions, implemented in this
// reproduction: multi-input threshold gates (Sec. III-C), cloaked
// latches/flip-flops (Sec. III-C), runtime re-keying (Sec. V-C / [40]),
// and SARLock-class point-function protection (the Sec. V-A "provably
// secure" baseline).
#include <gtest/gtest.h>

#include "attack/equivalence.hpp"
#include "attack/oracle.hpp"
#include "attack/sat_attack.hpp"
#include "camo/cell_library.hpp"
#include "camo/dynamic.hpp"
#include "camo/protect.hpp"
#include "camo/sarlock.hpp"
#include "core/multi_input.hpp"
#include "core/sequential_cell.hpp"
#include "netlist/generator.hpp"
#include "netlist/simulator.hpp"

namespace gshe {
namespace {

using core::Bool2;
using core::CloakedFlipFlop;
using core::CloakedLatch;
using core::MultiInputPrimitive;

// ---- multi-input threshold cells ---------------------------------------------

class ThresholdSweep
    : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(ThresholdSweep, ComputesAtLeastK) {
    const auto [n, k] = GetParam();
    const MultiInputPrimitive prim = MultiInputPrimitive::at_least(n, k);
    EXPECT_EQ(prim.threshold(), k);
    EXPECT_TRUE(prim.config().tie_free());
    for (int m = 0; m < (1 << n); ++m) {
        std::vector<bool> in(static_cast<std::size_t>(n));
        int ones = 0;
        for (int i = 0; i < n; ++i) {
            in[static_cast<std::size_t>(i)] = ((m >> i) & 1) != 0;
            ones += (m >> i) & 1;
        }
        ASSERT_EQ(prim.eval(in), ones >= k) << "n=" << n << " k=" << k;
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllNK, ThresholdSweep,
    ::testing::Values(std::pair{2, 1}, std::pair{2, 2}, std::pair{3, 1},
                      std::pair{3, 2}, std::pair{3, 3}, std::pair{4, 2},
                      std::pair{5, 3}, std::pair{5, 1}, std::pair{5, 5},
                      std::pair{7, 4}),
    [](const auto& info) {
        return "n" + std::to_string(info.param.first) + "k" +
               std::to_string(info.param.second);
    });

TEST(MultiInput, NamedGates) {
    const std::vector<bool> all1 = {true, true, true};
    const std::vector<bool> one1 = {false, true, false};
    const std::vector<bool> none = {false, false, false};
    EXPECT_TRUE(MultiInputPrimitive::and_n(3).eval(all1));
    EXPECT_FALSE(MultiInputPrimitive::and_n(3).eval(one1));
    EXPECT_TRUE(MultiInputPrimitive::or_n(3).eval(one1));
    EXPECT_FALSE(MultiInputPrimitive::or_n(3).eval(none));
    EXPECT_FALSE(MultiInputPrimitive::nand_n(3).eval(all1));
    EXPECT_TRUE(MultiInputPrimitive::nor_n(3).eval(none));
}

TEST(MultiInput, MajorityOfFive) {
    const MultiInputPrimitive maj = MultiInputPrimitive::majority(5);
    EXPECT_TRUE(maj.eval(std::vector<bool>{true, true, true, false, false}));
    EXPECT_FALSE(maj.eval(std::vector<bool>{true, true, false, false, false}));
    EXPECT_THROW(MultiInputPrimitive::majority(4), std::invalid_argument);
}

TEST(MultiInput, WireCountIsOddAndUniform) {
    // Tie-freedom by parity and the layout-uniformity argument: all k
    // settings of an n-input cell drive the same wire count when biases
    // are padded with cancelling +I/-I pairs to the maximum.
    for (int n = 2; n <= 6; ++n)
        for (int k = 1; k <= n; ++k) {
            const auto prim = MultiInputPrimitive::at_least(n, k);
            EXPECT_EQ((prim.config().n_inputs + prim.config().bias) % 2, 1);
        }
}

TEST(MultiInput, StochasticModeCalibrated) {
    MultiInputPrimitive prim = MultiInputPrimitive::majority(3);
    prim.set_accuracy(0.85);
    Rng rng(5);
    const std::vector<bool> in = {true, true, false};
    int wrong = 0;
    const int trials = 20000;
    for (int t = 0; t < trials; ++t)
        if (prim.eval_stochastic(in, rng) != prim.eval(in)) ++wrong;
    EXPECT_NEAR(wrong / static_cast<double>(trials), 0.15, 0.01);
}

TEST(MultiInput, Validation) {
    EXPECT_THROW(MultiInputPrimitive::at_least(3, 0), std::invalid_argument);
    EXPECT_THROW(MultiInputPrimitive::at_least(3, 4), std::invalid_argument);
    core::ThresholdConfig even{.n_inputs = 2, .bias = 0};
    EXPECT_THROW(MultiInputPrimitive{even}, std::invalid_argument);
    const MultiInputPrimitive p = MultiInputPrimitive::and_n(3);
    EXPECT_THROW(p.eval(std::vector<bool>{true}), std::invalid_argument);
}

// ---- cloaked latches / flip-flops -----------------------------------------------

TEST(CloakedLatch, TransparentWhileClockHigh) {
    CloakedLatch latch(Bool2::AND());
    latch.tick(true, true, true);
    EXPECT_TRUE(latch.q());
    latch.tick(true, true, false);
    EXPECT_FALSE(latch.q());
}

TEST(CloakedLatch, HoldsWhileClockLow) {
    CloakedLatch latch(Bool2::OR());
    latch.tick(true, true, false);  // q = 1
    EXPECT_TRUE(latch.q());
    latch.tick(false, false, false);  // inputs now give 0, clock low
    EXPECT_TRUE(latch.q());           // output held
    EXPECT_FALSE(latch.stored_state());  // magnet state already updated
    latch.tick(true, false, false);
    EXPECT_FALSE(latch.q());
}

TEST(CloakedLatch, CloaksAnyOfTheSixteenFunctions) {
    for (const Bool2 fn : Bool2::all()) {
        CloakedLatch latch(fn);
        for (int a = 0; a < 2; ++a)
            for (int b = 0; b < 2; ++b) {
                latch.tick(true, a != 0, b != 0);
                ASSERT_EQ(latch.q(), fn.eval(a != 0, b != 0)) << fn.name();
            }
    }
}

TEST(CloakedFlipFlop, UpdatesOnRisingEdgeOnly) {
    CloakedFlipFlop ff(Bool2::A());
    // clk low: master samples a=1.
    ff.tick(false, true, false);
    EXPECT_FALSE(ff.q());  // no edge yet
    // Rising edge: q takes the sampled value.
    ff.tick(true, false, false);  // a already changed to 0 — too late
    EXPECT_TRUE(ff.q());
    // While high, further input changes are ignored.
    ff.tick(true, false, false);
    EXPECT_TRUE(ff.q());
    // Next cycle samples 0.
    ff.tick(false, false, false);
    ff.tick(true, true, false);
    EXPECT_FALSE(ff.q());
}

TEST(CloakedFlipFlop, ShiftRegisterBehaviour) {
    // Two FFs in series. With D presented during the low phase before each
    // edge, the first FF outputs the current cycle's bit after the edge and
    // the second (which sampled the first's pre-edge output) lags it by one
    // cycle — the classic one-stage shift per added register.
    CloakedFlipFlop a(Bool2::A()), b(Bool2::A());
    const std::vector<bool> stream = {true, false, true, true, false, false};
    std::vector<bool> out_a, out_b;
    for (const bool bit : stream) {
        a.tick(false, bit, false);
        b.tick(false, a.q(), false);
        a.tick(true, bit, false);
        b.tick(true, a.q(), false);
        out_a.push_back(a.q());
        out_b.push_back(b.q());
    }
    for (std::size_t i = 0; i < stream.size(); ++i)
        EXPECT_EQ(out_a[i], stream[i]) << i;  // post-edge: current bit
    for (std::size_t i = 1; i < stream.size(); ++i)
        EXPECT_EQ(out_b[i], stream[i - 1]) << i;  // one register later
}

// ---- runtime re-keying -------------------------------------------------------------

netlist::Netlist rekey_circuit() {
    netlist::RandomSpec spec;
    spec.n_inputs = 14;
    spec.n_outputs = 10;
    spec.n_gates = 130;
    spec.seed = 77;
    return netlist::random_circuit(spec);
}

TEST(Rekeying, DisabledIntervalIsExactOracle) {
    const auto nl = rekey_circuit();
    const auto prot = camo::apply_camouflage(
        nl, camo::select_gates(nl, 0.12, 5), camo::gshe16(), 5);
    camo::RekeyingOracle dyn(prot.netlist, /*interval=*/0, 0.5, 0.5, 3);
    attack::ExactOracle exact(prot.netlist);
    Rng rng(4);
    std::vector<std::uint64_t> pi(nl.inputs().size());
    for (auto& w : pi) w = rng();
    EXPECT_EQ(dyn.query(pi), exact.query(pi));
}

TEST(Rekeying, TrueModeEpochsAnswerTruthfully) {
    const auto nl = rekey_circuit();
    const auto prot = camo::apply_camouflage(
        nl, camo::select_gates(nl, 0.12, 6), camo::gshe16(), 6);
    // duty_true = 1.0: every epoch is the authorized mode.
    camo::RekeyingOracle dyn(prot.netlist, 4, 0.8, 1.0, 7);
    attack::ExactOracle exact(prot.netlist);
    Rng rng(8);
    for (int q = 0; q < 20; ++q) {
        std::vector<std::uint64_t> pi(nl.inputs().size());
        for (auto& w : pi) w = rng();
        ASSERT_EQ(dyn.query(pi), exact.query(pi));
    }
}

TEST(Rekeying, ScrambledEpochsDisturbOutputs) {
    const auto nl = rekey_circuit();
    const auto prot = camo::apply_camouflage(
        nl, camo::select_gates(nl, 0.2, 9), camo::gshe16(), 9);
    camo::RekeyingOracle dyn(prot.netlist, 2, 1.0, 0.1, 11);
    attack::ExactOracle exact(prot.netlist);
    Rng rng(12);
    int differing = 0;
    for (int q = 0; q < 40; ++q) {
        std::vector<std::uint64_t> pi(nl.inputs().size());
        for (auto& w : pi) w = rng();
        if (dyn.query(pi) != exact.query(pi)) ++differing;
    }
    EXPECT_GT(differing, 5);
    EXPECT_GT(dyn.epochs_elapsed(), 10u);
}

TEST(Rekeying, FastRekeyingDefeatsSatAttack) {
    const auto nl = rekey_circuit();
    const auto prot = camo::apply_camouflage(
        nl, camo::select_gates(nl, 0.15, 13), camo::gshe16(), 13);
    camo::RekeyingOracle dyn(prot.netlist, /*interval=*/3, 0.5, 0.3, 15);
    attack::AttackOptions opt;
    opt.timeout_seconds = 30.0;
    const auto res = attack::sat_attack(prot.netlist, dyn, opt);
    const bool defeated =
        res.status == attack::AttackResult::Status::Inconsistent ||
        (res.status == attack::AttackResult::Status::Success && !res.key_exact) ||
        res.status == attack::AttackResult::Status::TimedOut;
    EXPECT_TRUE(defeated);
}

TEST(Rekeying, EpochZeroIsSeedFree) {
    // The campaign engine copies a seed-free attack's result between the
    // seed replicates of a pinned dynamic instance when the attack never
    // left epoch 0 (DefenseFactory::seed_free_until_rekey). That holds only
    // while epoch 0 answers with the true functions and draws nothing from
    // the oracle's seed; should epoch 0 ever become seeded, this fails
    // instead of a campaign CSV changing silently.
    const auto nl = rekey_circuit();
    const auto prot = camo::apply_camouflage(
        nl, camo::select_gates(nl, 0.2, 19), camo::gshe16(), 19);
    const std::uint64_t interval = 8;
    camo::RekeyingOracle a(prot.netlist, interval, 1.0, 0.1, 21);
    camo::RekeyingOracle b(prot.netlist, interval, 1.0, 0.1, 22);
    Rng rng(23);
    const auto random_query = [&] {
        std::vector<std::uint64_t> pi(nl.inputs().size());
        for (auto& w : pi) w = rng();
        return pi;
    };
    for (std::uint64_t q = 0; q < interval; ++q) {
        const auto pi = random_query();
        ASSERT_EQ(a.query(pi), b.query(pi)) << "query " << q;
    }
    EXPECT_EQ(a.epochs_elapsed(), 0u);
    EXPECT_EQ(b.epochs_elapsed(), 0u);
    const auto pi = random_query();
    a.query(pi);
    b.query(pi);
    EXPECT_EQ(a.epochs_elapsed(), 1u);
    EXPECT_EQ(b.epochs_elapsed(), 1u);

    // From epoch 1 on the seeds do reach the answers.
    int differing = 0;
    for (std::uint64_t q = 0; q < 10 * interval; ++q) {
        const auto later = random_query();
        if (a.query(later) != b.query(later)) ++differing;
    }
    EXPECT_GT(differing, 0);
}

TEST(Rekeying, ValidatesArguments) {
    const auto nl = rekey_circuit();
    const auto prot = camo::apply_camouflage(
        nl, camo::select_gates(nl, 0.1, 17), camo::gshe16(), 17);
    EXPECT_THROW(camo::RekeyingOracle(prot.netlist, 1, -0.1, 0.5, 1),
                 std::invalid_argument);
    EXPECT_THROW(camo::RekeyingOracle(prot.netlist, 1, 0.5, 0.0, 1),
                 std::invalid_argument);
}

// ---- SARLock ----------------------------------------------------------------------

netlist::Netlist sarlock_base(int n_inputs = 10) {
    netlist::RandomSpec spec;
    spec.n_inputs = n_inputs;
    spec.n_outputs = 6;
    spec.n_gates = 60;
    spec.seed = 21;
    return netlist::random_circuit(spec);
}

TEST(SarLock, TrueKeyPreservesFunction) {
    const auto nl = sarlock_base();
    const auto prot = camo::apply_sarlock(nl, 6, 31);
    EXPECT_EQ(prot.netlist.camo_cells().size(), 6u);
    EXPECT_TRUE(camo::key_functionally_correct(prot.netlist, prot.true_key));
    EXPECT_EQ(attack::check_key_equivalence(prot.netlist, prot.true_key).status,
              attack::EquivStatus::Equivalent);
    // And against the original circuit, by simulation.
    netlist::Simulator orig(nl), locked(prot.netlist);
    Rng rng(3);
    std::vector<std::uint64_t> pi(nl.inputs().size());
    for (auto& w : pi) w = rng();
    EXPECT_EQ(orig.run(pi), locked.run(pi));
}

TEST(SarLock, WrongKeyFlipsExactlyOnePattern) {
    // The point-function property: a wrong key c corrupts the output only
    // where the protected input bits equal c (here the full input space of
    // the m = 8 protected bits is swept with the other inputs at 0).
    const auto nl = sarlock_base(8);
    const auto prot = camo::apply_sarlock(nl, 8, 37);
    camo::Key wrong = prot.true_key;
    wrong.bits[3] = !wrong.bits[3];
    const auto fns = camo::functions_for_key(prot.netlist, wrong);
    ASSERT_TRUE(fns.has_value());
    netlist::Simulator sim(prot.netlist);
    int differing_patterns = 0;
    for (int m = 0; m < 256; m += 64) {
        std::vector<std::uint64_t> pi(prot.netlist.inputs().size());
        for (int bit = 0; bit < 64; ++bit) {
            const int x = m + bit;
            for (std::size_t i = 0; i < pi.size(); ++i)
                if ((x >> i) & 1) pi[i] |= std::uint64_t{1} << bit;
        }
        const auto a = sim.run(pi);
        const auto b = sim.run(pi, 1, {.overrides = *fns});
        std::uint64_t diff = 0;
        for (std::size_t o = 0; o < a.size(); ++o) diff |= a[o] ^ b[o];
        differing_patterns += __builtin_popcountll(diff);
    }
    EXPECT_EQ(differing_patterns, 1);
}

TEST(SarLock, DipCountScalesExponentially) {
    // The point-function property: each DIP eliminates O(1) keys, so the
    // attack's iteration count roughly doubles per key bit.
    std::size_t dips_prev = 0;
    for (const int m : {4, 6, 8}) {
        const auto nl = sarlock_base(10);
        const auto prot = camo::apply_sarlock(nl, m, 41);
        attack::ExactOracle oracle(prot.netlist);
        attack::AttackOptions opt;
        opt.timeout_seconds = 60.0;
        const auto res = attack::sat_attack(prot.netlist, oracle, opt);
        ASSERT_EQ(res.status, attack::AttackResult::Status::Success) << m;
        EXPECT_TRUE(res.key_exact);
        // Needs at least 2^m - 2 DIPs (every wrong key killed individually).
        EXPECT_GE(res.iterations + 2, (1u << m) - 1) << m;
        EXPECT_GT(res.iterations, dips_prev) << m;
        dips_prev = res.iterations;
    }
}

TEST(SarLock, Validation) {
    const auto nl = sarlock_base(4);
    EXPECT_THROW(camo::apply_sarlock(nl, 0, 1), std::invalid_argument);
    EXPECT_THROW(camo::apply_sarlock(nl, 99, 1), std::invalid_argument);
    try {
        camo::apply_sarlock(nl, 5, 1);
        ADD_FAILURE() << "5 bits on 4 primary inputs";
    } catch (const std::invalid_argument& e) {
        // Both counts, so a campaign's error column says what to change.
        EXPECT_NE(std::string(e.what()).find("m_bits = 5"), std::string::npos);
        EXPECT_NE(std::string(e.what()).find("4 primary inputs"),
                  std::string::npos);
    }
}

}  // namespace
}  // namespace gshe

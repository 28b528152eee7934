// Tests for the oracle-guided attacks: exact/stochastic oracles, the
// Subramanyan SAT attack, Double DIP, AppSAT, a semantic spec every attack
// is checked against (brute-force consistent-key sets on small netlists),
// SAT equivalence checking, and the Sec. V-B stochastic-defense behaviour.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "attack/appsat.hpp"
#include "attack/attack.hpp"
#include "attack/double_dip.hpp"
#include "attack/equivalence.hpp"
#include "attack/oracle.hpp"
#include "attack/sat_attack.hpp"
#include "camo/cell_library.hpp"
#include "camo/protect.hpp"
#include "netlist/generator.hpp"

namespace gshe::attack {
namespace {

using camo::apply_camouflage;
using camo::Protection;
using camo::select_gates;
using netlist::Netlist;

Netlist small_circuit(std::uint64_t seed = 5) {
    netlist::RandomSpec spec;
    spec.n_inputs = 18;
    spec.n_outputs = 12;
    spec.n_gates = 160;
    spec.seed = seed;
    return netlist::random_circuit(spec);
}

Protection protect(const Netlist& nl, const camo::CellLibrary& lib,
                   double fraction = 0.12, std::uint64_t seed = 9) {
    return apply_camouflage(nl, select_gates(nl, fraction, seed), lib, seed);
}

// ---- oracles --------------------------------------------------------------------

TEST(Oracle, ExactOracleMatchesSimulation) {
    const Netlist nl = small_circuit();
    ExactOracle oracle(nl);
    netlist::Simulator sim(nl);
    Rng rng(3);
    std::vector<std::uint64_t> pi(nl.inputs().size());
    for (auto& w : pi) w = rng();
    EXPECT_EQ(oracle.query(pi), sim.run(pi));
    EXPECT_EQ(oracle.patterns_queried(), 64u);
}

TEST(Oracle, SingleQueryCountsOnePattern) {
    const Netlist nl = small_circuit();
    ExactOracle oracle(nl);
    (void)oracle.query_single(std::vector<bool>(nl.inputs().size(), false));
    EXPECT_EQ(oracle.patterns_queried(), 1u);
}

TEST(Oracle, StochasticAtFullAccuracyIsExact) {
    const Netlist nl = small_circuit();
    const Protection prot = protect(nl, camo::gshe16());
    StochasticOracle noisy(prot.netlist, 1.0, 11);
    ExactOracle exact(prot.netlist);
    Rng rng(5);
    std::vector<std::uint64_t> pi(nl.inputs().size());
    for (auto& w : pi) w = rng();
    EXPECT_EQ(noisy.query(pi), exact.query(pi));
}

TEST(Oracle, StochasticErrorRateIsCalibrated) {
    const Netlist nl = small_circuit();
    const Protection prot = protect(nl, camo::gshe16(), 0.05);
    // One camouflaged device feeding an output would give a direct rate;
    // measure the aggregate output disturbance instead and require it to be
    // strictly positive and increasing as accuracy drops.
    auto disturbance = [&](double accuracy) {
        StochasticOracle noisy(prot.netlist, accuracy, 13);
        ExactOracle exact(prot.netlist);
        Rng rng(7);
        std::uint64_t diff_bits = 0;
        for (int w = 0; w < 64; ++w) {
            std::vector<std::uint64_t> pi(nl.inputs().size());
            for (auto& word : pi) word = rng();
            const auto a = noisy.query(pi);
            const auto b = exact.query(pi);
            for (std::size_t o = 0; o < a.size(); ++o)
                diff_bits += static_cast<std::uint64_t>(
                    __builtin_popcountll(a[o] ^ b[o]));
        }
        return static_cast<double>(diff_bits);
    };
    const double d99 = disturbance(0.99);
    const double d90 = disturbance(0.90);
    EXPECT_GT(d99, 0.0);
    EXPECT_GT(d90, d99);
}

TEST(Oracle, StochasticValidatesArguments) {
    const Netlist nl = small_circuit();
    const Protection prot = protect(nl, camo::gshe16());
    EXPECT_THROW(StochasticOracle(prot.netlist, 0.0, 1), std::invalid_argument);
    EXPECT_THROW(StochasticOracle(prot.netlist, 1.5, 1), std::invalid_argument);
    EXPECT_THROW(StochasticOracle(prot.netlist, std::vector<double>{0.9}, 1),
                 std::invalid_argument);
}

// ---- SAT attack across all libraries (parameterized) ------------------------------

class AttackEveryLibrary : public ::testing::TestWithParam<std::size_t> {};

TEST_P(AttackEveryLibrary, RecoversExactFunctionality) {
    const camo::CellLibrary& lib = camo::table4_libraries()[GetParam()];
    const Netlist nl = small_circuit(GetParam() + 100);
    const Protection prot = protect(nl, lib);
    ExactOracle oracle(prot.netlist);
    AttackOptions opt;
    opt.timeout_seconds = 60.0;
    const AttackResult res = sat_attack(prot.netlist, oracle, opt);
    ASSERT_EQ(res.status, AttackResult::Status::Success) << lib.name;
    EXPECT_TRUE(res.key_exact) << lib.name;
    // Exact SAT equivalence as the final word.
    const EquivResult eq = check_key_equivalence(prot.netlist, res.key, 60.0);
    EXPECT_EQ(eq.status, EquivStatus::Equivalent) << lib.name;
}

INSTANTIATE_TEST_SUITE_P(AllLibraries, AttackEveryLibrary,
                         ::testing::Range<std::size_t>(0, 7),
                         [](const auto& info) {
                             return camo::table4_libraries()[info.param].name;
                         });

TEST(AttackRegistry, EveryAttackIsExactWithoutCamouflage) {
    // Nothing camouflaged: every attack returns the empty key as an exact
    // success without solving or querying the oracle.
    const Netlist nl = small_circuit();
    ASSERT_TRUE(nl.camo_cells().empty());
    for (const std::string& name : attack_names()) {
        ExactOracle oracle(nl);
        const AttackResult res =
            attack_by_name(name).run(nl, oracle, AttackOptions{});
        EXPECT_EQ(res.status, AttackResult::Status::Success) << name;
        EXPECT_TRUE(res.key_exact) << name;
        EXPECT_EQ(res.key_error_rate, 0.0) << name;
        EXPECT_TRUE(res.key.bits.empty()) << name;
        EXPECT_EQ(res.iterations, 0u) << name;
        EXPECT_EQ(res.oracle_patterns, 0u) << name;
        EXPECT_EQ(oracle.patterns_queried(), 0u) << name;
    }
}

TEST(SatAttack, TimeoutReported) {
    const Netlist nl = netlist::array_multiplier(10);
    const Protection prot = protect(nl, camo::gshe16(), 0.25, 3);
    ExactOracle oracle(prot.netlist);
    AttackOptions opt;
    opt.timeout_seconds = 0.05;  // far too little for a multiplier
    const AttackResult res = sat_attack(prot.netlist, oracle, opt);
    EXPECT_EQ(res.status, AttackResult::Status::TimedOut);
    EXPECT_LE(res.seconds, 5.0);  // bounded overshoot
}

TEST(SatAttack, MoreFunctionsNeedMoreDips) {
    // The Table IV mechanism in miniature: the 16-function primitive forces
    // at least as many (usually more) DIPs than the 2-function one on the
    // same selection.
    const Netlist nl = small_circuit(77);
    const auto sel = select_gates(nl, 0.12, 21);
    const Protection p2 = apply_camouflage(nl, sel, camo::alasad17c_zhang16(), 21);
    const Protection p16 = apply_camouflage(nl, sel, camo::gshe16(), 21);
    ExactOracle o2(p2.netlist);
    ExactOracle o16(p16.netlist);
    const AttackResult r2 = sat_attack(p2.netlist, o2);
    const AttackResult r16 = sat_attack(p16.netlist, o16);
    ASSERT_EQ(r2.status, AttackResult::Status::Success);
    ASSERT_EQ(r16.status, AttackResult::Status::Success);
    EXPECT_GT(r16.iterations, r2.iterations);
    EXPECT_GT(r16.solver_stats.conflicts, 0u);
}

TEST(SatAttack, KeyErrorRateHelper) {
    const Netlist nl = small_circuit(31);
    const Protection prot = protect(nl, camo::gshe16());
    EXPECT_DOUBLE_EQ(key_error_rate(prot.netlist, prot.true_key, 1024, 1), 0.0);
    camo::Key wrong = prot.true_key;
    for (std::size_t i = 0; i < wrong.bits.size(); ++i)
        wrong.bits[i] = !wrong.bits[i];
    EXPECT_GT(key_error_rate(prot.netlist, wrong, 1024, 1), 0.0);
}

TEST(SatAttack, StatusNames) {
    EXPECT_EQ(AttackResult::status_name(AttackResult::Status::Success), "success");
    EXPECT_EQ(AttackResult::status_name(AttackResult::Status::TimedOut), "t-o");
    EXPECT_EQ(AttackResult::status_name(AttackResult::Status::Inconsistent),
              "inconsistent");
}

// ---- Double DIP ------------------------------------------------------------------

TEST(DoubleDip, RecoversExactFunctionality) {
    const Netlist nl = small_circuit(41);
    const Protection prot = protect(nl, camo::gshe16());
    ExactOracle oracle(prot.netlist);
    AttackOptions opt;
    opt.timeout_seconds = 120.0;
    const AttackResult res = double_dip_attack(prot.netlist, oracle, opt);
    ASSERT_EQ(res.status, AttackResult::Status::Success);
    EXPECT_TRUE(res.key_exact);
}

Netlist one_camo_cell() {
    Netlist nl("tiny");
    const auto a = nl.add_input("a");
    const auto b = nl.add_input("b");
    const auto g = nl.add_gate(core::Bool2::NAND(), a, b);
    nl.add_output(g, "y");
    nl.camouflage(g, camo::gshe16().functions, "gshe16");
    return nl;
}

TEST(DoubleDip, WorksOnTinyKeySpace) {
    // One camouflaged cell: phase 1 records three 2-DIPs before its miter
    // goes UNSAT; phase 2 finishes.
    const Netlist nl = one_camo_cell();
    ExactOracle oracle(nl);
    const AttackResult res = double_dip_attack(nl, oracle);
    ASSERT_EQ(res.status, AttackResult::Status::Success);
    EXPECT_TRUE(res.key_exact);
}

TEST(DoubleDip, CountsBothPhasesSolverWork) {
    // Phase 1's 2-DIP miter takes 111 conflicts to record its three 2-DIPs
    // and refute a fourth, phase 2's miter 34. The result reports both
    // solvers, not only the one that finished.
    const Netlist nl = one_camo_cell();
    ExactOracle oracle(nl);
    const AttackResult res = double_dip_attack(nl, oracle);
    ASSERT_EQ(res.status, AttackResult::Status::Success);
    EXPECT_EQ(res.solver_stats.conflicts, 145u);
}

TEST(DoubleDip, TimeoutReported) {
    const Netlist nl = netlist::array_multiplier(10);
    const Protection prot = protect(nl, camo::gshe16(), 0.25, 3);
    ExactOracle oracle(prot.netlist);
    AttackOptions opt;
    opt.timeout_seconds = 0.05;
    const AttackResult res = double_dip_attack(prot.netlist, oracle, opt);
    EXPECT_EQ(res.status, AttackResult::Status::TimedOut);
}

// ---- AppSAT ----------------------------------------------------------------------

TEST(AppSat, ExactOnDeterministicOracle) {
    const Netlist nl = small_circuit(51);
    const Protection prot = protect(nl, camo::gshe16());
    ExactOracle oracle(prot.netlist);
    AppSatOptions opt;
    opt.base.timeout_seconds = 120.0;
    const AttackResult res = appsat_attack(prot.netlist, oracle, opt);
    ASSERT_EQ(res.status, AttackResult::Status::Success);
    // AppSAT settles on a probably-approximately-correct key; on this small
    // deterministic instance the sampled error must be tiny.
    EXPECT_LT(res.key_error_rate, 0.02);
}

// ---- stochastic defense (Sec. V-B) --------------------------------------------------

class StochasticDefense : public ::testing::TestWithParam<double> {};

TEST_P(StochasticDefense, AttackFailsOrRecoversWrongKey) {
    const double accuracy = GetParam();
    const Netlist nl = small_circuit(61);
    const Protection prot = protect(nl, camo::gshe16(), 0.15);
    StochasticOracle oracle(prot.netlist, accuracy, 17);
    AttackOptions opt;
    opt.timeout_seconds = 60.0;
    const AttackResult res = sat_attack(prot.netlist, oracle, opt);
    // The paper's claim: the attack either becomes inconsistent (no key
    // matches the noisy observations) or converges to a wrong key.
    const bool defeated =
        res.status == AttackResult::Status::Inconsistent ||
        (res.status == AttackResult::Status::Success && !res.key_exact) ||
        res.status == AttackResult::Status::TimedOut;
    EXPECT_TRUE(defeated) << "accuracy " << accuracy << " status "
                          << AttackResult::status_name(res.status);
}

INSTANTIATE_TEST_SUITE_P(AccuracySweep, StochasticDefense,
                         ::testing::Values(0.90, 0.95, 0.99));

TEST(StochasticDefense, DeterministicRegimeStillBreakable) {
    // Control experiment: accuracy 1.0 reduces to the classical attack.
    const Netlist nl = small_circuit(61);
    const Protection prot = protect(nl, camo::gshe16(), 0.15);
    StochasticOracle oracle(prot.netlist, 1.0, 17);
    const AttackResult res = sat_attack(prot.netlist, oracle);
    ASSERT_EQ(res.status, AttackResult::Status::Success);
    EXPECT_TRUE(res.key_exact);
}

// ---- semantic spec: brute-force consistent-key sets ----------------------------------

/// Every key whose circuit equals the oracle (the true functions) on all
/// 2^n input patterns, by exhaustive enumeration of inputs and key codes —
/// the specification the attacks are checked against, independent of any
/// SAT encoding. Key codes that decode to no function are skipped.
std::set<std::vector<bool>> consistent_keys(const Netlist& camo_nl) {
    const std::size_t n = camo_nl.inputs().size();
    const std::size_t patterns = std::size_t{1} << n;
    const std::size_t words = patterns < 64 ? 1 : patterns / 64;
    // Input-major, pattern p = 64 * word + lane (wrapping modulo 2^n when
    // there are fewer patterns than lanes).
    std::vector<std::uint64_t> pi(n * words, 0);
    for (std::size_t w = 0; w < words; ++w)
        for (std::size_t lane = 0; lane < 64; ++lane) {
            const std::size_t p = (64 * w + lane) % patterns;
            for (std::size_t i = 0; i < n; ++i)
                if ((p >> i) & 1) pi[i * words + w] |= std::uint64_t{1} << lane;
        }
    const netlist::Simulator sim(camo_nl);
    const std::vector<std::uint64_t> truth = sim.run(pi, words);

    const auto bits = static_cast<std::size_t>(camo_nl.key_bit_count());
    std::set<std::vector<bool>> keys;
    for (std::uint64_t code = 0; code < (std::uint64_t{1} << bits); ++code) {
        camo::Key key;
        for (std::size_t b = 0; b < bits; ++b) key.bits.push_back((code >> b) & 1);
        const auto fns = camo::functions_for_key(camo_nl, key);
        if (fns && sim.run(pi, words, {.overrides = *fns}) == truth)
            keys.insert(key.bits);
    }
    return keys;
}

TEST(SemanticSpec, EveryAttackRecoversAKeyInTheConsistentSet) {
    // Random gshe16-camouflaged netlists with at most 10 primary inputs and
    // at most 3 cells (12 key bits): small enough to enumerate every input
    // and every key. Each attack must succeed with a key from that set.
    std::size_t checked = 0;
    for (std::uint64_t seed = 1; seed <= 120; ++seed) {
        netlist::RandomSpec spec;
        spec.n_inputs = 3 + static_cast<int>(seed % 8);
        spec.n_outputs = 1 + static_cast<int>(seed % 4);
        spec.n_gates = 15 + static_cast<int>(seed % 25);
        spec.seed = seed;
        const Netlist plain = netlist::random_circuit(spec);
        const double cells = static_cast<double>(1 + seed % 3);
        const Protection prot = protect(
            plain, camo::gshe16(),
            cells / static_cast<double>(plain.logic_gate_count()), seed);
        const Netlist& nl = prot.netlist;
        if (nl.camo_cells().empty()) continue;
        ASSERT_LE(nl.inputs().size(), 10u);
        ASSERT_LE(nl.key_bit_count(), 12);
        ++checked;

        const std::set<std::vector<bool>> keys = consistent_keys(nl);
        ASSERT_EQ(keys.count(prot.true_key.bits), 1u) << "seed " << seed;
        for (const char* name : {"sat", "double_dip", "appsat"}) {
            ExactOracle oracle(nl);
            AttackOptions opt;
            opt.appsat_error_threshold = 0.0;
            const AttackResult res = attack_by_name(name).run(nl, oracle, opt);
            ASSERT_EQ(res.status, AttackResult::Status::Success)
                << name << " seed " << seed;
            EXPECT_EQ(keys.count(res.key.bits), 1u)
                << name << " seed " << seed << " key " << res.key.to_string();
        }
    }
    EXPECT_GE(checked, 100u);
}

// ---- equivalence checker -------------------------------------------------------------

TEST(Equivalence, IdenticalCircuitsEquivalent) {
    const Netlist a = small_circuit(71);
    const Netlist b = small_circuit(71);
    EXPECT_EQ(check_equivalence(a, b).status, EquivStatus::Equivalent);
}

TEST(Equivalence, DifferentCircuitsWithCounterexample) {
    const Netlist a = small_circuit(72);
    // Same structure with one gate function complemented: same interface,
    // provably different function.
    Netlist b = small_circuit(72);
    const netlist::GateId victim = b.outputs()[0].gate;
    ASSERT_EQ(b.gate(victim).type, netlist::CellType::Logic);
    b.gate(victim).fn = b.gate(victim).fn.complement();
    const EquivResult res = check_equivalence(a, b);
    ASSERT_EQ(res.status, EquivStatus::Different);
    ASSERT_TRUE(res.counterexample.has_value());
    // The counterexample really distinguishes them.
    ExactOracle oa(a), ob(b);
    EXPECT_NE(oa.query_single(*res.counterexample),
              ob.query_single(*res.counterexample));
}

TEST(Equivalence, KeyEquivalenceDetectsWrongKey) {
    const Netlist nl = small_circuit(74);
    const Protection prot = protect(nl, camo::gshe16());
    EXPECT_EQ(check_key_equivalence(prot.netlist, prot.true_key).status,
              EquivStatus::Equivalent);
    camo::Key wrong = prot.true_key;
    wrong.bits[2] = !wrong.bits[2];
    // A single-bit key flip on the 16-function cell changes one truth-table
    // row of one gate: almost always functionally different.
    const EquivResult res = check_key_equivalence(prot.netlist, wrong);
    EXPECT_EQ(res.status, EquivStatus::Different);
}

TEST(Equivalence, InterfaceMismatchThrows) {
    const Netlist a = small_circuit(75);
    netlist::RandomSpec spec;
    spec.n_inputs = 4;
    spec.n_outputs = 4;
    spec.n_gates = 20;
    const Netlist b = netlist::random_circuit(spec);
    EXPECT_THROW(check_equivalence(a, b), std::invalid_argument);
}

}  // namespace
}  // namespace gshe::attack

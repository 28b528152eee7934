// Tests for assumption-guarded key extraction (attack/miter_detail.hpp): DIP
// history dedup, the guarded difference constraint, and that an AppSAT run
// grows its one miter by agreements only (zero full re-encodes after the
// initial miter, whatever the number of settlement extractions).
#include <gtest/gtest.h>

#include <vector>

#include "attack/appsat.hpp"
#include "attack/miter_detail.hpp"
#include "attack/oracle.hpp"
#include "camo/cell_library.hpp"
#include "camo/protect.hpp"
#include "netlist/generator.hpp"
#include "netlist/netlist.hpp"
#include "sat/encoder.hpp"
#include "sat/solver.hpp"

namespace gshe {
namespace {

using netlist::Netlist;
using sat::CircuitEncoder;
using sat::Lit;
using sat::SolveResult;

// ---- history dedup ----------------------------------------------------------

TEST(History, SkipsExactDuplicatesButKeepsConflictingObservations) {
    attack::detail::History h;
    const std::vector<bool> x{true, false, true};
    const std::vector<bool> y0{false};
    const std::vector<bool> y1{true};

    EXPECT_TRUE(h.add(x, y0));
    EXPECT_EQ(h.size(), 1u);
    // Exact duplicate: skipped (AppSAT re-drawing a reinforcement pattern).
    EXPECT_TRUE(h.contains(x, y0));
    EXPECT_FALSE(h.add(x, y0));
    EXPECT_EQ(h.size(), 1u);
    // Same input, different output: a stochastic oracle answering
    // inconsistently is a real observation and must be kept.
    EXPECT_FALSE(h.contains(x, y1));
    EXPECT_TRUE(h.add(x, y1));
    EXPECT_EQ(h.size(), 2u);
    // A different input records normally.
    EXPECT_TRUE(h.add({false, false, false}, y0));
    EXPECT_EQ(h.size(), 3u);
}

// ---- guarded difference -----------------------------------------------------

TEST(GuardedDifference, ExtractionSolveDoesNotSeeTheDifference) {
    // The selector contract in miniature: two copies of the same plain
    // circuit on shared PIs can never differ, so the guarded difference is
    // Unsat under {guard} — and the extraction face of the solver, assuming
    // {~guard}, must still be satisfiable because no difference clause
    // leaked in unguarded.
    netlist::RandomSpec spec;
    spec.n_inputs = 8;
    spec.n_outputs = 5;
    spec.n_gates = 30;
    spec.seed = 515;
    const Netlist nl = netlist::random_circuit(spec);

    sat::Solver s;
    CircuitEncoder enc(s);
    const sat::Encoding e1 = enc.encode(nl);
    const sat::Encoding e2 = enc.encode(nl, e1.pis);
    const Lit guard(s.new_var(), false);
    enc.add_difference(e1.outs, e2.outs, guard);

    EXPECT_EQ(s.solve({guard}), SolveResult::Unsat);
    EXPECT_EQ(s.solve({~guard}), SolveResult::Sat);
    // The guard is an assumption, not a decision the solver may flip: the
    // DIP face stays Unsat and the extraction face Sat on repeat solves.
    EXPECT_EQ(s.solve({guard}), SolveResult::Unsat);
    EXPECT_EQ(s.solve({~guard}), SolveResult::Sat);
}

TEST(GuardedDifference, GuardedMiterFindsTheSameDipsAsUnguarded) {
    // On a camouflaged miter (real keys), the guarded difference under
    // {guard} must behave exactly like the baked-in difference: satisfiable
    // while a DIP exists, with the same admissible key pairs.
    netlist::RandomSpec spec;
    spec.n_inputs = 8;
    spec.n_outputs = 5;
    spec.n_gates = 30;
    spec.seed = 616;
    const Netlist plain = netlist::random_circuit(spec);
    const camo::Protection prot = camo::apply_camouflage(
        plain, camo::select_gates(plain, 0.10, 9), camo::gshe16(), 9);
    ASSERT_FALSE(prot.netlist.camo_cells().empty());

    sat::Solver baked_s, guarded_s;
    CircuitEncoder baked(baked_s), guarded(guarded_s);
    const sat::Encoding b1 = baked.encode(prot.netlist);
    const sat::Encoding b2 = baked.encode(prot.netlist, b1.pis);
    baked.add_difference(b1.outs, b2.outs);
    const sat::Encoding g1 = guarded.encode(prot.netlist);
    const sat::Encoding g2 = guarded.encode(prot.netlist, g1.pis);
    const Lit guard(guarded_s.new_var(), false);
    guarded.add_difference(g1.outs, g2.outs, guard);

    EXPECT_EQ(guarded_s.solve({guard}), baked_s.solve());
}

// ---- agreement-only growth --------------------------------------------------

TEST(InplaceAttack, AppSatGrowsTheFormulaByAgreementsOnly) {
    // An AppSAT run — the settlement-heavy workload — must never re-encode
    // the circuit after the initial miter: encoder-visible variables and
    // clauses beyond the agreement constraints must equal a bare two-copy
    // miter encode, bit for bit, however many extractions it ran.
    netlist::RandomSpec spec;
    spec.n_inputs = 12;
    spec.n_outputs = 8;
    spec.n_gates = 60;
    spec.seed = 33;
    const Netlist plain = netlist::random_circuit(spec);
    const camo::Protection prot = camo::apply_camouflage(
        plain, camo::select_gates(plain, 0.12, 3), camo::gshe16(), 3);
    ASSERT_FALSE(prot.netlist.camo_cells().empty());

    // The whole preamble: two-copy miter plus the guarded difference.
    // Everything the attack encodes beyond this must be agreement CNF.
    sat::Solver s;
    CircuitEncoder enc(s);
    const sat::Encoding e1 = enc.encode(prot.netlist);
    const sat::Encoding e2 = enc.encode(prot.netlist, e1.pis);
    enc.add_difference(e1.outs, e2.outs, Lit(s.new_var(), false));
    const sat::EncoderStats& bare = enc.stats();

    attack::ExactOracle oracle(prot.netlist);
    const attack::AttackResult res =
        attack::appsat_attack(prot.netlist, oracle, attack::AppSatOptions{});
    ASSERT_EQ(res.status, attack::AttackResult::Status::Success);
    EXPECT_GE(res.inplace_extractions, 1u);

    const auto& es = res.encoder_stats;
    EXPECT_EQ(es.vars - es.agreement_vars, bare.vars);
    EXPECT_EQ(es.clauses - es.agreement_clauses, bare.clauses);
}

}  // namespace
}  // namespace gshe

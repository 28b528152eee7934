// Tests for the CDCL SAT solver, the CNF encoder's key and input
// plumbing, DIMACS I/O, and make_backend: unit-level behaviours,
// brute-force cross-checks on random formulas, structured UNSAT instances
// and budgets.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "common/rng.hpp"
#include "netlist/generator.hpp"
#include "sat/backend.hpp"
#include "sat/dimacs.hpp"
#include "sat/encoder.hpp"
#include "sat/solver.hpp"

namespace gshe::sat {
namespace {

using Result = Solver::Result;

// ---- Lit / types ---------------------------------------------------------------

TEST(Lit, PackingAndNegation) {
    const Lit a(5, false);
    EXPECT_EQ(a.var(), 5);
    EXPECT_FALSE(a.negated());
    EXPECT_TRUE((~a).negated());
    EXPECT_EQ((~a).var(), 5);
    EXPECT_EQ(~~a, a);
    EXPECT_EQ(a.code(), 10);
    EXPECT_EQ((~a).code(), 11);
}

TEST(LBool, Negation) {
    EXPECT_EQ(negate(LBool::True), LBool::False);
    EXPECT_EQ(negate(LBool::False), LBool::True);
    EXPECT_EQ(negate(LBool::Undef), LBool::Undef);
}

// ---- solver basics ---------------------------------------------------------------

TEST(Solver, EmptyFormulaIsSat) {
    Solver s;
    EXPECT_EQ(s.solve(), Result::Sat);
}

TEST(Solver, UnitPropagationChain) {
    Solver s;
    const Var a = s.new_var(), b = s.new_var(), c = s.new_var();
    s.add_clause(Lit(a, false));
    s.add_clause(Lit(a, true), Lit(b, false));
    s.add_clause(Lit(b, true), Lit(c, false));
    ASSERT_EQ(s.solve(), Result::Sat);
    EXPECT_TRUE(s.model_bool(a));
    EXPECT_TRUE(s.model_bool(b));
    EXPECT_TRUE(s.model_bool(c));
}

TEST(Solver, ContradictingUnitsAreUnsat) {
    Solver s;
    const Var a = s.new_var();
    EXPECT_TRUE(s.add_clause(Lit(a, false)));
    EXPECT_FALSE(s.add_clause(Lit(a, true)));
    EXPECT_EQ(s.solve(), Result::Unsat);
}

TEST(Solver, TautologyIgnored) {
    Solver s;
    const Var a = s.new_var();
    EXPECT_TRUE(s.add_clause(Clause{Lit(a, false), Lit(a, true)}));
    EXPECT_EQ(s.solve(), Result::Sat);
}

TEST(Solver, DuplicateLiteralsCollapse) {
    Solver s;
    const Var a = s.new_var();
    s.add_clause(Clause{Lit(a, false), Lit(a, false), Lit(a, false)});
    ASSERT_EQ(s.solve(), Result::Sat);
    EXPECT_TRUE(s.model_bool(a));
}

TEST(Solver, SimpleUnsatCore) {
    // (a|b) & (a|!b) & (!a|b) & (!a|!b) is UNSAT.
    Solver s;
    const Var a = s.new_var(), b = s.new_var();
    s.add_clause(Lit(a, false), Lit(b, false));
    s.add_clause(Lit(a, false), Lit(b, true));
    s.add_clause(Lit(a, true), Lit(b, false));
    s.add_clause(Lit(a, true), Lit(b, true));
    EXPECT_EQ(s.solve(), Result::Unsat);
}

TEST(Solver, XorChainSatisfiable) {
    // x0 ^ x1 ^ ... ^ x9 = 1 encoded through fresh XOR outputs.
    Solver s;
    // y = a ^ b as a fresh variable: one clause per falsifying row.
    const auto add_xor = [&](Var a, Var b) {
        const Var y = s.new_var();
        s.add_clause(Lit(a, true), Lit(b, true), Lit(y, true));
        s.add_clause(Lit(a, false), Lit(b, false), Lit(y, true));
        s.add_clause(Lit(a, true), Lit(b, false), Lit(y, false));
        s.add_clause(Lit(a, false), Lit(b, true), Lit(y, false));
        return y;
    };
    std::vector<Var> xs;
    for (int i = 0; i < 10; ++i) xs.push_back(s.new_var());
    Var acc = xs[0];
    for (int i = 1; i < 10; ++i) acc = add_xor(acc, xs[i]);
    s.add_clause(Lit(acc, false));
    ASSERT_EQ(s.solve(), Result::Sat);
    bool parity = false;
    for (Var v : xs) parity ^= s.model_bool(v);
    EXPECT_TRUE(parity);
}

TEST(Solver, PigeonholeUnsat) {
    // PHP(n+1, n): classic resolution-hard family; n=5 stays fast.
    const int holes = 5, pigeons = 6;
    Solver s;
    std::vector<std::vector<Var>> x(pigeons, std::vector<Var>(holes));
    for (auto& row : x)
        for (auto& v : row) v = s.new_var();
    for (int p = 0; p < pigeons; ++p) {
        Clause c;
        for (int h = 0; h < holes; ++h) c.push_back(Lit(x[p][h], false));
        s.add_clause(c);
    }
    for (int h = 0; h < holes; ++h)
        for (int p1 = 0; p1 < pigeons; ++p1)
            for (int p2 = p1 + 1; p2 < pigeons; ++p2)
                s.add_clause(Lit(x[p1][h], true), Lit(x[p2][h], true));
    EXPECT_EQ(s.solve(), Result::Unsat);
    EXPECT_GT(s.stats().conflicts, 10u);
}

TEST(Solver, AssumptionsSelectBranches) {
    Solver s;
    const Var a = s.new_var(), b = s.new_var();
    s.add_clause(Lit(a, false), Lit(b, false));  // a | b
    ASSERT_EQ(s.solve({Lit(a, true)}), Result::Sat);  // assume !a
    EXPECT_TRUE(s.model_bool(b));
    ASSERT_EQ(s.solve({Lit(b, true)}), Result::Sat);  // assume !b
    EXPECT_TRUE(s.model_bool(a));
    EXPECT_EQ(s.solve({Lit(a, true), Lit(b, true)}), Result::Unsat);
    // The solver remains usable after assumption-UNSAT.
    EXPECT_EQ(s.solve(), Result::Sat);
}

TEST(Solver, AssumptionsContradictoryOnlyMidSearch) {
    // PHP(6,5) with every clause weakened by two guard literals: the
    // formula is satisfiable (drop either guard), but assuming both guards
    // re-activates the pigeonhole contradiction — which only surfaces after
    // real search, via learnt clauses falsified inside the assumption
    // prefix. Regression for the formerly dead bt_level < assume_level
    // branch in Solver::search.
    const int holes = 5, pigeons = 6;
    Solver s;
    const Var g1 = s.new_var(), g2 = s.new_var();
    std::vector<std::vector<Var>> x(pigeons, std::vector<Var>(holes));
    for (auto& row : x)
        for (auto& v : row) v = s.new_var();
    const auto guarded = [&](Clause c) {
        c.push_back(Lit(g1, true));
        c.push_back(Lit(g2, true));
        s.add_clause(std::move(c));
    };
    for (int p = 0; p < pigeons; ++p) {
        Clause c;
        for (int h = 0; h < holes; ++h) c.push_back(Lit(x[p][h], false));
        guarded(std::move(c));
    }
    for (int h = 0; h < holes; ++h)
        for (int p1 = 0; p1 < pigeons; ++p1)
            for (int p2 = p1 + 1; p2 < pigeons; ++p2)
                guarded(Clause{Lit(x[p1][h], true), Lit(x[p2][h], true)});
    EXPECT_EQ(s.solve({Lit(g1, false), Lit(g2, false)}), Result::Unsat);
    EXPECT_GT(s.stats().conflicts, 0u);
    // One guard released: satisfiable again; the solver stays usable.
    ASSERT_EQ(s.solve({Lit(g1, false)}), Result::Sat);
    ASSERT_EQ(s.solve(), Result::Sat);
}

TEST(Solver, IncrementalClauseAddition) {
    Solver s;
    const Var a = s.new_var(), b = s.new_var();
    s.add_clause(Lit(a, false), Lit(b, false));
    ASSERT_EQ(s.solve(), Result::Sat);
    s.add_clause(Lit(a, true));
    ASSERT_EQ(s.solve(), Result::Sat);
    EXPECT_TRUE(s.model_bool(b));
    s.add_clause(Lit(b, true));
    EXPECT_EQ(s.solve(), Result::Unsat);
}

TEST(Solver, ConflictBudgetReturnsUnknown) {
    // A hard instance with a 1-conflict budget must give up.
    const int holes = 8, pigeons = 9;
    Solver s;
    std::vector<std::vector<Var>> x(pigeons, std::vector<Var>(holes));
    for (auto& row : x)
        for (auto& v : row) v = s.new_var();
    for (int p = 0; p < pigeons; ++p) {
        Clause c;
        for (int h = 0; h < holes; ++h) c.push_back(Lit(x[p][h], false));
        s.add_clause(c);
    }
    for (int h = 0; h < holes; ++h)
        for (int p1 = 0; p1 < pigeons; ++p1)
            for (int p2 = p1 + 1; p2 < pigeons; ++p2)
                s.add_clause(Lit(x[p1][h], true), Lit(x[p2][h], true));
    Solver::Budget budget;
    budget.max_conflicts = 1;
    s.set_budget(budget);
    EXPECT_EQ(s.solve(), Result::Unknown);
}

TEST(Solver, TimeBudgetReturnsUnknown) {
    const int holes = 11, pigeons = 12;  // too hard for a microsecond
    Solver s;
    std::vector<std::vector<Var>> x(pigeons, std::vector<Var>(holes));
    for (auto& row : x)
        for (auto& v : row) v = s.new_var();
    for (int p = 0; p < pigeons; ++p) {
        Clause c;
        for (int h = 0; h < holes; ++h) c.push_back(Lit(x[p][h], false));
        s.add_clause(c);
    }
    for (int h = 0; h < holes; ++h)
        for (int p1 = 0; p1 < pigeons; ++p1)
            for (int p2 = p1 + 1; p2 < pigeons; ++p2)
                s.add_clause(Lit(x[p1][h], true), Lit(x[p2][h], true));
    Solver::Budget budget;
    budget.max_seconds = 1e-6;
    s.set_budget(budget);
    EXPECT_EQ(s.solve(), Result::Unknown);
}

TEST(Solver, StatsAreRecorded) {
    Solver s;
    const Var a = s.new_var(), b = s.new_var(), c = s.new_var();
    s.add_clause(Lit(a, false), Lit(b, false), Lit(c, false));
    s.add_clause(Lit(a, true), Lit(b, true));
    ASSERT_EQ(s.solve(), Result::Sat);
    EXPECT_GT(s.stats().decisions + s.stats().propagations, 0u);
}

// ---- brute-force cross-check ---------------------------------------------------

bool brute_force_sat(const std::vector<Clause>& clauses, int nv) {
    for (int m = 0; m < (1 << nv); ++m) {
        bool all = true;
        for (const auto& c : clauses) {
            bool sat = false;
            for (Lit l : c) {
                const bool val = ((m >> l.var()) & 1) != 0;
                if (l.negated() ? !val : val) {
                    sat = true;
                    break;
                }
            }
            if (!sat) {
                all = false;
                break;
            }
        }
        if (all) return true;
    }
    return false;
}

TEST(SolverCrossCheck, RandomThreeSatAgreesWithBruteForce) {
    Rng rng(0x3c4ec);
    for (int trial = 0; trial < 400; ++trial) {
        const int nv = 4 + static_cast<int>(rng.below(8));
        const int nc = static_cast<int>(nv * (3.0 + rng.uniform() * 2.5));
        std::vector<Clause> clauses;
        for (int i = 0; i < nc; ++i) {
            Clause c;
            for (int j = 0; j < 3; ++j)
                c.push_back(Lit(static_cast<Var>(rng.below(nv)), rng.bernoulli(0.5)));
            clauses.push_back(c);
        }
        Solver s;
        for (int v = 0; v < nv; ++v) s.new_var();
        bool ok = true;
        for (const auto& c : clauses)
            if (!s.add_clause(c)) {
                ok = false;
                break;
            }
        const Result r = ok ? s.solve() : Result::Unsat;
        const bool expect = brute_force_sat(clauses, nv);
        ASSERT_EQ(r == Result::Sat, expect) << "trial " << trial;
        if (r == Result::Sat) {
            for (const auto& c : clauses) {
                bool sat = false;
                for (Lit l : c)
                    if (l.negated() ? !s.model_bool(l.var()) : s.model_bool(l.var()))
                        sat = true;
                ASSERT_TRUE(sat) << "invalid model, trial " << trial;
            }
        }
    }
}

// ---- chronological backtracking -----------------------------------------------
//
// A learnt clause whose backjump would cross more than Solver::kChronoLevels
// levels backtracks one level instead. That leaves literals below the
// current level on the trail, conflicts below the current level, and
// conflicts with a single literal on their level. Independent planted
// blocks make all three routine: a block's variable ids interleave with the
// other blocks', so VSIDS spreads one block over many decision levels, and a
// clause learnt in one block jumps over the levels of the others. Each block
// is small enough to brute-force.
//
// Checked against mutants of the solver. A first-UIP walk that resolves on
// a seen literal below the current level crashes this test. Two more fail
// only over ten times these formulas (1,800 solves): a single-literal
// conflict that keeps its old second watch and asserts at that watch's
// level (a crash), and a backtrack that does not propagate the literals it
// keeps (a wrong answer in formula 181). Dropping the re-watch of a
// conflict whose watches both sit below its level passes at any size: no
// search of this family meets one.

TEST(ChronoBacktrack, PlantedBlocksMatchBruteForce) {
    constexpr int kBlocks = 150;
    constexpr int kBlockVars = 10;
    constexpr std::size_t kBlockClauses = 40;
    // Local variable i of block b is solver variable i * kBlocks + b.
    const auto block_of = [](Var v) { return static_cast<std::size_t>(v % kBlocks); };
    const auto bit_of = [](Var v) { return 1u << (v / kBlocks); };
    const auto holds = [&](Lit l, std::uint32_t assignment) {
        return ((assignment & bit_of(l.var())) != 0) != l.negated();
    };
    Rng rng(0xc0b7);
    std::uint64_t chrono_backtracks = 0;
    for (int formula = 0; formula < 30; ++formula) {
        Solver s;
        for (int v = 0; v < kBlocks * kBlockVars; ++v) s.new_var();
        std::vector<std::uint32_t> planted(kBlocks);
        std::vector<std::vector<Clause>> clauses(kBlocks);
        for (int b = 0; b < kBlocks; ++b) {
            planted[static_cast<std::size_t>(b)] =
                static_cast<std::uint32_t>(rng.below(1u << kBlockVars));
            auto& block = clauses[static_cast<std::size_t>(b)];
            while (block.size() < kBlockClauses) {
                Clause c;
                while (c.size() < 3) {
                    const auto v = static_cast<Var>(
                        static_cast<int>(rng.below(kBlockVars)) * kBlocks + b);
                    const Lit l(v, rng.bernoulli(0.5));
                    if (std::none_of(c.begin(), c.end(),
                                     [&](Lit o) { return o.var() == v; }))
                        c.push_back(l);
                }
                if (std::none_of(c.begin(), c.end(), [&](Lit l) {
                        return holds(l, planted[static_cast<std::size_t>(b)]);
                    }))
                    continue;
                block.push_back(c);
                ASSERT_TRUE(s.add_clause(c));
            }
        }
        // Every satisfying assignment of every block.
        std::vector<std::vector<std::uint32_t>> solutions(kBlocks);
        for (std::size_t b = 0; b < solutions.size(); ++b)
            for (std::uint32_t m = 0; m < (1u << kBlockVars); ++m)
                if (std::all_of(clauses[b].begin(), clauses[b].end(), [&](const Clause& c) {
                        return std::any_of(c.begin(), c.end(),
                                           [&](Lit l) { return holds(l, m); });
                    }))
                    solutions[b].push_back(m);

        for (int round = 0; round < 6; ++round) {
            std::vector<Lit> assumptions;
            const std::uint64_t n = round == 0 ? 0 : rng.below(20);
            for (std::uint64_t k = 0; k < n; ++k) {
                const auto v = static_cast<Var>(rng.below(kBlocks * kBlockVars));
                const bool planted_value = (planted[block_of(v)] & bit_of(v)) != 0;
                const bool value = rng.bernoulli(0.9) ? planted_value : !planted_value;
                assumptions.push_back(Lit(v, !value));
            }
            // Sat iff every block has a solution that agrees with the
            // assumptions on its variables.
            std::vector<std::uint32_t> fixed(kBlocks, 0), want(kBlocks, 0);
            bool expect_sat = true;
            for (const Lit a : assumptions) {
                const std::size_t b = block_of(a.var());
                const std::uint32_t bit = bit_of(a.var());
                const std::uint32_t value = a.negated() ? 0 : bit;
                if ((fixed[b] & bit) != 0 && (want[b] & bit) != value) expect_sat = false;
                fixed[b] |= bit;
                want[b] |= value;
            }
            for (std::size_t b = 0; b < solutions.size(); ++b)
                if (std::none_of(solutions[b].begin(), solutions[b].end(),
                                 [&](std::uint32_t m) { return (m & fixed[b]) == want[b]; }))
                    expect_sat = false;

            const Result r = s.solve(assumptions);
            ASSERT_EQ(r == Result::Sat, expect_sat)
                << "formula " << formula << ", solve " << round;
            if (r != Result::Sat) {
                ASSERT_EQ(r, Result::Unsat);
                continue;
            }
            const auto model_holds = [&](Lit l) { return s.model_bool(l.var()) != l.negated(); };
            for (const auto& block : clauses)
                for (const Clause& c : block)
                    ASSERT_TRUE(std::any_of(c.begin(), c.end(), model_holds))
                        << "formula " << formula << ", solve " << round;
            for (const Lit a : assumptions)
                ASSERT_TRUE(model_holds(a)) << "formula " << formula << ", solve " << round;
        }
        chrono_backtracks += s.stats().chrono_backtracks;
    }
    EXPECT_GT(chrono_backtracks, 0u);
}

// ---- CNF encoder ------------------------------------------------------------

TEST(CircuitEncoder, CamoGateKeySelectsFunction) {
    using core::Bool2;
    netlist::Netlist nl("t");
    const auto a = nl.add_input("a");
    const auto b = nl.add_input("b");
    const auto g = nl.add_gate(Bool2::AND(), a, b);
    nl.add_output(g, "y");
    nl.camouflage(g, {Bool2::AND(), Bool2::OR(), Bool2::XOR()}, "lib");

    Solver s;
    CircuitEncoder encoder(s);
    const Encoding enc = encoder.encode(nl);
    ASSERT_EQ(enc.keys.size(), 2u);
    // For each valid key code, outputs must match the selected candidate.
    const Bool2 cands[] = {Bool2::AND(), Bool2::OR(), Bool2::XOR()};
    for (int code = 0; code < 3; ++code) {
        for (int va = 0; va < 2; ++va)
            for (int vb = 0; vb < 2; ++vb) {
                std::vector<Lit> assume = {
                    Lit(enc.keys[0], (code & 1) == 0),
                    Lit(enc.keys[1], (code & 2) == 0),
                    Lit(enc.pis[0], va == 0),
                    Lit(enc.pis[1], vb == 0),
                };
                ASSERT_EQ(s.solve(assume), Result::Sat);
                const Lit out = enc.outs[0];
                ASSERT_EQ(s.model_bool(out.var()) != out.negated(),
                          cands[code].eval(va != 0, vb != 0))
                    << "code " << code << " a " << va << " b " << vb;
            }
    }
    // The unused code 3 is forbidden.
    EXPECT_EQ(s.solve({Lit(enc.keys[0], false), Lit(enc.keys[1], false)}),
              Result::Unsat);
}

TEST(CircuitEncoder, SharedPisCoupleInstances) {
    netlist::RandomSpec spec;
    spec.n_inputs = 8;
    spec.n_outputs = 4;
    spec.n_gates = 40;
    spec.seed = 31;
    const netlist::Netlist nl = netlist::random_circuit(spec);
    Solver s;
    CircuitEncoder encoder(s);
    const auto e1 = encoder.encode(nl);
    const auto e2 = encoder.encode(nl, e1.pis);
    EXPECT_EQ(e2.pis, e1.pis);
    // Two copies of the same plain circuit on the same inputs can never
    // differ: forcing a difference must be UNSAT.
    encoder.add_difference(e1.outs, e2.outs);
    EXPECT_EQ(s.solve(), Result::Unsat);
}

TEST(CircuitEncoder, RejectsSequentialNetlists) {
    netlist::Netlist nl("seq");
    const auto d = nl.add_input("d");
    nl.add_dff(d, "ff");
    Solver s;
    CircuitEncoder encoder(s);
    EXPECT_THROW(encoder.encode(nl), std::invalid_argument);
}

// ---- DIMACS ---------------------------------------------------------------------

TEST(Dimacs, RoundTrip) {
    CnfFormula f;
    f.num_vars = 3;
    f.clauses = {{Lit(0, false), Lit(1, true)}, {Lit(2, false)}};
    std::ostringstream out;
    write_dimacs(out, f);
    const CnfFormula g = read_dimacs_string(out.str());
    EXPECT_EQ(g.num_vars, 3);
    ASSERT_EQ(g.clauses.size(), 2u);
    EXPECT_EQ(g.clauses[0], f.clauses[0]);
    EXPECT_EQ(g.clauses[1], f.clauses[1]);
}

TEST(Dimacs, ParsesCommentsAndHeader) {
    const CnfFormula f = read_dimacs_string(
        "c a comment\np cnf 2 2\n1 -2 0\n2 0\n");
    EXPECT_EQ(f.num_vars, 2);
    ASSERT_EQ(f.clauses.size(), 2u);
    Solver s;
    EXPECT_TRUE(load_into_solver(f, s));
    ASSERT_EQ(s.solve(), Result::Sat);
    EXPECT_TRUE(s.model_bool(1));  // var 2 (1-based) forced true
}

TEST(Dimacs, RejectsUnterminatedClause) {
    EXPECT_THROW(read_dimacs_string("p cnf 2 1\n1 -2\n"), std::runtime_error);
}

TEST(Dimacs, RoundTripSurvivesInterleavedComments) {
    CnfFormula f;
    f.num_vars = 4;
    f.clauses = {{Lit(0, false), Lit(3, true)},
                 {Lit(1, true), Lit(2, false), Lit(3, false)},
                 {Lit(2, true)}};
    std::ostringstream out;
    write_dimacs(out, f);
    // Re-read with comments sprinkled between header and clauses.
    std::string text = out.str();
    text.insert(0, "c leading comment\nc another, with numbers 1 2 0\n");
    text += "c trailing comment\n";
    const CnfFormula g = read_dimacs_string(text);
    EXPECT_EQ(g.num_vars, f.num_vars);
    ASSERT_EQ(g.clauses.size(), f.clauses.size());
    for (std::size_t i = 0; i < f.clauses.size(); ++i)
        EXPECT_EQ(g.clauses[i], f.clauses[i]) << i;
}

TEST(Dimacs, RejectsWrongArityHeader) {
    EXPECT_THROW(read_dimacs_string("p cnf 3\n1 0\n"), std::runtime_error);
    EXPECT_THROW(read_dimacs_string("p cnf\n"), std::runtime_error);
    EXPECT_THROW(read_dimacs_string("p cnf x y\n1 0\n"), std::runtime_error);
    EXPECT_THROW(read_dimacs_string("p sat 2 1\n1 0\n"), std::runtime_error);
}

// ---- make_backend -----------------------------------------------------------

TEST(MakeBackend, InternalSolvesAndOtherNamesThrow) {
    const auto backend = make_backend("internal");
    ASSERT_NE(backend, nullptr);
    const Var a = backend->new_var(), b = backend->new_var();
    backend->add_clause(Lit(a, false), Lit(b, false));
    backend->add_clause(Lit(a, true));
    ASSERT_EQ(backend->solve(), SolveResult::Sat);
    EXPECT_TRUE(backend->model_bool(b));
    EXPECT_THROW(make_backend("dimacs"), std::invalid_argument);
}

}  // namespace
}  // namespace gshe::sat

// Clause-arena suite: learnt-DB reduction tombstones clauses and
// garbage_collect compacts the arena, at the solver's one fixed schedule
// (Solver::kReduceBase learnt clauses before the first reduction).
//
//  * Reduce/GC stress: two formulas that reach reduction and compaction at
//    that schedule keep num_clauses() exact and watcher/reason refs
//    consistent across compactions, repeated solves, incremental clauses
//    and assumptions. A dangling ref derails the search or crashes here;
//    one that lands inside the arena's allocation is caught by the
//    GSHE_ASAN build's bounds-checked operator[] (_GLIBCXX_ASSERTIONS), not
//    by ASan itself.
//  * Search pinning: fixed formulas keep all eight SolverStats counters.
#include <gtest/gtest.h>

#include <vector>

#include "attack/oracle.hpp"
#include "camo/cell_library.hpp"
#include "camo/protect.hpp"
#include "common/rng.hpp"
#include "netlist/generator.hpp"
#include "sat/encoder.hpp"
#include "sat/solver.hpp"

namespace gshe::sat {
namespace {

using Result = Solver::Result;

bool satisfied_by_model(const Solver& s, const Clause& c) {
    for (Lit l : c)
        if (l.negated() ? !s.model_bool(l.var()) : s.model_bool(l.var())) return true;
    return false;
}

void expect_model_satisfies(const Solver& s, const std::vector<Clause>& clauses,
                            int round) {
    for (const auto& c : clauses)
        ASSERT_TRUE(satisfied_by_model(s, c)) << "invalid model, round " << round;
}

std::vector<Clause> pigeonhole(Solver& s, int holes) {
    const int pigeons = holes + 1;
    std::vector<std::vector<Var>> x(static_cast<std::size_t>(pigeons),
                                    std::vector<Var>(static_cast<std::size_t>(holes)));
    for (auto& row : x)
        for (auto& v : row) v = s.new_var();
    std::vector<Clause> clauses;
    for (int p = 0; p < pigeons; ++p) {
        Clause c;
        for (int h = 0; h < holes; ++h)
            c.push_back(Lit(x[static_cast<std::size_t>(p)][static_cast<std::size_t>(h)], false));
        clauses.push_back(c);
    }
    for (int h = 0; h < holes; ++h)
        for (int p1 = 0; p1 < pigeons; ++p1)
            for (int p2 = p1 + 1; p2 < pigeons; ++p2)
                clauses.push_back({Lit(x[static_cast<std::size_t>(p1)][static_cast<std::size_t>(h)], true),
                                   Lit(x[static_cast<std::size_t>(p2)][static_cast<std::size_t>(h)], true)});
    for (const auto& c : clauses) s.add_clause(c);
    return clauses;
}

// Satisfiable random 3-SAT over 200 variables (852 clauses): it needs
// about 18k conflicts, enough for reductions and two compactions. Each
// literal draws its sign, then its variable, in that order on every
// compiler.
std::vector<Clause> random_3sat_200(Solver& s) {
    Rng rng(2);
    constexpr int kVars = 200;
    for (int v = 0; v < kVars; ++v) s.new_var();
    std::vector<Clause> clauses;
    for (int i = 0; i < 852; ++i) {
        Clause c;
        for (int j = 0; j < 3; ++j) {
            const bool negated = rng.bernoulli(0.5);
            c.push_back(Lit(static_cast<Var>(rng.below(kVars)), negated));
        }
        clauses.push_back(c);
        s.add_clause(c);
    }
    return clauses;
}

// ---- reduce / GC at the fixed schedule -------------------------------------

TEST(ArenaGc, ReduceCyclesCompactAndKeepAccountingConsistent) {
    // Pigeonhole 8 learns ~19k clauses: reductions tombstone half of the
    // eligible learnts each time and the arena compacts while
    // watcher/reason refs must stay valid.
    Solver s;
    pigeonhole(s, 8);
    const std::size_t original = s.num_clauses();
    ASSERT_EQ(s.solve(), Result::Unsat);
    EXPECT_GT(s.stats().gc_runs, 0u);
    EXPECT_GT(s.stats().removed_clauses, 0u);
    // The only clauses added after `original` are learnts and the only
    // deletions are counted in removed_clauses, so the live count is exact
    // across every reduce and compaction.
    EXPECT_EQ(s.num_clauses(), original + s.stats().learnt_clauses -
                                   s.stats().removed_clauses);
}

TEST(ArenaGc, NumClausesNeverCountsTombstones) {
    Solver s;
    random_3sat_200(s);
    const std::size_t before = s.num_clauses();
    ASSERT_EQ(s.solve(), Result::Sat);
    EXPECT_GT(s.stats().gc_runs, 0u);
    // A second solve walks the compacted arena and reduces again on its
    // first conflicts (the learnt count is past the first threshold).
    ASSERT_EQ(s.solve(), Result::Sat);
    // num_clauses counts live clauses only: `before` plus the learnts that
    // survived, whether or not a compaction has reclaimed the tombstones.
    EXPECT_EQ(s.num_clauses(),
              before + s.stats().learnt_clauses - s.stats().removed_clauses);
}

TEST(ArenaGc, SurvivesRepeatedSolvesWithIncrementalAddsAndAssumptions) {
    Solver s;
    std::vector<Clause> clauses = random_3sat_200(s);
    ASSERT_EQ(s.solve(), Result::Sat);
    ASSERT_GT(s.stats().gc_runs, 0u);
    expect_model_satisfies(s, clauses, -1);
    // The first model witnesses everything added below: each new clause
    // holds a literal it makes true and each assumption agrees with it, so
    // every later solve must answer Sat.
    std::vector<bool> witness(200);
    for (Var v = 0; v < 200; ++v) witness[static_cast<std::size_t>(v)] = s.model_bool(v);
    const auto agreeing = [&](Var v) {
        return Lit(v, !witness[static_cast<std::size_t>(v)]);
    };
    Rng rng(0xa5e4a);
    for (int round = 0; round < 24; ++round) {
        Clause c;
        for (int j = 0; j < 3; ++j) {
            const bool negated = rng.bernoulli(0.5);
            c.push_back(Lit(static_cast<Var>(rng.below(200)), negated));
        }
        c[0] = agreeing(c[0].var());
        ASSERT_TRUE(s.add_clause(c)) << "round " << round;
        clauses.push_back(c);
        std::vector<Lit> assumptions;
        for (int j = 0; j < 3; ++j)
            assumptions.push_back(agreeing(static_cast<Var>(rng.below(200))));
        ASSERT_EQ(s.solve(assumptions), Result::Sat) << "round " << round;
        expect_model_satisfies(s, clauses, round);
        for (Lit a : assumptions)
            ASSERT_TRUE(satisfied_by_model(s, {a})) << "round " << round;
    }
    EXPECT_GT(s.stats().removed_clauses, 0u);
}

// ---- search pinning ---------------------------------------------------------
//
// The goldens pin the attacks' searches; this suite pins the solver's on
// its own. Each row solves fixed formulas and pins all eight SolverStats
// counters; a change to clause storage or the hot loops that keeps the
// search keeps every number. The family row (summed over the family) was
// recorded at commit 17ea0cd, before the flat clause arena, and reaches no
// reduction; the pigeonhole 8 and random 3-SAT rows were recorded at commit
// 604c84f and each reduce and compact twice. No search here backjumps over
// more than Solver::kChronoLevels levels, so chronological backtracking
// never fires and the trail stays level-ordered: the pinned
// chrono_backtracks of 0 is what keeps the other seven numbers meaningful.

// Random 3-SAT near the threshold plus binary clauses, so both the binary
// and the long-clause propagation paths carry the search.
void random_3sat_with_binaries(Solver& s, std::uint64_t seed) {
    Rng rng(seed);
    constexpr int kVars = 70;
    for (int v = 0; v < kVars; ++v) s.new_var();
    const auto lit = [&] {
        return Lit(static_cast<Var>(rng.below(kVars)), rng.bernoulli(0.5));
    };
    for (int i = 0; i < 260; ++i) s.add_clause(Clause{lit(), lit(), lit()});
    for (int i = 0; i < 30; ++i) s.add_clause(lit(), lit());
}

// The attack's DIP loop on a small camouflaged circuit: DIP solves under
// {guard} with both key copies' agreements per DIP, then key extraction
// under {~guard} on the same solver.
void camo_miter_rounds(Solver& s) {
    netlist::RandomSpec spec;
    spec.n_inputs = 12;
    spec.n_outputs = 6;
    spec.n_gates = 70;
    spec.seed = 2024;
    const netlist::Netlist plain = netlist::random_circuit(spec);
    const camo::Protection prot = camo::apply_camouflage(
        plain, camo::select_gates(plain, 0.15, 3), camo::gshe16(), 3);
    attack::ExactOracle oracle(prot.netlist);
    CircuitEncoder encoder(s);
    const Encoding e1 = encoder.encode(prot.netlist);
    const Encoding e2 = encoder.encode(prot.netlist, e1.pis);
    const Lit guard(s.new_var(), false);
    encoder.add_difference(e1.outs, e2.outs, guard);
    for (int round = 0; round < 24 && s.solve({guard}) == Result::Sat; ++round) {
        std::vector<bool> x(e1.pis.size());
        for (std::size_t i = 0; i < x.size(); ++i) x[i] = s.model_bool(e1.pis[i]);
        encoder.add_agreements(prot.netlist, {e1.keys, e2.keys}, {x},
                               {oracle.query_single(x)});
    }
    s.solve({~guard});
}

SolverStats solve_alone(void (*build)(Solver&)) {
    Solver s;
    build(s);
    s.solve();
    return s.stats();
}

SolverStats run_pinned_family() {
    SolverStats total;
    const auto run = [&](const auto& build) {
        Solver s;
        build(s);
        sat::accumulate(total, s.stats());
    };
    for (std::uint64_t seed = 1; seed <= 6; ++seed)
        run([&](Solver& s) {
            random_3sat_with_binaries(s, 0x3a7 + seed);
            s.solve();
        });
    for (const int holes : {6, 7})
        run([&](Solver& s) {
            pigeonhole(s, holes);
            s.solve();
        });
    run(camo_miter_rounds);
    return total;
}

TEST(ArenaGc, EveryFormulaKeepsItsPinnedSearch) {
    struct Row {
        const char* name;
        SolverStats got;
        SolverStats want;
    };
    // {decisions, propagations, conflicts, restarts, learnt_clauses,
    //  removed_clauses, chrono_backtracks, gc_runs}
    const Row rows[] = {
        {"family", run_pinned_family(),
         {14345, 94723, 5880, 20, 5834, 0, 0, 0}},
        {"pigeonhole_8", solve_alone([](Solver& s) { pigeonhole(s, 8); }),
         {23159, 242930, 19262, 61, 19257, 10234, 0, 2}},
        {"random_3sat_200", solve_alone([](Solver& s) { random_3sat_200(s); }),
         {21325, 693710, 17806, 60, 17806, 10188, 0, 2}},
    };
    for (const Row& row : rows) {
        SCOPED_TRACE(row.name);
        EXPECT_EQ(row.got.decisions, row.want.decisions);
        EXPECT_EQ(row.got.propagations, row.want.propagations);
        EXPECT_EQ(row.got.conflicts, row.want.conflicts);
        EXPECT_EQ(row.got.restarts, row.want.restarts);
        EXPECT_EQ(row.got.learnt_clauses, row.want.learnt_clauses);
        EXPECT_EQ(row.got.removed_clauses, row.want.removed_clauses);
        EXPECT_EQ(row.got.chrono_backtracks, row.want.chrono_backtracks);
        EXPECT_EQ(row.got.gc_runs, row.want.gc_runs);
    }
}

}  // namespace
}  // namespace gshe::sat

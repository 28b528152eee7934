// Inprocessing correctness suite: the vivification / XOR-recovery / BVE
// passes and the clause-arena GC underneath them.
//
//  * Randomized cross-checks (small random 3-SAT + random miters, > 500
//    instances total): SAT/UNSAT verdicts and validated models must agree
//    between inprocessing-on, inprocessing-off, and brute-force
//    enumeration.
//  * Per-pass unit tests: vivification shortens, XOR recovery refutes
//    inconsistent parity systems without search, BVE eliminates and
//    reconstructs models, and eliminated variables reopen for incremental
//    clauses and assumptions.
//  * Arena-GC stress: repeated reduce/GC cycles keep num_clauses() exact
//    and watcher/reason refs consistent. A dangling ref derails the search
//    or crashes here; one that lands inside the arena's allocation is
//    caught by the GSHE_ASAN build's bounds-checked operator[]
//    (_GLIBCXX_ASSERTIONS), not by ASan itself.
//  * Search pinning: a fixed seeded family under ten solver
//    configurations keeps every SolverStats counter.
//  * Campaign determinism: a fixed inprocessing config produces
//    byte-identical CSVs across thread counts.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "attack/oracle.hpp"
#include "camo/cell_library.hpp"
#include "camo/protect.hpp"
#include "common/rng.hpp"
#include "engine/campaign.hpp"
#include "engine/report.hpp"
#include "netlist/generator.hpp"
#include "sat/encoder.hpp"
#include "sat/solver.hpp"

namespace gshe::sat {
namespace {

using Result = Solver::Result;

Solver::Options inprocess_all() {
    Solver::Options o;
    o.use_vivification = true;
    o.use_xor_recovery = true;
    o.use_bve = true;
    o.inprocess_interval = 64;  // small: force mid-search rounds, not just entry
    return o;
}

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

Result solve_clauses(Solver& s, const std::vector<Clause>& clauses, int nv) {
    for (int v = 0; v < nv; ++v) s.new_var();
    for (const auto& c : clauses)
        if (!s.add_clause(c)) return Result::Unsat;
    return s.solve();
}

void expect_model_satisfies(const Solver& s, const std::vector<Clause>& clauses,
                            int trial) {
    for (const auto& c : clauses) {
        bool sat = false;
        for (Lit l : c)
            if (l.negated() ? !s.model_bool(l.var()) : s.model_bool(l.var()))
                sat = true;
        ASSERT_TRUE(sat) << "invalid model, trial " << trial;
    }
}

// ---- randomized cross-check: 3-SAT ------------------------------------------

TEST(InprocessCrossCheck, RandomThreeSatAgreesWithBruteForceAndBaseline) {
    Rng rng(0x1badb002);
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
        Solver on(inprocess_all());
        Solver off;
        const Result r_on = solve_clauses(on, clauses, nv);
        const Result r_off = solve_clauses(off, clauses, nv);
        const bool expect = brute_force_sat(clauses, nv);
        ASSERT_EQ(r_on == Result::Sat, expect) << "trial " << trial;
        ASSERT_EQ(r_off == Result::Sat, expect) << "trial " << trial;
        if (r_on == Result::Sat) expect_model_satisfies(on, clauses, trial);
    }
}

// Parity-heavy instances: random XOR systems (the structure XOR recovery
// exists for), cross-checked the same way.
TEST(InprocessCrossCheck, RandomXorSystemsAgreeWithBruteForce) {
    Rng rng(0x5eed);
    for (int trial = 0; trial < 100; ++trial) {
        const int nv = 4 + static_cast<int>(rng.below(6));
        const int nrows = 2 + static_cast<int>(rng.below(static_cast<std::size_t>(nv)));
        std::vector<Clause> clauses;
        for (int r = 0; r < nrows; ++r) {
            // Random 3-var XOR row over distinct vars: 4 CNF clauses.
            Var a = static_cast<Var>(rng.below(nv));
            Var b = static_cast<Var>(rng.below(nv));
            Var c = static_cast<Var>(rng.below(nv));
            if (a == b || a == c || b == c) continue;
            const bool rhs = rng.bernoulli(0.5);
            for (int mask = 0; mask < 8; ++mask) {
                const int parity = ((mask & 1) + ((mask >> 1) & 1) + ((mask >> 2) & 1)) & 1;
                if (parity != (rhs ? 0 : 1)) continue;  // forbidden-point parity = rhs^1
                clauses.push_back({Lit(a, (mask & 1) != 0), Lit(b, (mask & 2) != 0),
                                   Lit(c, (mask & 4) != 0)});
            }
        }
        Solver on(inprocess_all());
        Solver off;
        const Result r_on = solve_clauses(on, clauses, nv);
        const Result r_off = solve_clauses(off, clauses, nv);
        const bool expect = brute_force_sat(clauses, nv);
        ASSERT_EQ(r_on == Result::Sat, expect) << "trial " << trial;
        ASSERT_EQ(r_off == Result::Sat, expect) << "trial " << trial;
        if (r_on == Result::Sat) expect_model_satisfies(on, clauses, trial);
    }
}

// ---- randomized cross-check: miters -----------------------------------------

TEST(InprocessCrossCheck, RandomMitersAgreeWithBaselineAndSimulator) {
    Rng rng(0xa11ce);
    int sat_seen = 0, unsat_seen = 0;
    std::uint64_t self_miter_conflicts = 0;
    for (int trial = 0; trial < 120; ++trial) {
        netlist::RandomSpec spec;
        spec.n_inputs = 6;
        spec.n_outputs = 4;
        spec.n_gates = 25 + static_cast<int>(rng.below(20));
        spec.seed = 1000 + static_cast<std::uint64_t>(trial);
        const netlist::Netlist a = netlist::random_circuit(spec, "a");
        // Half the trials miter a circuit against itself (always UNSAT);
        // the rest against an independent circuit (almost always SAT).
        const bool self_miter = trial % 2 == 0;
        netlist::RandomSpec spec_b = spec;
        if (!self_miter) spec_b.seed += 7777;
        const netlist::Netlist b = netlist::random_circuit(spec_b, "b");

        // random_circuit promotes dangling nodes to extra outputs, so the
        // output counts differ per seed; miter only the declared outputs.
        const auto first_outs = [&](const Encoding& e) {
            return std::vector<Lit>(e.outs.begin(),
                                    e.outs.begin() + spec.n_outputs);
        };
        // One encoder per side: two encoders share no hash table, so a
        // self-miter keeps distinct gate variables and the solver, not the
        // encoder, has to prove it.
        const auto run = [&](Solver& s) {
            CircuitEncoder enc_a(s), enc_b(s);
            const Encoding ea = enc_a.encode(a);
            const Encoding eb = enc_b.encode(b, ea.pis);
            enc_a.add_difference(first_outs(ea), first_outs(eb));
            return std::pair{s.solve(), ea};
        };
        Solver on(inprocess_all());
        Solver off;
        const auto [r_on, enc_on] = run(on);
        const auto [r_off, enc_off] = run(off);
        ASSERT_EQ(r_on, r_off) << "miter trial " << trial;
        if (self_miter) {
            ASSERT_EQ(r_on, Result::Unsat) << "trial " << trial;
            self_miter_conflicts += on.stats().conflicts + off.stats().conflicts;
        }
        if (r_on == Result::Sat) {
            // Validate the distinguishing input through the simulator: the
            // two circuits must actually differ on it.
            ++sat_seen;
            std::vector<bool> pi(a.inputs().size());
            for (std::size_t i = 0; i < pi.size(); ++i)
                pi[i] = on.model_bool(enc_on.pis[i]);
            auto oa = attack::ExactOracle(a).query_single(pi);
            auto ob = attack::ExactOracle(b).query_single(pi);
            oa.resize(static_cast<std::size_t>(spec.n_outputs));
            ob.resize(static_cast<std::size_t>(spec.n_outputs));
            ASSERT_NE(oa, ob) << "miter trial " << trial;
        } else {
            ++unsat_seen;
        }
    }
    // Both outcomes must actually be exercised, and the solver, not the
    // encoder, must refute the self-miters.
    EXPECT_GT(sat_seen, 10);
    EXPECT_GT(unsat_seen, 10);
    EXPECT_GT(self_miter_conflicts, 0u);
}

// ---- per-pass behaviour -----------------------------------------------------

TEST(Vivification, ShortensRedundantClauses) {
    Solver::Options o;
    o.use_vivification = true;
    Solver s(o);
    const Var a = s.new_var(), b = s.new_var(), c = s.new_var(),
              d = s.new_var();
    // (!a | b) makes the b redundant in (a | b | c | d)? No: it makes the
    // clause (a | b | c | d) shortenable to (a | b): assuming !a and !b
    // propagates nothing, but (a | b | c) with (!c | a) vivifies: assume
    // !a, !b -> c forced by the clause? Use the canonical pattern instead:
    // C1 = (a | b), C2 = (a | b | c | d). Assuming !a, !b refutes C1, so
    // C2 vivifies down to (a | b).
    s.add_clause(Lit(a, false), Lit(b, false));
    s.add_clause(Clause{Lit(a, false), Lit(b, false), Lit(c, false), Lit(d, false)});
    ASSERT_EQ(s.solve(), Result::Sat);
    EXPECT_GT(s.stats().vivified_lits, 0u);
    EXPECT_GT(s.stats().inprocessings, 0u);
}

TEST(XorRecovery, RefutesInconsistentParitySystemWithoutSearch) {
    // x+y = 0, y+z = 0, x+z = 1 over GF(2) is inconsistent; with XOR
    // recovery the refutation falls out of Gaussian elimination during the
    // entry inprocessing round — before any conflict happens.
    Solver::Options o;
    o.use_xor_recovery = true;
    Solver s(o);
    const Var x = s.new_var(), y = s.new_var(), z = s.new_var();
    const auto add_xor_eq = [&](Var u, Var v, bool rhs) {
        if (rhs) {
            s.add_clause(Lit(u, false), Lit(v, false));
            s.add_clause(Lit(u, true), Lit(v, true));
        } else {
            s.add_clause(Lit(u, false), Lit(v, true));
            s.add_clause(Lit(u, true), Lit(v, false));
        }
    };
    add_xor_eq(x, y, false);
    add_xor_eq(y, z, false);
    add_xor_eq(x, z, true);
    EXPECT_EQ(s.solve(), Result::Unsat);
    EXPECT_GE(s.stats().xors_recovered, 3u);
    EXPECT_EQ(s.stats().conflicts, 0u);
}

TEST(XorRecovery, TernaryRowsReduceAndStaySatEquivalent) {
    // A chain of ternary XOR constraints pinning total parity; recovery
    // must leave the instance equivalent (same verdict + valid model).
    for (const bool force_odd : {false, true}) {
        Solver::Options o;
        o.use_xor_recovery = true;
        Solver s(o);
        std::vector<Var> xs;
        for (int i = 0; i < 6; ++i) xs.push_back(s.new_var());
        std::vector<Clause> clauses;
        const auto add_row = [&](Var a, Var b, Var c, bool rhs) {
            for (int mask = 0; mask < 8; ++mask) {
                const int parity =
                    ((mask & 1) + ((mask >> 1) & 1) + ((mask >> 2) & 1)) & 1;
                if (parity != (rhs ? 0 : 1)) continue;
                clauses.push_back({Lit(a, (mask & 1) != 0), Lit(b, (mask & 2) != 0),
                                   Lit(c, (mask & 4) != 0)});
            }
        };
        add_row(xs[0], xs[1], xs[2], false);
        add_row(xs[2], xs[3], xs[4], false);
        add_row(xs[0], xs[4], xs[5], force_odd);
        for (const auto& c : clauses) s.add_clause(c);
        ASSERT_EQ(s.solve(), Result::Sat);
        EXPECT_GE(s.stats().xors_recovered, 3u);
        for (const auto& c : clauses) {
            bool sat = false;
            for (Lit l : c)
                if (l.negated() ? !s.model_bool(l.var()) : s.model_bool(l.var()))
                    sat = true;
            ASSERT_TRUE(sat);
        }
    }
}

TEST(Bve, EliminatesAndReconstructsModel) {
    Solver::Options o;
    o.use_bve = true;
    Solver s(o);
    // t is defined by (t | !a)(t | !b)(!t | a)(... an AND-gate shape); BVE
    // can eliminate it, but the model must still report a consistent value.
    const Var a = s.new_var(), b = s.new_var(), t = s.new_var();
    s.add_clause(Lit(t, false), Lit(a, true), Lit(b, true));   // a&b -> t
    s.add_clause(Lit(t, true), Lit(a, false));                 // t -> a
    s.add_clause(Lit(t, true), Lit(b, false));                 // t -> b
    s.add_clause(Lit(a, false));
    s.add_clause(Lit(b, false));
    ASSERT_EQ(s.solve(), Result::Sat);
    EXPECT_TRUE(s.model_bool(a));
    EXPECT_TRUE(s.model_bool(b));
    EXPECT_TRUE(s.model_bool(t));  // reconstructed if t was eliminated
}

TEST(Bve, EliminatedVariableReopensForIncrementalClauses) {
    Solver::Options o;
    o.use_bve = true;
    Solver s(o);
    const Var a = s.new_var(), b = s.new_var(), t = s.new_var();
    s.add_clause(Lit(t, false), Lit(a, true));  // a -> t
    s.add_clause(Lit(t, true), Lit(b, false));  // t -> b
    ASSERT_EQ(s.solve(), Result::Sat);
    // Constrain the (possibly eliminated) t afterwards: reintroduction must
    // restore its defining clauses so implications still hold.
    ASSERT_TRUE(s.add_clause(Clause{Lit(t, false)}));  // force t
    ASSERT_EQ(s.solve(), Result::Sat);
    EXPECT_TRUE(s.model_bool(t));
    EXPECT_TRUE(s.model_bool(b));  // t -> b must have survived elimination
    ASSERT_EQ(s.solve({Lit(b, true)}), Result::Unsat);  // t forced, so b forced
}

TEST(Bve, EliminatedVariableUsableAsAssumption) {
    Solver::Options o;
    o.use_bve = true;
    Solver s(o);
    const Var a = s.new_var(), t = s.new_var();
    s.add_clause(Lit(t, false), Lit(a, true));  // a -> t
    s.add_clause(Lit(t, true), Lit(a, false));  // t -> a   (t == a)
    ASSERT_EQ(s.solve(), Result::Sat);
    ASSERT_EQ(s.solve({Lit(t, false)}), Result::Sat);  // assume t
    EXPECT_TRUE(s.model_bool(a));
    ASSERT_EQ(s.solve({Lit(t, true)}), Result::Sat);  // assume !t
    EXPECT_FALSE(s.model_bool(a));
    EXPECT_EQ(s.solve({Lit(t, false), Lit(a, true)}), Result::Unsat);
}

TEST(Inprocess, StatsRecordEachPass) {
    netlist::RandomSpec spec;
    spec.n_inputs = 10;
    spec.n_outputs = 6;
    spec.n_gates = 120;
    spec.seed = 99;
    const netlist::Netlist nl = netlist::random_circuit(spec);
    Solver s(inprocess_all());
    // One encoder per copy, as in the miter cross-check: the copies keep
    // distinct gate variables instead of hashing into one.
    CircuitEncoder enc1(s), enc2(s);
    const Encoding e1 = enc1.encode(nl);
    const Encoding e2 = enc2.encode(nl, e1.pis);
    enc1.add_difference(e1.outs, e2.outs);
    EXPECT_EQ(s.solve(), Result::Unsat);  // a circuit equals itself
    EXPECT_GT(s.stats().inprocessings, 0u);
    // XOR/XNOR gates and the per-output difference XORs each encode as a
    // full four-clause parity constraint, so the miter is XOR-rich.
    EXPECT_GT(s.stats().xors_recovered, 0u);
}

// ---- arena GC stress --------------------------------------------------------

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

TEST(ArenaGc, ReduceCyclesCompactAndKeepAccountingConsistent) {
    // An aggressive reduce schedule tombstones learnts constantly; the
    // arena must compact (gc_runs > 0) while watcher/reason refs stay
    // valid — any dangling ref derails the search or crashes.
    Solver::Options o;
    o.reduce_interval = 64;
    Solver s(o);
    pigeonhole(s, 6);
    const std::size_t original = s.num_clauses();
    ASSERT_EQ(s.solve(), Result::Unsat);
    EXPECT_GT(s.stats().gc_runs, 0u);
    EXPECT_GT(s.stats().removed_clauses, 0u);
    // With inprocessing off the only clauses added after `original` are
    // learnts and the only deletions are counted in removed_clauses, so the
    // live count is exact across every reduce and compaction.
    EXPECT_EQ(s.num_clauses(), original + s.stats().learnt_clauses -
                                   s.stats().removed_clauses);
}

TEST(ArenaGc, SurvivesRepeatedSolvesWithInprocessingAndIncrementalAdds) {
    Solver::Options o = inprocess_all();
    o.reduce_interval = 64;
    Solver s(o);
    pigeonhole(s, 5);
    // Extra free variables that BVE/vivification may chew through.
    std::vector<Var> extra;
    for (int i = 0; i < 16; ++i) extra.push_back(s.new_var());
    for (std::size_t i = 0; i + 1 < extra.size(); ++i) {
        s.add_clause(Lit(extra[i], true), Lit(extra[i + 1], false));
    }
    for (int round = 0; round < 10; ++round) {
        ASSERT_EQ(s.solve(), Result::Unsat) << "round " << round;
        // The formula stays UNSAT; incremental additions touching
        // (possibly eliminated/GC-remapped) vars must stay sound.
        s.add_clause(Lit(extra[static_cast<std::size_t>(round)], false),
                     Lit(extra[static_cast<std::size_t>(round + 1)], false));
    }
    EXPECT_GT(s.stats().gc_runs, 0u);
}

TEST(ArenaGc, NumClausesNeverCountsTombstones) {
    Solver::Options o;
    o.reduce_interval = 32;
    Solver s(o);
    pigeonhole(s, 5);
    const std::size_t before = s.num_clauses();
    ASSERT_EQ(s.solve(), Result::Unsat);
    // Another solve on the (already refuted) instance is a no-op but walks
    // the compacted arena.
    ASSERT_EQ(s.solve(), Result::Unsat);
    // num_clauses counts live clauses only: `before` plus the learnts that
    // survived, whether or not a compaction has reclaimed the tombstones.
    EXPECT_EQ(s.num_clauses(),
              before + s.stats().learnt_clauses - s.stats().removed_clauses);
}

// ---- search pinning across solver configurations ----------------------------
//
// The goldens pin the search of the default options only, while the learnt-DB
// schedule, vivification, XOR recovery and BVE all rewrite clauses in the
// arena. This suite runs one fixed seeded family under every configuration
// and pins all twelve SolverStats counters, summed over the family. The
// expected values were recorded at commit 17ea0cd, before the flat clause
// arena; a change to clause storage or the hot loops that keeps the search
// keeps every number. No search of the family backjumps over more than
// Solver::kChronoLevels levels, so chronological backtracking never fires
// and the trail stays level-ordered: the pinned chrono_backtracks of 0 is
// what keeps the other eleven numbers meaningful.

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

SolverStats run_pinned_family(const Solver::Options& opts) {
    SolverStats total;
    const auto run = [&](const auto& build) {
        Solver s(opts);
        // Caps the configurations without learning, whose chronological
        // search would otherwise enumerate pigeonhole 7 for minutes.
        SolverBudget budget;
        budget.max_conflicts = 20000;
        s.set_budget(budget);
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

struct PinnedSearch {
    const char* name;
    Solver::Options opts;
    SolverStats want;
};

std::vector<PinnedSearch> pinned_searches() {
    const auto with = [](auto edit) {
        Solver::Options o;
        edit(o);
        return o;
    };
    // Each pass alone runs at the same short interval as all three together,
    // so it also rewrites the arena mid-search, not only on entry.
    const auto pass = [&](bool Solver::Options::*flag) {
        return with([&](Solver::Options& o) {
            o.*flag = true;
            o.inprocess_interval = 64;
        });
    };
    // {decisions, propagations, conflicts, restarts, learnt_clauses,
    //  removed_clauses, chrono_backtracks, inprocessings, gc_runs,
    //  vivified_lits, xors_recovered, eliminated_vars}, recorded at commit
    //  2da8475 with the camo miter compact-encoded.
    return {
        {"defaults", Solver::Options{},
         {14345, 94723, 5880, 20, 5834, 0, 0, 0, 0, 0, 0, 0}},
        {"reduce_interval=32",
         with([](Solver::Options& o) { o.reduce_interval = 32; }),
         {16343, 101150, 6596, 21, 6543, 4022, 0, 0, 4, 0, 0, 0}},
        {"vivification", pass(&Solver::Options::use_vivification),
         {11173, 289890, 5567, 22, 5547, 3156, 0, 35, 0, 8706, 0, 0}},
        {"xor_recovery", pass(&Solver::Options::use_xor_recovery),
         {13368, 90187, 5826, 19, 5779, 4, 0, 35, 0, 0, 364, 0}},
        {"bve", pass(&Solver::Options::use_bve),
         {11999, 68462, 4948, 19, 4900, 610, 0, 37, 0, 0, 0, 94}},
        {"all_passes", inprocess_all(),
         {11171, 287265, 6154, 25, 6143, 7730, 0, 39, 1, 12264, 143, 191}},
        {"no_learning", with([](Solver::Options& o) { o.use_learning = false; }),
         {57599, 467598, 50647, 156, 0, 0, 0, 0, 0, 0, 0, 0}},
        {"no_restarts", with([](Solver::Options& o) { o.use_restarts = false; }),
         {12870, 81342, 5040, 0, 4994, 0, 0, 0, 0, 0, 0, 0}},
        {"no_vsids", with([](Solver::Options& o) { o.use_vsids = false; }),
         {9480, 48785, 1773, 6, 1720, 0, 0, 0, 0, 0, 0, 0}},
        {"no_phase_saving",
         with([](Solver::Options& o) { o.use_phase_saving = false; }),
         {12599, 75624, 4290, 17, 4241, 0, 0, 0, 0, 0, 0, 0}},
    };
}

TEST(ArenaGc, EveryConfigurationKeepsItsPinnedSearch) {
    for (const PinnedSearch& p : pinned_searches()) {
        SCOPED_TRACE(p.name);
        const SolverStats got = run_pinned_family(p.opts);
        EXPECT_EQ(got.decisions, p.want.decisions);
        EXPECT_EQ(got.propagations, p.want.propagations);
        EXPECT_EQ(got.conflicts, p.want.conflicts);
        EXPECT_EQ(got.restarts, p.want.restarts);
        EXPECT_EQ(got.learnt_clauses, p.want.learnt_clauses);
        EXPECT_EQ(got.removed_clauses, p.want.removed_clauses);
        EXPECT_EQ(got.chrono_backtracks, p.want.chrono_backtracks);
        EXPECT_EQ(got.inprocessings, p.want.inprocessings);
        EXPECT_EQ(got.gc_runs, p.want.gc_runs);
        EXPECT_EQ(got.vivified_lits, p.want.vivified_lits);
        EXPECT_EQ(got.xors_recovered, p.want.xors_recovered);
        EXPECT_EQ(got.eliminated_vars, p.want.eliminated_vars);
    }
}

// ---- campaign determinism with inprocessing on ------------------------------

netlist::Netlist tiny_circuit(const std::string& name) {
    netlist::RandomSpec spec;
    spec.n_inputs = 10;
    spec.n_outputs = 6;
    spec.n_gates = 50;
    spec.seed = name == "c1" ? 11 : 22;
    return netlist::random_circuit(spec, name);
}

TEST(InprocessCampaign, CsvByteIdenticalAcrossThreadCounts) {
    engine::DefenseConfig d;
    d.kind = "camo";
    d.fraction = 0.10;
    attack::AttackOptions opt;
    opt.timeout_seconds = 600.0;
    opt.max_conflicts = 4000;
    opt.solver.use_vivification = true;
    opt.solver.use_xor_recovery = true;
    opt.solver.use_bve = true;
    opt.solver.inprocess_interval = 512;
    const auto jobs = engine::CampaignRunner::cross_product(
        {"c1", "c2"}, {d}, {"sat"}, {1, 2}, opt);
    const auto csv_with_threads = [&](int threads) {
        engine::CampaignOptions options;
        options.threads = threads;
        options.campaign_seed = 0xd00d;
        options.netlist_provider = tiny_circuit;
        return engine::campaign_csv(engine::CampaignRunner(options).run(jobs));
    };
    const std::string one = csv_with_threads(1);
    const std::string four = csv_with_threads(4);
    EXPECT_EQ(one, four);
    EXPECT_NE(one.find("success"), std::string::npos);
}

}  // namespace
}  // namespace gshe::sat

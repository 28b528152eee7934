// Tests for the CNF encoder (sat/encoder.hpp): constant folding,
// structural hashing, the shared constant variable and key-cone agreement
// reduction, each checked against the semantic spec — the simulator, each
// camo cell's candidate functions, and brute-force consistent-key sets —
// plus key recovery on the deterministic defense families and the journal
// round trip of the encoder counters.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "attack/oracle.hpp"
#include "camo/cell_library.hpp"
#include "camo/key.hpp"
#include "camo/protect.hpp"
#include "engine/campaign.hpp"
#include "engine/checkpoint.hpp"
#include "netlist/generator.hpp"
#include "netlist/netlist.hpp"
#include "netlist/simulator.hpp"
#include "sat/encoder.hpp"
#include "sat/solver.hpp"

namespace gshe {
namespace {

using core::Bool2;
using engine::CampaignOptions;
using engine::CampaignRunner;
using engine::DefenseConfig;
using engine::JobSpec;
using netlist::Netlist;
using sat::CircuitEncoder;
using sat::Lit;
using sat::SolveResult;
using sat::Var;

/// Model value of an output literal (handles folded/negated outputs).
bool lit_value(const sat::SolverBackend& s, Lit l) {
    return s.model_bool(l.var()) != l.negated();
}

/// Unit clause pinning variable v to `value`.
Lit pin(Var v, bool value) { return Lit(v, !value); }

Netlist tiny_circuit(const std::string& name) {
    netlist::RandomSpec spec;
    spec.n_inputs = 12;
    spec.n_outputs = 8;
    spec.n_gates = 60;
    spec.seed = name == "alpha" ? 11 : 22;
    return netlist::random_circuit(spec, name);
}

// ---- constant folding -------------------------------------------------------

TEST(CompactEncoder, FoldsConstantInputsThroughGates) {
    Netlist nl("fold");
    const auto a = nl.add_input("a");
    const auto one = nl.add_const(true);
    const auto g = nl.add_gate(Bool2::AND(), a, one, "g");
    nl.add_output(g, "o");

    sat::Solver s;
    CircuitEncoder enc(s);
    const sat::Encoding e = enc.encode(nl);
    // AND(a, 1) folds to a: one variable for the PI, zero clauses.
    ASSERT_EQ(e.pis.size(), 1u);
    ASSERT_EQ(e.outs.size(), 1u);
    EXPECT_EQ(e.outs[0], Lit(e.pis[0], false));
    EXPECT_EQ(enc.stats().vars, 1u);
    EXPECT_EQ(enc.stats().clauses, 0u);
    EXPECT_GE(enc.stats().gates_folded, 2u);  // the Const1 and the AND
}

TEST(CompactEncoder, FoldsInverterChainsToInputLiterals) {
    Netlist nl("inv");
    const auto a = nl.add_input("a");
    const auto n1 = nl.add_unary(Bool2::NOT_A(), a, "n1");
    const auto n2 = nl.add_unary(Bool2::NOT_A(), n1, "n2");
    nl.add_output(n1, "odd");
    nl.add_output(n2, "even");

    sat::Solver s;
    CircuitEncoder enc(s);
    const sat::Encoding e = enc.encode(nl);
    // Both inverters are polarity bookkeeping: no gate variables at all.
    EXPECT_EQ(e.outs[0], Lit(e.pis[0], true));
    EXPECT_EQ(e.outs[1], Lit(e.pis[0], false));
    EXPECT_EQ(enc.stats().vars, 1u);
    EXPECT_EQ(enc.stats().clauses, 0u);
}

TEST(CompactEncoder, FoldsComplementInputsToAConstant) {
    Netlist nl("contradiction");
    const auto a = nl.add_input("a");
    const auto na = nl.add_unary(Bool2::NOT_A(), a, "na");
    const auto g = nl.add_gate(Bool2::AND(), a, na, "g");
    nl.add_output(g, "o");

    sat::Solver s;
    CircuitEncoder enc(s);
    const sat::Encoding e = enc.encode(nl);
    // AND(a, !a) is constant false regardless of a; the realized output
    // literal must evaluate false in every model.
    ASSERT_EQ(s.solve(), SolveResult::Sat);
    EXPECT_FALSE(lit_value(s, e.outs[0]));
    s.add_clause(pin(e.pis[0], true));
    ASSERT_EQ(s.solve(), SolveResult::Sat);
    EXPECT_FALSE(lit_value(s, e.outs[0]));
}

// ---- structural hashing -----------------------------------------------------

TEST(CompactEncoder, HashSharesCommutedAndComplementedGates) {
    Netlist nl("hash");
    const auto a = nl.add_input("a");
    const auto b = nl.add_input("b");
    const auto g1 = nl.add_gate(Bool2::AND(), a, b, "g1");
    const auto g2 = nl.add_gate(Bool2::AND(), a, b, "g2");   // duplicate
    const auto g3 = nl.add_gate(Bool2::AND(), b, a, "g3");   // commuted
    const auto g4 = nl.add_gate(Bool2::NAND(), a, b, "g4");  // complemented
    nl.add_output(g1, "o1");
    nl.add_output(g2, "o2");
    nl.add_output(g3, "o3");
    nl.add_output(g4, "o4");

    sat::Solver s;
    CircuitEncoder enc(s);
    const sat::Encoding e = enc.encode(nl);
    // One gate variable serves all four outputs.
    EXPECT_EQ(enc.stats().vars, 3u);  // 2 PIs + 1 AND node
    EXPECT_EQ(enc.stats().hash_hits, 3u);
    EXPECT_EQ(e.outs[1], e.outs[0]);
    EXPECT_EQ(e.outs[2], e.outs[0]);
    EXPECT_EQ(e.outs[3], ~e.outs[0]);
}

TEST(CompactEncoder, HashAbsorbsInputPolarity) {
    Netlist nl("polarity");
    const auto a = nl.add_input("a");
    const auto b = nl.add_input("b");
    const auto na = nl.add_unary(Bool2::NOT_A(), a, "na");
    const auto g1 = nl.add_gate(Bool2::A_AND_NOT_B(), b, a, "g1");  // b & !a
    const auto g2 = nl.add_gate(Bool2::AND(), na, b, "g2");         // !a & b
    nl.add_output(g1, "o1");
    nl.add_output(g2, "o2");

    sat::Solver s;
    CircuitEncoder enc(s);
    const sat::Encoding e = enc.encode(nl);
    EXPECT_EQ(e.outs[1], e.outs[0]);
    EXPECT_EQ(enc.stats().hash_hits, 1u);
}

// ---- shared constant variable ----------------------------------------------

TEST(CompactEncoder, OneConstantVariableServesBothPolarities) {
    sat::Solver s;
    CircuitEncoder enc(s);
    const Lit t = enc.constant(true);
    const Lit f = enc.constant(false);
    EXPECT_EQ(t.var(), f.var());
    EXPECT_EQ(f, ~t);
    EXPECT_EQ(s.num_vars(), 1);
    // Repeated requests never allocate again.
    EXPECT_EQ(enc.constant(true), t);
    EXPECT_EQ(s.num_vars(), 1);
    ASSERT_EQ(s.solve(), SolveResult::Sat);
    EXPECT_TRUE(lit_value(s, t));
    EXPECT_FALSE(lit_value(s, f));
}

// ---- semantics: compact CNF == simulator ------------------------------------

TEST(CompactEncoder, MatchesSimulatorOnRandomCircuits) {
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        netlist::RandomSpec spec;
        spec.n_inputs = 10;
        spec.n_outputs = 6;
        spec.n_gates = 40;
        spec.seed = seed;
        const Netlist nl = netlist::random_circuit(spec);
        attack::ExactOracle oracle(nl);

        sat::Solver s;
        CircuitEncoder enc(s);
        const sat::Encoding e = enc.encode(nl);
        Rng rng(seed * 77 + 1);
        for (int trial = 0; trial < 4; ++trial) {
            std::vector<bool> x(nl.inputs().size());
            std::vector<Lit> assume;
            for (std::size_t i = 0; i < x.size(); ++i) {
                x[i] = (rng() & 1) != 0;
                assume.push_back(pin(e.pis[i], x[i]));
            }
            ASSERT_EQ(s.solve(assume), SolveResult::Sat);
            const std::vector<bool> y = oracle.query_single(x);
            for (std::size_t o = 0; o < y.size(); ++o)
                EXPECT_EQ(lit_value(s, e.outs[o]), y[o])
                    << "seed " << seed << " output " << o;
        }
    }
}

// ---- camouflaged cells: the key selects the candidate ----------------------

TEST(CompactEncoder, CamoCellMatchesItsCandidateForEveryKeyAndInput) {
    // A_AND_NOT_B is asymmetric, so swapped operands would show.
    const std::vector<Bool2> candidates = {Bool2::AND(), Bool2::OR(),
                                           Bool2::XOR(), Bool2::A_AND_NOT_B()};
    Netlist nl("camo1");
    const auto a = nl.add_input("a");
    const auto b = nl.add_input("b");
    const auto g = nl.add_gate(Bool2::AND(), a, b, "g");
    nl.camouflage(g, candidates, "test");
    nl.add_output(g, "o");

    sat::Solver s;
    CircuitEncoder enc(s);
    const sat::Encoding e = enc.encode(nl);
    ASSERT_EQ(e.keys.size(), 2u);

    for (int key = 0; key < 4; ++key)
        for (int pat = 0; pat < 4; ++pat) {
            std::vector<Lit> assume;
            for (int bit = 0; bit < 2; ++bit) {
                assume.push_back(pin(e.keys[bit], (key >> bit) & 1));
                assume.push_back(pin(e.pis[bit], (pat >> bit) & 1));
            }
            ASSERT_EQ(s.solve(assume), SolveResult::Sat);
            EXPECT_EQ(lit_value(s, e.outs[0]),
                      candidates[static_cast<std::size_t>(key)].eval(
                          (pat & 1) != 0, (pat & 2) != 0))
                << "key " << key << " pattern " << pat;
        }
}

// ---- key-cone agreement -----------------------------------------------------

/// Keys admitted by the solver after some agreements, as a bitmask over all
/// 2^k key assignments (k small by construction).
std::vector<bool> admitted_keys(sat::SolverBackend& s, const sat::Encoding& e) {
    const std::size_t k = e.keys.size();
    std::vector<bool> admitted(std::size_t{1} << k);
    for (std::size_t key = 0; key < admitted.size(); ++key) {
        std::vector<Lit> assume;
        for (std::size_t bit = 0; bit < k; ++bit)
            assume.push_back(pin(e.keys[bit], (key >> bit) & 1));
        admitted[key] = s.solve(assume) == SolveResult::Sat;
    }
    return admitted;
}

/// Keys whose decoded cell functions reproduce every recorded observation
/// (xs[i] -> ys[i]) in simulation, as a bitmask over all 2^k key codes:
/// the semantic spec an agreement-constrained formula must admit exactly.
/// Codes that decode to no function are never consistent.
std::vector<bool> consistent_keys(const Netlist& nl, std::size_t key_bits,
                                  const std::vector<std::vector<bool>>& xs,
                                  const std::vector<std::vector<bool>>& ys) {
    // Observation i is lane i % 64 of word i / 64.
    const std::size_t words = std::max<std::size_t>(1, (xs.size() + 63) / 64);
    std::vector<std::uint64_t> pi(nl.inputs().size() * words, 0);
    for (std::size_t i = 0; i < xs.size(); ++i)
        for (std::size_t in = 0; in < nl.inputs().size(); ++in)
            if (xs[i][in]) pi[in * words + i / 64] |= std::uint64_t{1} << (i % 64);
    const netlist::Simulator sim(nl);
    std::vector<bool> consistent(std::size_t{1} << key_bits);
    for (std::size_t code = 0; code < consistent.size(); ++code) {
        camo::Key key;
        for (std::size_t bit = 0; bit < key_bits; ++bit)
            key.bits.push_back(((code >> bit) & 1) != 0);
        const auto fns = camo::functions_for_key(nl, key);
        if (!fns) continue;
        const std::vector<std::uint64_t> out =
            sim.run(pi, words, {.overrides = *fns});
        bool all = true;
        for (std::size_t i = 0; i < xs.size() && all; ++i)
            for (std::size_t o = 0; o < ys[i].size() && all; ++o)
                all = (((out[o * words + i / 64] >> (i % 64)) & 1) != 0) ==
                      ys[i][o];
        consistent[code] = all;
    }
    return consistent;
}

/// The agreement tests' circuit: 10% gshe16 camouflage, few enough key
/// bits to enumerate every key.
camo::Protection agreement_circuit() {
    netlist::RandomSpec spec;
    spec.n_inputs = 8;
    spec.n_outputs = 5;
    spec.n_gates = 30;
    spec.seed = 404;
    const Netlist plain = netlist::random_circuit(spec);
    return camo::apply_camouflage(plain, camo::select_gates(plain, 0.10, 7),
                                  camo::gshe16(), 7);
}

TEST(CompactEncoder, AgreementAdmitsExactlyTheConsistentKeys) {
    const camo::Protection prot = agreement_circuit();
    attack::ExactOracle oracle(prot.netlist);
    const auto key_bits =
        static_cast<std::size_t>(prot.netlist.key_bit_count());
    ASSERT_GE(key_bits, 2u);
    ASSERT_LE(key_bits, 12u) << "matrix too large to enumerate";

    sat::Solver s;
    CircuitEncoder enc(s);
    const sat::Encoding e = enc.encode(prot.netlist);
    ASSERT_EQ(e.keys.size(), key_bits);

    Rng rng(99);
    std::vector<std::vector<bool>> xs, ys;
    for (int dip = 0; dip < 4; ++dip) {
        std::vector<bool> x(prot.netlist.inputs().size());
        for (std::size_t i = 0; i < x.size(); ++i) x[i] = (rng() & 1) != 0;
        const std::vector<bool> y = oracle.query_single(x);
        enc.add_agreements(prot.netlist, {e.keys}, {x}, {y});
        xs.push_back(x);
        ys.push_back(y);
        const std::vector<bool> want =
            consistent_keys(prot.netlist, key_bits, xs, ys);
        EXPECT_EQ(admitted_keys(s, e), want) << "after DIP " << dip;
        // The observation always remains consistent with at least one key.
        EXPECT_NE(std::find(want.begin(), want.end(), true), want.end());
    }
    // The cone mechanism actually engaged: some gates were simulated away.
    EXPECT_GT(enc.stats().sim_gates, 0u);
    EXPECT_GT(enc.stats().cone_gates, 0u);
}

TEST(CompactEncoder, BatchedAgreementsAdmitExactlyTheConsistentKeys) {
    // 70 observations fill two sweep words, lanes 64-69 in the second. One
    // add_agreements call over two key copies must emit the CNF of 70
    // one-pattern calls and admit exactly the consistent keys in each copy.
    const camo::Protection prot = agreement_circuit();
    const Netlist& nl = prot.netlist;
    attack::ExactOracle oracle(nl);
    const auto key_bits = static_cast<std::size_t>(nl.key_bit_count());
    ASSERT_LE(key_bits, 12u) << "matrix too large to enumerate";

    Rng rng(505);
    std::vector<std::vector<bool>> xs, ys;
    for (int i = 0; i < 70; ++i) {
        std::vector<bool> x(nl.inputs().size());
        for (std::size_t in = 0; in < x.size(); ++in) x[in] = (rng() & 1) != 0;
        ys.push_back(oracle.query_single(x));
        xs.push_back(std::move(x));
    }

    sat::Solver batched;
    CircuitEncoder batched_enc(batched);
    const sat::Encoding b1 = batched_enc.encode(nl);
    const sat::Encoding b2 = batched_enc.encode(nl, b1.pis);
    batched_enc.add_agreements(nl, {b1.keys, b2.keys}, xs, ys);

    sat::Solver single;
    CircuitEncoder single_enc(single);
    const sat::Encoding s1 = single_enc.encode(nl);
    const sat::Encoding s2 = single_enc.encode(nl, s1.pis);
    for (std::size_t i = 0; i < xs.size(); ++i)
        single_enc.add_agreements(nl, {s1.keys, s2.keys}, {xs[i]}, {ys[i]});

    // Compared before any solve: learnt clauses count in num_clauses().
    EXPECT_EQ(batched.num_vars(), single.num_vars());
    EXPECT_EQ(batched.num_clauses(), single.num_clauses());
    EXPECT_EQ(batched_enc.stats().agreement_clauses,
              single_enc.stats().agreement_clauses);
    EXPECT_EQ(batched_enc.stats().agreements, 140u);

    const std::vector<bool> want = consistent_keys(nl, key_bits, xs, ys);
    EXPECT_EQ(admitted_keys(batched, b1), want);
    EXPECT_EQ(admitted_keys(batched, b2), want);
}

// ---- key recovery -----------------------------------------------------------

TEST(CompactAttack, DeterministicDefenseFamiliesRecoverKeys) {
    DefenseConfig camo;
    camo.kind = "camo";
    camo.fraction = 0.12;
    DefenseConfig sarlock;
    sarlock.kind = "sarlock";
    sarlock.sarlock_bits = 4;

    const std::vector<JobSpec> jobs = CampaignRunner::cross_product(
        {"alpha", "beta"}, {camo, sarlock}, {"sat", "double_dip", "appsat"},
        {1}, attack::AttackOptions{});
    CampaignOptions options;
    options.threads = 1;
    options.netlist_provider = tiny_circuit;
    const engine::CampaignResult result = CampaignRunner(options).run(jobs);
    ASSERT_EQ(result.jobs.size(), jobs.size());
    for (const engine::JobResult& j : result.jobs) {
        SCOPED_TRACE(j.circuit + "/" + j.defense + "/" + j.attack);
        ASSERT_TRUE(j.error.empty()) << j.error;
        EXPECT_EQ(j.result.status, attack::AttackResult::Status::Success);
        EXPECT_EQ(j.result.key_error_rate, 0.0);
    }
}

// ---- journal schema ---------------------------------------------------------

TEST(CheckpointEncoder, StatFieldsRoundTripThroughARecord) {
    JobSpec spec;
    spec.circuit = "alpha";
    engine::JobResult r;
    r.index = 2;
    r.circuit = "alpha";
    r.result.status = attack::AttackResult::Status::Success;
    r.result.encoder_stats.vars = 101;
    r.result.encoder_stats.clauses = 202;
    r.result.encoder_stats.gates_folded = 3;
    r.result.encoder_stats.hash_hits = 4;
    r.result.encoder_stats.agreements = 5;
    r.result.encoder_stats.agreement_vars = 66;
    r.result.encoder_stats.agreement_clauses = 77;
    r.result.encoder_stats.cone_gates = 88;
    r.result.encoder_stats.sim_gates = 99;

    const std::string line =
        engine::checkpoint::encode_record(42, spec, r, {});
    const auto decoded = engine::checkpoint::decode_record(line);
    ASSERT_TRUE(decoded.has_value());
    const sat::EncoderStats& es = decoded->result.result.encoder_stats;
    EXPECT_EQ(es.vars, 101u);
    EXPECT_EQ(es.clauses, 202u);
    EXPECT_EQ(es.gates_folded, 3u);
    EXPECT_EQ(es.hash_hits, 4u);
    EXPECT_EQ(es.agreements, 5u);
    EXPECT_EQ(es.agreement_vars, 66u);
    EXPECT_EQ(es.agreement_clauses, 77u);
    EXPECT_EQ(es.cone_gates, 88u);
    EXPECT_EQ(es.sim_gates, 99u);
}

}  // namespace
}  // namespace gshe

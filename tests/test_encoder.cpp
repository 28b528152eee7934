// Tests for the compact CNF encoder (sat/encoder.hpp): constant folding,
// structural hashing, the shared constant variable, key-cone agreement
// reduction, and — the acceptance criteria — that compact-mode attacks
// admit exactly the keys legacy encoding admits (200 randomized camouflaged
// netlists plus the deterministic defense families), and that compact-mode
// campaign CSVs keep the byte-identity contract across thread counts and
// checkpoint resume against their own compact baseline.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include "attack/miter_detail.hpp"
#include "attack/oracle.hpp"
#include "attack/sat_attack.hpp"
#include "camo/cell_library.hpp"
#include "camo/protect.hpp"
#include "engine/campaign.hpp"
#include "engine/checkpoint.hpp"
#include "engine/report.hpp"
#include "netlist/generator.hpp"
#include "netlist/netlist.hpp"
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
using sat::EncoderMode;
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

// ---- mode registry ----------------------------------------------------------

TEST(EncoderMode, NamesRoundTrip) {
    EXPECT_EQ(sat::encoder_mode_name(EncoderMode::Legacy), "legacy");
    EXPECT_EQ(sat::encoder_mode_name(EncoderMode::Compact), "compact");
    EXPECT_EQ(sat::encoder_mode_from_name("legacy"), EncoderMode::Legacy);
    EXPECT_EQ(sat::encoder_mode_from_name("compact"), EncoderMode::Compact);
    EXPECT_FALSE(sat::encoder_mode_from_name("bogus").has_value());
    EXPECT_EQ(sat::encoder_mode_names(),
              (std::vector<std::string>{"legacy", "compact"}));
}

TEST(EncoderMode, ResolveThrowsListingKnownModes) {
    EXPECT_THROW(attack::detail::resolve_encoder_mode("bogus"),
                 std::invalid_argument);
    attack::AttackOptions opt;
    opt.encoder = "quantum";
    EXPECT_THROW(attack::detail::resolve_encoder_mode(opt),
                 std::invalid_argument);
    try {
        attack::detail::resolve_encoder_mode("bogus");
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("legacy"), std::string::npos);
        EXPECT_NE(what.find("compact"), std::string::npos);
    }
}

// ---- constant folding -------------------------------------------------------

TEST(CompactEncoder, FoldsConstantInputsThroughGates) {
    Netlist nl("fold");
    const auto a = nl.add_input("a");
    const auto one = nl.add_const(true);
    const auto g = nl.add_gate(Bool2::AND(), a, one, "g");
    nl.add_output(g, "o");

    sat::Solver s;
    CircuitEncoder enc(s, EncoderMode::Compact);
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
    CircuitEncoder enc(s, EncoderMode::Compact);
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
    CircuitEncoder enc(s, EncoderMode::Compact);
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
    CircuitEncoder enc(s, EncoderMode::Compact);
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
    CircuitEncoder enc(s, EncoderMode::Compact);
    const sat::Encoding e = enc.encode(nl);
    EXPECT_EQ(e.outs[1], e.outs[0]);
    EXPECT_EQ(enc.stats().hash_hits, 1u);
}

// ---- shared constant variable ----------------------------------------------

TEST(CompactEncoder, OneConstantVariableServesBothPolarities) {
    sat::Solver s;
    CircuitEncoder enc(s, EncoderMode::Compact);
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
        CircuitEncoder enc(s, EncoderMode::Compact);
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

// ---- camouflaged cells: compact == legacy for every key ---------------------

TEST(CompactEncoder, CamoCellMatchesLegacyForEveryKeyAndInput) {
    Netlist nl("camo1");
    const auto a = nl.add_input("a");
    const auto b = nl.add_input("b");
    const auto g = nl.add_gate(Bool2::AND(), a, b, "g");
    nl.camouflage(g, {Bool2::AND(), Bool2::OR(), Bool2::XOR(), Bool2::NAND()},
                  "test");
    nl.add_output(g, "o");

    sat::Solver legacy_s, compact_s;
    CircuitEncoder legacy(legacy_s, EncoderMode::Legacy);
    CircuitEncoder compact(compact_s, EncoderMode::Compact);
    const sat::Encoding le = legacy.encode(nl);
    const sat::Encoding ce = compact.encode(nl);
    ASSERT_EQ(le.keys.size(), 2u);
    ASSERT_EQ(ce.keys.size(), le.keys.size());

    for (int key = 0; key < 4; ++key)
        for (int pat = 0; pat < 4; ++pat) {
            std::vector<Lit> la, ca;
            for (int bit = 0; bit < 2; ++bit) {
                la.push_back(pin(le.keys[bit], (key >> bit) & 1));
                ca.push_back(pin(ce.keys[bit], (key >> bit) & 1));
                la.push_back(pin(le.pis[bit], (pat >> bit) & 1));
                ca.push_back(pin(ce.pis[bit], (pat >> bit) & 1));
            }
            ASSERT_EQ(legacy_s.solve(la), SolveResult::Sat);
            ASSERT_EQ(compact_s.solve(ca), SolveResult::Sat);
            EXPECT_EQ(lit_value(compact_s, ce.outs[0]),
                      lit_value(legacy_s, le.outs[0]))
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

TEST(CompactEncoder, AgreementAdmitsExactlyTheLegacyKeys) {
    netlist::RandomSpec spec;
    spec.n_inputs = 8;
    spec.n_outputs = 5;
    spec.n_gates = 30;
    spec.seed = 404;
    const Netlist plain = netlist::random_circuit(spec);
    const camo::Protection prot = camo::apply_camouflage(
        plain, camo::select_gates(plain, 0.10, 7), camo::gshe16(), 7);
    attack::ExactOracle oracle(prot.netlist);
    const std::size_t key_bits = [&] {
        sat::Solver probe;
        return CircuitEncoder(probe).encode(prot.netlist).keys.size();
    }();
    ASSERT_GE(key_bits, 2u);
    ASSERT_LE(key_bits, 12u) << "matrix too large to enumerate";

    sat::Solver legacy_s, compact_s;
    CircuitEncoder legacy(legacy_s, EncoderMode::Legacy);
    CircuitEncoder compact(compact_s, EncoderMode::Compact);
    const sat::Encoding le = legacy.encode(prot.netlist);
    const sat::Encoding ce = compact.encode(prot.netlist);

    Rng rng(99);
    for (int dip = 0; dip < 4; ++dip) {
        std::vector<bool> x(prot.netlist.inputs().size());
        for (std::size_t i = 0; i < x.size(); ++i) x[i] = (rng() & 1) != 0;
        const std::vector<bool> y = oracle.query_single(x);
        legacy.add_agreement(prot.netlist, le.keys, x, y);
        compact.add_agreement(prot.netlist, ce.keys, x, y);
        const std::vector<bool> want = admitted_keys(legacy_s, le);
        EXPECT_EQ(admitted_keys(compact_s, ce), want) << "after DIP " << dip;
        // The observation always remains consistent with at least one key.
        EXPECT_NE(std::find(want.begin(), want.end(), true), want.end());
    }
    // The cone mechanism actually engaged: some gates were simulated away.
    EXPECT_GT(compact.stats().sim_gates, 0u);
    EXPECT_GT(compact.stats().cone_gates, 0u);
    EXPECT_LT(compact.stats().agreement_vars, legacy.stats().agreement_vars);
}

// ---- randomized attack equivalence ------------------------------------------

TEST(CompactAttack, TwoHundredRandomCamoNetlistsAgreeWithLegacy) {
    std::size_t with_keys = 0;
    for (std::uint64_t seed = 1; seed <= 200; ++seed) {
        netlist::RandomSpec spec;
        spec.n_inputs = 10;
        spec.n_outputs = 6;
        spec.n_gates = 45;
        spec.seed = seed;
        const Netlist plain = netlist::random_circuit(spec);
        const camo::Protection prot = camo::apply_camouflage(
            plain, camo::select_gates(plain, 0.12, seed), camo::gshe16(),
            seed);
        if (!prot.netlist.camo_cells().empty()) ++with_keys;

        attack::AttackResult results[2];
        for (int m = 0; m < 2; ++m) {
            attack::ExactOracle oracle(prot.netlist);
            attack::AttackOptions opt;
            opt.encoder = m == 0 ? "legacy" : "compact";
            results[m] = attack::sat_attack(prot.netlist, oracle, opt);
        }
        ASSERT_EQ(results[0].status, attack::AttackResult::Status::Success)
            << "seed " << seed;
        ASSERT_EQ(results[1].status, results[0].status) << "seed " << seed;
        EXPECT_EQ(results[0].key_error_rate, 0.0) << "seed " << seed;
        EXPECT_EQ(results[1].key_error_rate, 0.0) << "seed " << seed;
    }
    // The sweep exercised real key recovery, not 200 empty defenses.
    EXPECT_GT(with_keys, 150u);
}

TEST(CompactAttack, DeterministicDefenseFamiliesRecoverKeys) {
    DefenseConfig camo;
    camo.kind = "camo";
    camo.fraction = 0.12;
    DefenseConfig sarlock;
    sarlock.kind = "sarlock";
    sarlock.sarlock_bits = 4;

    engine::CampaignResult results[2];
    for (int m = 0; m < 2; ++m) {
        attack::AttackOptions opt;
        opt.encoder = m == 0 ? "legacy" : "compact";
        const std::vector<JobSpec> jobs = CampaignRunner::cross_product(
            {"alpha", "beta"}, {camo, sarlock},
            {"sat", "double_dip", "appsat"}, {1}, opt);
        CampaignOptions options;
        options.threads = 1;
        options.netlist_provider = tiny_circuit;
        results[m] = CampaignRunner(options).run(jobs);
    }
    ASSERT_EQ(results[0].jobs.size(), results[1].jobs.size());
    for (std::size_t i = 0; i < results[0].jobs.size(); ++i) {
        const engine::JobResult& l = results[0].jobs[i];
        const engine::JobResult& c = results[1].jobs[i];
        ASSERT_TRUE(l.error.empty() && c.error.empty())
            << l.circuit << "/" << l.defense << "/" << l.attack;
        EXPECT_EQ(c.result.status, l.result.status)
            << l.circuit << "/" << l.defense << "/" << l.attack;
        EXPECT_EQ(l.result.key_error_rate, 0.0)
            << l.circuit << "/" << l.defense << "/" << l.attack;
        EXPECT_EQ(c.result.key_error_rate, 0.0)
            << c.circuit << "/" << c.defense << "/" << c.attack;
        EXPECT_EQ(c.encoder, "compact");
        EXPECT_EQ(l.encoder, "legacy");
    }
}

// ---- campaign byte-identity in compact mode ---------------------------------

std::vector<JobSpec> compact_matrix() {
    DefenseConfig camo;
    camo.kind = "camo";
    camo.fraction = 0.12;
    camo.protect_seed = 0xC0DE;
    attack::AttackOptions opt;
    opt.encoder = "compact";
    return CampaignRunner::cross_product({"alpha", "beta"}, {camo},
                                         {"sat", "double_dip"}, {1, 2}, opt);
}

TEST(CompactCampaign, CsvByteIdenticalAcrossThreadCounts) {
    const std::vector<JobSpec> jobs = compact_matrix();
    std::vector<std::string> csvs;
    for (const int threads : {1, 8}) {
        CampaignOptions options;
        options.threads = threads;
        options.netlist_provider = tiny_circuit;
        csvs.push_back(
            engine::campaign_csv(CampaignRunner(options).run(jobs)));
    }
    EXPECT_EQ(csvs[0], csvs[1]);
    EXPECT_NE(csvs[0].find("success"), std::string::npos);
}

TEST(CompactCampaign, ResumeReplaysByteIdentically) {
    namespace fs = std::filesystem;
    const fs::path dir = fs::temp_directory_path() / "gshe_encoder_resume";
    fs::remove_all(dir);
    fs::create_directories(dir);
    const std::string journal = (dir / "c.jsonl").string();

    const std::vector<JobSpec> jobs = compact_matrix();
    CampaignOptions first;
    first.threads = 4;
    first.netlist_provider = tiny_circuit;
    first.checkpoint_path = journal;
    first.resume_from_checkpoint = false;
    const std::string live =
        engine::campaign_csv(CampaignRunner(first).run(jobs));

    CampaignOptions second;
    second.threads = 4;
    second.netlist_provider = tiny_circuit;
    second.checkpoint_path = journal;
    const engine::CampaignResult resumed = CampaignRunner(second).run(jobs);
    EXPECT_EQ(resumed.resumed, jobs.size());
    EXPECT_EQ(engine::campaign_csv(resumed), live);
    // The encoder column and its counters round-tripped through the journal.
    for (const engine::JobResult& j : resumed.jobs) {
        EXPECT_EQ(j.encoder, "compact");
        EXPECT_GT(j.result.encoder_stats.vars, 0u);
        EXPECT_GT(j.result.encoder_stats.cone_gates, 0u);
    }
    fs::remove_all(dir);
}

// ---- journal schema ---------------------------------------------------------

TEST(CheckpointEncoder, StatFieldsRoundTripThroughARecord) {
    JobSpec spec;
    spec.circuit = "alpha";
    spec.attack_options.encoder = "compact";
    engine::JobResult r;
    r.index = 2;
    r.circuit = "alpha";
    r.encoder = "compact";
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
    EXPECT_EQ(decoded->spec.attack_options.encoder, "compact");
    const engine::JobResult& d = decoded->result;
    EXPECT_EQ(d.encoder, "compact");
    const sat::EncoderStats& es = d.result.encoder_stats;
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

TEST(CheckpointEncoder, LegacySpecJsonAndJobKeysAreUnchanged) {
    JobSpec legacy;
    legacy.circuit = "alpha";
    // The default spec must not mention the encoder at all: job keys are
    // fnv1a over this JSON, and default job keys must not change with it.
    EXPECT_EQ(engine::checkpoint::spec_json(legacy).find("encoder"),
              std::string::npos);

    JobSpec compact = legacy;
    compact.attack_options.encoder = "compact";
    const std::string json = engine::checkpoint::spec_json(compact);
    EXPECT_NE(json.find("\"encoder\":\"compact\""), std::string::npos);
    // Different encoder => different job identity: a compact journal can
    // never satisfy a legacy campaign (or vice versa).
    EXPECT_NE(engine::checkpoint::job_key(1, 0, legacy),
              engine::checkpoint::job_key(1, 0, compact));
}

}  // namespace
}  // namespace gshe

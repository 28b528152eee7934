// Tests for the campaign engine: DefenseFactory, the Attack registry, the
// parallel CampaignRunner's determinism contract, oracle cost accounting,
// the report writers, and the key_error_rate tail-masking regression.
#include <gtest/gtest.h>

#include <algorithm>

#include "attack/appsat.hpp"
#include "attack/attack.hpp"
#include "attack/double_dip.hpp"
#include "attack/sat_attack.hpp"
#include "camo/cell_library.hpp"
#include "camo/protect.hpp"
#include "common/report.hpp"
#include "engine/campaign.hpp"
#include "engine/defense.hpp"
#include "engine/report.hpp"
#include "netlist/generator.hpp"

namespace gshe::engine {
namespace {

using attack::AttackOptions;
using attack::AttackResult;
using netlist::Netlist;

/// Small fast circuits so the full matrix tests stay in the seconds range.
Netlist tiny_circuit(const std::string& name) {
    netlist::RandomSpec spec;
    spec.n_inputs = 12;
    spec.n_outputs = 8;
    spec.n_gates = 80;
    spec.seed = name == "alpha" ? 11 : 22;
    return netlist::random_circuit(spec, name);
}

// ---- DefenseFactory ---------------------------------------------------------

TEST(DefenseFactory, BuildsEveryKind) {
    const Netlist base = tiny_circuit("alpha");
    for (const auto& kind : DefenseFactory::kinds()) {
        DefenseConfig config;
        config.kind = kind;
        config.fraction = 0.10;
        const DefenseInstance inst = DefenseFactory::build(base, config, 42);
        ASSERT_NE(inst.netlist, nullptr) << kind;
        ASSERT_NE(inst.oracle, nullptr) << kind;
        EXPECT_FALSE(inst.label.empty()) << kind;
        // delay_aware is slack-driven and may legitimately select nothing on
        // a tiny shallow circuit; every other kind must protect something.
        if (kind != "delay_aware") {
            EXPECT_GT(inst.protected_cells, 0u) << kind;
            EXPECT_GT(inst.key_bits, 0) << kind;
        }
        EXPECT_EQ(inst.true_key.size(), static_cast<std::size_t>(inst.key_bits))
            << kind;
    }
}

TEST(DefenseFactory, SarlockKeyBitsMatchConfig) {
    const Netlist base = tiny_circuit("alpha");
    DefenseConfig config;
    config.kind = "sarlock";
    config.sarlock_bits = 6;
    const DefenseInstance inst = DefenseFactory::build(base, config, 1);
    EXPECT_EQ(inst.protected_cells, 6u);
    EXPECT_EQ(inst.key_bits, 6);
}

TEST(DefenseFactory, ProtectSeedPinsSelectionAcrossLibraries) {
    // The Table IV methodology: the same gates must be protected for every
    // library column when protect_seed is shared.
    const Netlist base = tiny_circuit("beta");
    DefenseConfig a, b;
    a.kind = b.kind = "camo";
    a.fraction = b.fraction = 0.15;
    a.protect_seed = b.protect_seed = 0x7AB4;
    a.library = "gshe16";
    b.library = "rajendran13";
    const auto da = DefenseFactory::build(base, a, /*seed=*/1);
    const auto db = DefenseFactory::build(base, b, /*seed=*/999);
    ASSERT_EQ(da.protected_cells, db.protected_cells);
    for (std::size_t i = 0; i < da.netlist->camo_cells().size(); ++i)
        EXPECT_EQ(da.netlist->camo_cells()[i].gate,
                  db.netlist->camo_cells()[i].gate);
}

TEST(DefenseFactory, RejectsUnknownKindAndLibrary) {
    const Netlist base = tiny_circuit("alpha");
    DefenseConfig bad_kind;
    bad_kind.kind = "quantum";
    EXPECT_THROW(DefenseFactory::build(base, bad_kind, 1), std::invalid_argument);
    DefenseConfig bad_lib;
    bad_lib.library = "no_such_library";
    EXPECT_THROW(DefenseFactory::build(base, bad_lib, 1), std::invalid_argument);
}

TEST(DefenseFactory, LabelsAreDistinctAndDeterministic) {
    DefenseConfig camo;
    DefenseConfig stoch;
    stoch.kind = "stochastic";
    stoch.accuracy = 0.9;
    DefenseConfig sarlock;
    sarlock.kind = "sarlock";
    EXPECT_EQ(camo.label(), "camo:gshe16@10%");
    EXPECT_EQ(stoch.label(), "stochastic:gshe16@10%~0.9");
    EXPECT_EQ(sarlock.label(), "sarlock:m4");
}

// ---- Attack registry --------------------------------------------------------

TEST(AttackRegistry, RegistersTheThreePaperAttacks) {
    const auto names = attack::attack_names();
    ASSERT_EQ(names.size(), 3u);
    EXPECT_EQ(names[0], "sat");
    EXPECT_EQ(names[1], "appsat");
    EXPECT_EQ(names[2], "double_dip");
    EXPECT_EQ(attack::find_attack("nope"), nullptr);
    EXPECT_THROW(attack::attack_by_name("nope"), std::invalid_argument);
    EXPECT_EQ(attack::attack_by_name("sat").name(), "sat");
    EXPECT_FALSE(attack::attack_by_name("double_dip").label().empty());
}

TEST(AttackRegistry, RoundTripMatchesDirectCalls) {
    // The uniform interface must behave exactly like the historical free
    // functions on the same protection instance.
    const Netlist base = tiny_circuit("alpha");
    const auto sel = camo::select_gates(base, 0.12, 9);
    const auto prot = camo::apply_camouflage(base, sel, camo::gshe16(), 9);
    AttackOptions opt;
    opt.timeout_seconds = 120.0;

    const auto compare = [&](const std::string& name, auto&& direct) {
        attack::ExactOracle o1(prot.netlist);
        const AttackResult via_registry =
            attack::attack_by_name(name).run(prot.netlist, o1, opt);
        attack::ExactOracle o2(prot.netlist);
        const AttackResult via_direct = direct(prot.netlist, o2, opt);
        EXPECT_EQ(via_registry.status, via_direct.status) << name;
        EXPECT_EQ(via_registry.iterations, via_direct.iterations) << name;
        EXPECT_EQ(via_registry.key.bits, via_direct.key.bits) << name;
        EXPECT_EQ(via_registry.key_error_rate, via_direct.key_error_rate) << name;
        EXPECT_EQ(via_registry.solver_stats.conflicts,
                  via_direct.solver_stats.conflicts)
            << name;
    };

    compare("sat", [](const Netlist& nl, attack::Oracle& o,
                      const AttackOptions& a) { return attack::sat_attack(nl, o, a); });
    compare("double_dip", [](const Netlist& nl, attack::Oracle& o,
                             const AttackOptions& a) {
        return attack::double_dip_attack(nl, o, a);
    });
    compare("appsat", [](const Netlist& nl, attack::Oracle& o,
                         const AttackOptions& a) {
        attack::AppSatOptions opts;
        opts.base = a;
        return attack::appsat_attack(nl, o, opts);
    });
}

TEST(AttackRegistry, SeedFreeAttacksIgnoreTheSeed) {
    // The engine copies a seed-free attack's result across seed replicates
    // (engine::result_leaders), so the declaration must hold: another
    // AttackOptions::seed changes nothing.
    EXPECT_FALSE(attack::attack_by_name("sat").reads_seed());
    EXPECT_FALSE(attack::attack_by_name("double_dip").reads_seed());
    EXPECT_TRUE(attack::attack_by_name("appsat").reads_seed());
    const Netlist base = tiny_circuit("beta");
    const auto prot = camo::apply_camouflage(
        base, camo::select_gates(base, 0.12, 5), camo::gshe16(), 5);
    for (const auto& name : attack::attack_names()) {
        const attack::Attack& a = attack::attack_by_name(name);
        if (a.reads_seed()) continue;
        AttackOptions one, two;
        one.seed = 1;
        two.seed = 2;
        attack::ExactOracle o1(prot.netlist), o2(prot.netlist);
        const AttackResult r1 = a.run(prot.netlist, o1, one);
        const AttackResult r2 = a.run(prot.netlist, o2, two);
        EXPECT_EQ(r1.status, r2.status) << name;
        EXPECT_EQ(r1.iterations, r2.iterations) << name;
        EXPECT_EQ(r1.key.bits, r2.key.bits) << name;
        EXPECT_EQ(r1.solver_stats.conflicts, r2.solver_stats.conflicts) << name;
        EXPECT_EQ(r1.solver_stats.propagations, r2.solver_stats.propagations)
            << name;
        EXPECT_EQ(o1.stats().patterns, o2.stats().patterns) << name;
    }
}

// ---- CampaignRunner ---------------------------------------------------------

std::vector<JobSpec> test_matrix() {
    DefenseConfig camo;
    camo.fraction = 0.10;
    DefenseConfig sarlock;
    sarlock.kind = "sarlock";
    sarlock.sarlock_bits = 4;
    DefenseConfig stochastic;
    stochastic.kind = "stochastic";
    stochastic.fraction = 0.10;
    stochastic.accuracy = 0.95;

    AttackOptions opt;
    opt.timeout_seconds = 600.0;   // generous: the deterministic budget binds
    opt.max_conflicts = 20000;
    return CampaignRunner::cross_product(
        {"alpha", "beta"}, {camo, sarlock, stochastic}, {"sat", "double_dip"},
        {1, 2}, opt);
}

CampaignOptions test_options(int threads) {
    CampaignOptions options;
    options.threads = threads;
    options.netlist_provider = tiny_circuit;
    return options;
}

TEST(CampaignRunner, ResultsBitIdenticalAcrossThreadCounts) {
    const auto jobs = test_matrix();
    ASSERT_EQ(jobs.size(), 24u);
    const CampaignResult r1 = CampaignRunner(test_options(1)).run(jobs);
    const CampaignResult r8 = CampaignRunner(test_options(8)).run(jobs);
    ASSERT_EQ(r1.jobs.size(), jobs.size());
    ASSERT_EQ(r8.jobs.size(), jobs.size());
    EXPECT_EQ(r1.threads, 1);
    EXPECT_EQ(r8.threads, 8);

    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const JobResult& a = r1.jobs[i];
        const JobResult& b = r8.jobs[i];
        ASSERT_EQ(a.error, b.error) << i;
        EXPECT_EQ(a.derived_seed, b.derived_seed) << i;
        EXPECT_EQ(a.result.status, b.result.status) << i;
        EXPECT_EQ(a.result.iterations, b.result.iterations) << i;
        EXPECT_EQ(a.result.key.bits, b.result.key.bits) << i;
        EXPECT_EQ(a.result.key_error_rate, b.result.key_error_rate) << i;
        EXPECT_EQ(a.result.oracle_patterns, b.result.oracle_patterns) << i;
        EXPECT_EQ(a.result.solver_stats.conflicts, b.result.solver_stats.conflicts)
            << i;
        EXPECT_EQ(a.result.solver_stats.decisions, b.result.solver_stats.decisions)
            << i;
        EXPECT_EQ(a.oracle_stats.calls, b.oracle_stats.calls) << i;
        EXPECT_EQ(a.oracle_stats.patterns, b.oracle_stats.patterns) << i;
        EXPECT_EQ(a.protected_cells, b.protected_cells) << i;
        EXPECT_EQ(a.key_bits, b.key_bits) << i;
    }

    // The acceptance-criterion form of the same statement: the aggregate
    // deterministic CSV is byte-identical.
    EXPECT_EQ(campaign_csv(r1), campaign_csv(r8));
}

TEST(CampaignRunner, SeedDerivationIsPositionDependent) {
    const std::uint64_t s00 = CampaignRunner::derive_seed(1, 0, 1);
    EXPECT_EQ(s00, CampaignRunner::derive_seed(1, 0, 1));
    EXPECT_NE(s00, CampaignRunner::derive_seed(1, 1, 1));  // other job slot
    EXPECT_NE(s00, CampaignRunner::derive_seed(1, 0, 2));  // other spec seed
    EXPECT_NE(s00, CampaignRunner::derive_seed(2, 0, 1));  // other campaign
}

TEST(CampaignRunner, JobFailuresAreCapturedNotFatal) {
    JobSpec good;
    good.circuit = "alpha";
    good.defense.fraction = 0.05;
    good.attack = "sat";
    JobSpec bad_attack = good;
    bad_attack.attack = "no_such_attack";
    JobSpec bad_circuit = good;
    bad_circuit.circuit = "no_such_circuit";

    CampaignOptions options = test_options(2);
    options.netlist_provider = [](const std::string& name) {
        if (name != "alpha") throw std::runtime_error("unknown circuit " + name);
        return tiny_circuit(name);
    };
    const CampaignResult res =
        CampaignRunner(options).run({good, bad_attack, bad_circuit});
    ASSERT_EQ(res.jobs.size(), 3u);
    EXPECT_TRUE(res.jobs[0].error.empty());
    EXPECT_EQ(res.jobs[0].result.status, AttackResult::Status::Success);
    EXPECT_NE(res.jobs[1].error.find("no_such_attack"), std::string::npos);
    EXPECT_NE(res.jobs[2].error.find("no_such_circuit"), std::string::npos);
    EXPECT_EQ(res.errored(), 2u);
    EXPECT_EQ(res.succeeded(), 1u);
}

TEST(CampaignRunner, ProgressCallbackFiresOncePerJob) {
    const auto jobs = CampaignRunner::cross_product(
        {"alpha"}, {DefenseConfig{}}, {"sat"}, {1, 2, 3}, AttackOptions{});
    CampaignOptions options = test_options(3);
    std::vector<std::size_t> seen;
    options.on_job_done = [&](const JobResult& j) { seen.push_back(j.index); };
    const CampaignResult res = CampaignRunner(options).run(jobs);
    EXPECT_EQ(res.jobs.size(), 3u);
    std::sort(seen.begin(), seen.end());
    EXPECT_EQ(seen, (std::vector<std::size_t>{0, 1, 2}));
}

// ---- oracle accounting ------------------------------------------------------

TEST(OracleStats, CountsCallsAndPatterns) {
    const Netlist nl = tiny_circuit("alpha");
    attack::ExactOracle oracle(nl);
    std::vector<std::uint64_t> pi(nl.inputs().size(), 0xDEADBEEFULL);
    (void)oracle.query(pi);
    (void)oracle.query(pi);
    (void)oracle.query_single(std::vector<bool>(nl.inputs().size(), true));
    const attack::OracleStats& s = oracle.stats();
    EXPECT_EQ(s.calls, 3u);
    EXPECT_EQ(s.single_calls, 1u);
    EXPECT_EQ(s.patterns, 129u);
    EXPECT_EQ(oracle.patterns_queried(), 129u);
    EXPECT_GE(s.seconds, 0.0);
}

// ---- key_error_rate tail masking (regression) -------------------------------

TEST(KeyErrorRate, TailWordIsMaskedToRequestedPatterns) {
    // y = AND(a, b) camouflaged as {AND, OR}; the wrong key computes OR, so
    // the circuits disagree exactly when a != b. With `patterns` not a
    // multiple of 64 the estimate must use only the first `patterns` lanes
    // of the final simulation word — reproduce the generator stream and
    // check against the exact masked value.
    Netlist nl("tail");
    const auto a = nl.add_input("a");
    const auto b = nl.add_input("b");
    const auto g = nl.add_gate(core::Bool2::AND(), a, b);
    nl.add_output(g, "y");
    nl.camouflage(g, {core::Bool2::AND(), core::Bool2::OR()}, "test2");
    camo::Key wrong;
    wrong.bits = {true};  // candidate index 1 = OR

    const std::uint64_t seed = 77;
    Rng rng(seed ^ 0x7e57ULL);
    const std::uint64_t wa = rng();
    const std::uint64_t wb = rng();
    const std::uint64_t diff = wa ^ wb;  // AND vs OR disagree iff a != b

    for (const std::size_t patterns : {1ul, 20ul, 63ul, 64ul}) {
        const std::uint64_t mask = patterns == 64
                                       ? ~std::uint64_t{0}
                                       : (std::uint64_t{1} << patterns) - 1;
        const double expected =
            static_cast<double>(__builtin_popcountll(diff & mask)) /
            static_cast<double>(patterns);
        EXPECT_DOUBLE_EQ(attack::key_error_rate(nl, wrong, patterns, seed),
                         expected)
            << patterns << " patterns";
    }
}

// ---- report writers ---------------------------------------------------------

TEST(Report, CsvEscapesAndValidatesWidth) {
    Csv csv({"a", "b"});
    csv.row({"plain", "with,comma"});
    csv.row({"with\"quote", "line\nbreak"});
    EXPECT_THROW(csv.row({"too-short"}), std::invalid_argument);
    EXPECT_EQ(csv.render(),
              "a,b\n"
              "plain,\"with,comma\"\n"
              "\"with\"\"quote\",\"line\nbreak\"\n");
    EXPECT_EQ(Csv::num(0.5), "0.5");
    EXPECT_EQ(Csv::num(std::uint64_t{42}), "42");
}

TEST(Report, JsonWriterProducesValidStructure) {
    JsonWriter w;
    w.begin_object();
    w.key("name");
    w.value("say \"hi\"");
    w.key("n");
    w.value(std::uint64_t{3});
    w.key("xs");
    w.begin_array();
    w.value(1.5);
    w.value(true);
    w.end_array();
    w.end_object();
    EXPECT_EQ(w.str(), "{\"name\":\"say \\\"hi\\\"\",\"n\":3,\"xs\":[1.5,true]}");
}

TEST(Report, CampaignCsvHasOneRowPerJobAndNoTimingByDefault) {
    const auto jobs = CampaignRunner::cross_product(
        {"alpha"}, {DefenseConfig{}}, {"sat"}, {1, 2}, AttackOptions{});
    const CampaignResult res = CampaignRunner(test_options(1)).run(jobs);
    const std::string csv = campaign_csv(res);
    EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 3);  // header + 2 jobs
    EXPECT_EQ(csv.find("seconds"), std::string::npos);
    EXPECT_NE(campaign_csv(res, /*include_timing=*/true).find("job_seconds"),
              std::string::npos);
    const std::string json = campaign_json(res);
    EXPECT_NE(json.find("\"jobs\":[{\"index\":0,"), std::string::npos);
    EXPECT_NE(json.find("\"oracle_stats\":{\"calls\""), std::string::npos);
    EXPECT_FALSE(campaign_summary(res).empty());
}

}  // namespace
}  // namespace gshe::engine

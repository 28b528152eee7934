// Tests for the shared oracle service (attack/oracle_service.hpp) and its
// campaign integration: the per-oracle determinism contract (deterministic /
// epoch_keyed / non_cacheable), the word-packed query memo in front of
// evaluate(), the planner's defense-instance sharing groups, and — the
// acceptance criterion — that campaign CSVs are byte-identical with the
// memo on or off at any thread/shard count, with the cache-stat fields
// round-tripping through the checkpoint journal.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "attack/oracle.hpp"
#include "attack/oracle_service.hpp"
#include "camo/cell_library.hpp"
#include "camo/dynamic.hpp"
#include "camo/protect.hpp"
#include "engine/campaign.hpp"
#include "engine/checkpoint.hpp"
#include "engine/merge.hpp"
#include "engine/report.hpp"
#include "netlist/generator.hpp"

namespace gshe {
namespace {

using attack::ExactOracle;
using attack::OracleContract;
using attack::OracleService;
using attack::StochasticOracle;
using engine::CampaignOptions;
using engine::CampaignRunner;
using engine::DefenseConfig;
using engine::JobPlan;
using engine::JobSpec;
using netlist::Netlist;

Netlist tiny_circuit(const std::string& name) {
    netlist::RandomSpec spec;
    spec.n_inputs = 12;
    spec.n_outputs = 8;
    spec.n_gates = 60;
    spec.seed = name == "alpha" ? 11 : 22;
    return netlist::random_circuit(spec, name);
}

camo::Protection protect(const Netlist& nl, double fraction = 0.12,
                         std::uint64_t seed = 9) {
    return camo::apply_camouflage(nl, camo::select_gates(nl, fraction, seed),
                                  camo::gshe16(), seed);
}

std::vector<std::uint64_t> pattern(std::size_t words, std::uint64_t seed) {
    Rng rng(seed);
    std::vector<std::uint64_t> out(words);
    for (auto& w : out) w = rng();
    return out;
}

// ---- the service and the deterministic contract -----------------------------

TEST(OracleService, SharedMemoServesSiblingClients) {
    const Netlist nl = tiny_circuit("alpha");
    ExactOracle oracle(nl);
    OracleService service(oracle);
    const auto a = service.make_client();
    const auto b = service.make_client();

    const auto p = pattern(nl.inputs().size(), 3);
    const auto direct = netlist::Simulator(nl).run(p);
    EXPECT_EQ(a->query(p), direct);  // miss: first sight anywhere
    EXPECT_EQ(b->query(p), direct);  // hit: sibling paid for it
    EXPECT_EQ(a->cache_stats().misses, 1u);
    EXPECT_EQ(a->cache_stats().hits, 0u);
    EXPECT_EQ(b->cache_stats().hits, 1u);
    EXPECT_EQ(b->cache_stats().misses, 0u);
    // Per-client logical metering is unaffected by who evaluated.
    EXPECT_EQ(a->patterns_queried(), 64u);
    EXPECT_EQ(b->patterns_queried(), 64u);
    // The chip itself evaluated once.
    EXPECT_EQ(oracle.stats().calls, 1u);
    const auto stats = service.stats();
    EXPECT_EQ(stats.entries, 1u);
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.misses, 1u);
}

TEST(OracleService, UniquePatternsIsOwnStreamDataIndependentOfTheFlag) {
    const Netlist nl = tiny_circuit("alpha");
    const auto p = pattern(nl.inputs().size(), 3);
    const auto q = pattern(nl.inputs().size(), 4);

    auto run_stream = [&](bool enable_cache) {
        ExactOracle oracle(nl);
        OracleService::Options opts;
        opts.enable_cache = enable_cache;
        OracleService service(oracle, opts);
        const auto client = service.make_client();
        (void)client->query(p);
        (void)client->query(q);
        (void)client->query(p);  // repeat
        return client->cache_stats();
    };

    const auto off = run_stream(false);
    const auto on = run_stream(true);
    // unique_patterns is a pure function of the client's own query stream —
    // the CSV column may not depend on the memo flag.
    EXPECT_EQ(off.unique_patterns, 2u);
    EXPECT_EQ(on.unique_patterns, 2u);
    // Only cost accounting moves.
    EXPECT_EQ(off.hits, 0u);
    EXPECT_EQ(off.bypassed, 3u);
    EXPECT_EQ(on.hits, 1u);
    EXPECT_EQ(on.misses, 2u);
}

TEST(OracleService, ByteCapStopsInsertionsNotCorrectness) {
    const Netlist nl = tiny_circuit("alpha");
    ExactOracle oracle(nl);
    OracleService::Options opts;
    opts.max_bytes = 1;  // nothing fits
    OracleService service(oracle, opts);
    const auto client = service.make_client();

    const auto p = pattern(nl.inputs().size(), 3);
    const auto first = client->query(p);
    const auto second = client->query(p);
    EXPECT_EQ(first, second);
    EXPECT_EQ(client->cache_stats().misses, 2u);  // never inserted => no hit
    const auto stats = service.stats();
    EXPECT_EQ(stats.entries, 0u);
    EXPECT_EQ(stats.bytes, 0u);
    EXPECT_EQ(stats.capacity_stops, 2u);
}

// ---- non-cacheable: the stochastic oracle ----------------------------------

TEST(OracleService, StochasticOracleProvablyBypassesTheMemo) {
    const Netlist nl = tiny_circuit("alpha");
    const camo::Protection prot = protect(nl);
    constexpr double kAccuracy = 0.7;
    constexpr std::uint64_t kSeed = 77;

    StochasticOracle direct(prot.netlist, kAccuracy, kSeed);
    StochasticOracle shared(prot.netlist, kAccuracy, kSeed);
    OracleService service(shared);
    const auto client = service.make_client();
    ASSERT_EQ(client->contract(), OracleContract::NonCacheable);

    // Re-querying one pattern must re-roll the device errors every time —
    // byte-for-byte the same draw sequence as an unwrapped oracle, proving
    // no response was replayed.
    const auto p = pattern(nl.inputs().size(), 5);
    for (int i = 0; i < 4; ++i) EXPECT_EQ(client->query(p), direct.query(p));

    EXPECT_EQ(client->cache_stats().bypassed, 4u);
    EXPECT_EQ(client->cache_stats().hits, 0u);
    EXPECT_EQ(client->cache_stats().misses, 0u);
    EXPECT_EQ(client->cache_stats().unique_patterns, 0u);  // never keyed
    const auto stats = service.stats();
    EXPECT_EQ(stats.entries, 0u);   // the memo never held an entry
    EXPECT_EQ(stats.bypassed, 4u);
}

// ---- epoch-keyed: the rekeying oracle ---------------------------------------

TEST(OracleService, RekeyingOracleNeverServesAStaleEpochEntry) {
    const Netlist nl = tiny_circuit("beta");
    const camo::Protection prot = protect(nl, 0.25);
    constexpr std::uint64_t kSeed = 31;
    // interval=1: every query after the first opens a new epoch, so a memo
    // that ignored epochs would replay pattern p's epoch-1 answer forever.
    camo::RekeyingOracle direct(prot.netlist, 1, 1.0, 0.5, kSeed);
    camo::RekeyingOracle shared(prot.netlist, 1, 1.0, 0.5, kSeed);
    OracleService service(shared);
    const auto client = service.make_client();
    ASSERT_EQ(client->contract(), OracleContract::EpochKeyed);

    const auto p = pattern(nl.inputs().size(), 6);
    for (int i = 0; i < 8; ++i) {
        // Identical sequence to the unwrapped oracle: epochs advance on the
        // same schedule and stale entries are never replayed.
        EXPECT_EQ(client->query(p), direct.query(p)) << "query " << i;
    }
    EXPECT_EQ(client->cache_stats().hits, 0u);  // every epoch is fresh
    EXPECT_EQ(client->epochs_elapsed(), direct.epochs_elapsed());
}

TEST(OracleService, RekeyingOracleHitsWithinAnEpochAndKeepsTheClock) {
    const Netlist nl = tiny_circuit("beta");
    const camo::Protection prot = protect(nl, 0.25);
    constexpr std::uint64_t kSeed = 31;
    constexpr std::uint64_t kInterval = 4;
    camo::RekeyingOracle direct(prot.netlist, kInterval, 1.0, 0.5, kSeed);
    camo::RekeyingOracle shared(prot.netlist, kInterval, 1.0, 0.5, kSeed);
    OracleService service(shared);
    const auto client = service.make_client();

    // 3 epochs of 4 queries, alternating two patterns: within an epoch the
    // second sight of a pattern is a memo hit, yet the response sequence —
    // and the epoch schedule, which counts *queries*, hits included — is
    // identical to the unwrapped oracle's.
    const auto p = pattern(nl.inputs().size(), 6);
    const auto q = pattern(nl.inputs().size(), 7);
    for (int i = 0; i < 12; ++i) {
        const auto& x = (i % 2 == 0) ? p : q;
        EXPECT_EQ(client->query(x), direct.query(x)) << "query " << i;
    }
    EXPECT_GT(client->cache_stats().hits, 0u);
    EXPECT_EQ(client->epochs_elapsed(), direct.epochs_elapsed());
    EXPECT_EQ(client->epochs_elapsed(), 2u);  // 12 queries / interval 4
}

// ---- the planner's sharing groups -------------------------------------------

std::vector<JobSpec> grouped_matrix(bool pin_protect_seed) {
    DefenseConfig camo;
    camo.fraction = 0.10;
    if (pin_protect_seed) camo.protect_seed = 42;
    DefenseConfig stochastic;
    stochastic.kind = "stochastic";
    stochastic.fraction = 0.10;
    if (pin_protect_seed) stochastic.protect_seed = 42;

    attack::AttackOptions opt;
    opt.timeout_seconds = 600.0;  // generous: the deterministic budget binds
    opt.max_conflicts = 10000;
    return CampaignRunner::cross_product({"alpha", "beta"},
                                         {camo, stochastic},
                                         {"sat", "double_dip"}, {1, 2}, opt);
}

TEST(Planner, GroupsJobsAttackingIdenticalDefenseInstances) {
    const JobPlan plan = engine::plan_jobs(grouped_matrix(true), 0x5eed);
    ASSERT_EQ(plan.size(), 16u);
    // Per circuit: the 4 camo jobs ({sat,double_dip} x {1,2}) share one
    // pinned instance; the 4 stochastic jobs stay singletons (their oracle
    // consumes a per-job RNG stream, so sharing would leak scheduling).
    std::size_t shared = 0, singleton = 0;
    for (const auto& g : plan.groups) {
        if (g.members.size() > 1) {
            ++shared;
            EXPECT_EQ(g.members.size(), 4u);
            EXPECT_EQ(g.id, g.members.front());
            for (const std::size_t m : g.members) {
                EXPECT_EQ(plan.jobs[m].spec.defense.kind, "camo");
                EXPECT_EQ(plan.jobs[m].group, g.id);
                EXPECT_EQ(plan.group_of(m).id, g.id);
            }
        } else {
            ++singleton;
            EXPECT_EQ(plan.jobs[g.members.front()].spec.defense.kind,
                      "stochastic");
        }
    }
    EXPECT_EQ(shared, 2u);      // one camo group per circuit
    EXPECT_EQ(singleton, 8u);   // every stochastic job private
}

TEST(Planner, NoSharingWithoutAPinnedProtectSeed) {
    // Per-job derived seeds make every netlist build unique: all groups
    // must be singletons (today's per-job behavior, preserved).
    const JobPlan plan = engine::plan_jobs(grouped_matrix(false), 0x5eed);
    EXPECT_EQ(plan.groups.size(), plan.size());
    for (const auto& g : plan.groups) EXPECT_EQ(g.members.size(), 1u);
}

// ---- campaign-level byte-identity -------------------------------------------

CampaignOptions campaign_options(int threads, engine::OracleCacheMode mode) {
    CampaignOptions options;
    options.threads = threads;
    options.netlist_provider = tiny_circuit;
    options.oracle_cache = mode;
    return options;
}

TEST(CampaignCache, CsvByteIdenticalAcrossCacheModesAndThreadCounts) {
    const std::vector<JobSpec> jobs = grouped_matrix(true);
    std::vector<std::string> csvs;
    for (const auto mode :
         {engine::OracleCacheMode::Off, engine::OracleCacheMode::On,
          engine::OracleCacheMode::Auto})
        for (const int threads : {1, 8})
            csvs.push_back(engine::campaign_csv(
                CampaignRunner(campaign_options(threads, mode)).run(jobs)));
    for (std::size_t i = 1; i < csvs.size(); ++i)
        EXPECT_EQ(csvs[0], csvs[i]) << "variant " << i;
    // The group columns report the sharing: the first camo job sits in a
    // 4-member group with a deterministic contract.
    EXPECT_NE(csvs[0].find("deterministic,0,4,"), std::string::npos);
    EXPECT_NE(csvs[0].find("non_cacheable,"), std::string::npos);
}

TEST(CampaignCache, CacheOnActuallySharesEvaluations) {
    // AppSAT reads its seed, so its seed replicates on one pinned instance
    // each run their own attack, and the later ones replay DIP queries the
    // first one paid for. (Seed replicates of sat or double_dip copy one
    // attack run and query nothing; see engine::result_leaders.)
    DefenseConfig camo;
    camo.fraction = 0.10;
    camo.protect_seed = 42;
    attack::AttackOptions opt;
    opt.timeout_seconds = 600.0;  // generous: the deterministic budget binds
    opt.max_conflicts = 10000;
    const std::vector<JobSpec> jobs = CampaignRunner::cross_product(
        {"alpha"}, {camo}, {"appsat"}, {1, 2, 3}, opt);
    const auto on = CampaignRunner(campaign_options(
                                       1, engine::OracleCacheMode::On))
                        .run(jobs);
    ASSERT_EQ(on.errored(), 0u);
    EXPECT_EQ(on.jobs.front().oracle_group_size, 3u);  // one shared group
    EXPECT_EQ(on.shared, 0u);
    std::uint64_t hits = 0, logical = 0, evaluated = 0;
    for (const auto& j : on.jobs) {
        hits += j.oracle_cache.hits;
        logical += j.oracle_cache.logical();
        evaluated += j.oracle_cache.evaluated();
    }
    EXPECT_GT(hits, 0u);
    EXPECT_LT(evaluated, logical);
    for (const auto& j : on.jobs) {
        if (j.oracle_group_size > 1) {
            EXPECT_TRUE(j.oracle_cache_enabled);
        }
    }
}

TEST(CampaignCache, ShardedCacheOnMergesToTheUnshardedCacheOffCsv) {
    namespace fs = std::filesystem;
    const fs::path dir = fs::temp_directory_path() / "gshe_oracle_cache";
    fs::remove_all(dir);
    fs::create_directories(dir);

    const std::vector<JobSpec> jobs = grouped_matrix(true);
    const std::string baseline = engine::campaign_csv(
        CampaignRunner(campaign_options(1, engine::OracleCacheMode::Off))
            .run(jobs));

    std::vector<std::string> journals;
    for (std::size_t s = 0; s < 2; ++s) {
        CampaignOptions options =
            campaign_options(4, engine::OracleCacheMode::On);
        options.shard = engine::ShardSpec{s, 2};
        options.checkpoint_path =
            (dir / ("shard" + std::to_string(s) + ".jsonl")).string();
        const auto result = CampaignRunner(options).run(jobs);
        EXPECT_EQ(result.errored(), 0u);
        journals.push_back(options.checkpoint_path);
    }
    const engine::MergeReport merged = engine::merge_journals(journals);
    ASSERT_TRUE(merged.ok()) << merged.errors.front();
    // Merge renders from journal records: byte-equality also proves the
    // deterministic oracle columns round-trip through the journal.
    EXPECT_EQ(engine::campaign_csv(merged.result), baseline);
    fs::remove_all(dir);
}

TEST(CampaignCache, ResumeReplaysCacheColumnsByteIdentically) {
    namespace fs = std::filesystem;
    const fs::path dir = fs::temp_directory_path() / "gshe_oracle_resume";
    fs::remove_all(dir);
    fs::create_directories(dir);
    const std::string journal = (dir / "c.jsonl").string();

    const std::vector<JobSpec> jobs = grouped_matrix(true);
    CampaignOptions first = campaign_options(4, engine::OracleCacheMode::On);
    first.checkpoint_path = journal;
    first.resume_from_checkpoint = false;
    const std::string live =
        engine::campaign_csv(CampaignRunner(first).run(jobs));

    // Resume with every job already journaled: nothing re-runs, the CSV —
    // including every oracle/cache column — must re-render byte-for-byte.
    CampaignOptions second = campaign_options(4, engine::OracleCacheMode::On);
    second.checkpoint_path = journal;
    const auto resumed = CampaignRunner(second).run(jobs);
    EXPECT_EQ(resumed.resumed, jobs.size());
    EXPECT_EQ(engine::campaign_csv(resumed), live);
    fs::remove_all(dir);
}

// ---- journal round-trip of the measured cache stats -------------------------

TEST(CheckpointCache, CacheStatFieldsRoundTripThroughARecord) {
    JobSpec spec;
    spec.circuit = "alpha";
    engine::JobResult r;
    r.index = 3;
    r.circuit = "alpha";
    r.result.status = attack::AttackResult::Status::Success;
    r.oracle_contract = "deterministic";
    r.oracle_group = 1;
    r.oracle_group_size = 4;
    r.oracle_unique = 17;
    r.oracle_cache_enabled = true;
    r.oracle_cache.hits = 5;
    r.oracle_cache.misses = 12;
    r.oracle_cache.bypassed = 2;
    r.oracle_cache.unique_patterns = 17;
    r.oracle_cache.inserted_bytes = 4096;

    const std::string line =
        engine::checkpoint::encode_record(99, spec, r, {});
    const auto decoded = engine::checkpoint::decode_record(line);
    ASSERT_TRUE(decoded.has_value());
    const engine::JobResult& d = decoded->result;
    EXPECT_EQ(d.oracle_contract, "deterministic");
    EXPECT_EQ(d.oracle_group, 1u);
    EXPECT_EQ(d.oracle_group_size, 4u);
    EXPECT_EQ(d.oracle_unique, 17u);
    EXPECT_TRUE(d.oracle_cache_enabled);
    EXPECT_EQ(d.oracle_cache.hits, 5u);
    EXPECT_EQ(d.oracle_cache.misses, 12u);
    EXPECT_EQ(d.oracle_cache.bypassed, 2u);
    EXPECT_EQ(d.oracle_cache.unique_patterns, 17u);
    EXPECT_EQ(d.oracle_cache.inserted_bytes, 4096u);
}

}  // namespace
}  // namespace gshe

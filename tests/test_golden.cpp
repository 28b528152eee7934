// Golden-result regression suite: one fixed-seed mini-campaign per defense
// family (camo, sarlock, stochastic, dynamic), each rendered to the
// deterministic campaign CSV and compared byte-for-byte against a committed
// snapshot in tests/golden/. A refactor that shifts any reported number —
// solver search, DIP loop, oracle noise, defense construction, seed
// derivation, CSV formatting — fails here instead of silently changing the
// paper reproduction.
//
// Everything under test is platform-independent by construction: randomness
// is xoshiro256** (common/rng.hpp), solver statistics are integer counts,
// and key_error_rate is a popcount ratio rendered at "%.10g". Wall-clock
// never enters the deterministic CSV.
//
// To regenerate after an *intentional* behavior change:
//   GSHE_UPDATE_GOLDEN=1 ./test_golden   # then commit tests/golden/*.csv
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "engine/campaign.hpp"
#include "engine/report.hpp"
#include "netlist/generator.hpp"

#ifndef GSHE_GOLDEN_DIR
#error "GSHE_GOLDEN_DIR must point at tests/golden (set by CMakeLists.txt)"
#endif

namespace gshe::engine {
namespace {

using attack::AttackOptions;
using netlist::Netlist;

Netlist golden_circuit(const std::string& name) {
    netlist::RandomSpec spec;
    spec.n_inputs = 12;
    spec.n_outputs = 8;
    spec.n_gates = 70;
    spec.seed = name == "g1" ? 101 : 202;
    return netlist::random_circuit(spec, name);
}

DefenseConfig defense_for(const std::string& kind) {
    DefenseConfig d;
    d.kind = kind;
    d.fraction = 0.10;
    d.sarlock_bits = 4;
    d.accuracy = 0.95;
    d.rekey_interval = 16;
    d.scramble_frac = 0.5;
    d.duty_true = 0.5;
    return d;
}

/// 2 circuits x 2 attacks x 2 seeds = 8 jobs per defense family, budgeted
/// by conflicts so the outcome mix (success / t-o / inconsistent) is stable.
std::string campaign_csv_for(const std::string& kind) {
    AttackOptions opt;
    opt.timeout_seconds = 600.0;
    opt.max_conflicts = 10000;
    const auto jobs = CampaignRunner::cross_product(
        {"g1", "g2"}, {defense_for(kind)}, {"sat", "double_dip"}, {1, 2}, opt);

    CampaignOptions options;
    options.threads = 4;  // determinism contract: thread count is irrelevant
    options.campaign_seed = 0x601d;
    options.netlist_provider = golden_circuit;
    return campaign_csv(CampaignRunner(options).run(jobs));
}

void check_against_golden(const std::string& kind) {
    const std::string path =
        std::string(GSHE_GOLDEN_DIR) + "/" + kind + ".csv";
    const std::string csv = campaign_csv_for(kind);

    if (std::getenv("GSHE_UPDATE_GOLDEN") != nullptr) {
        std::ofstream f(path, std::ios::binary | std::ios::trunc);
        ASSERT_TRUE(f.good()) << "cannot write " << path;
        f << csv;
        GTEST_SKIP() << "regenerated " << path;
    }

    std::ifstream f(path, std::ios::binary);
    ASSERT_TRUE(f.good())
        << path << " missing — run GSHE_UPDATE_GOLDEN=1 ./test_golden and "
        << "commit the snapshot";
    std::ostringstream content;
    content << f.rdbuf();
    EXPECT_EQ(csv, content.str())
        << "campaign results for '" << kind << "' diverged from the golden "
        << "snapshot. If this change is intentional, regenerate with "
        << "GSHE_UPDATE_GOLDEN=1 ./test_golden and commit the diff.";
}

TEST(Golden, CamoCampaignMatchesSnapshot) { check_against_golden("camo"); }

TEST(Golden, SarlockCampaignMatchesSnapshot) {
    check_against_golden("sarlock");
}

TEST(Golden, StochasticCampaignMatchesSnapshot) {
    check_against_golden("stochastic");
}

TEST(Golden, DynamicCampaignMatchesSnapshot) {
    check_against_golden("dynamic");
}

}  // namespace
}  // namespace gshe::engine

// Tests for the campaign checkpoint/resume subsystem: journal record
// round-trips (unknown fields and corrupt field values included), the
// atomic write-then-rename persistence, and — the core contract — that a
// campaign interrupted after ANY prefix of jobs and resumed from its
// journal produces a byte-identical aggregate CSV to an uninterrupted run,
// at --threads=1 and --threads=8.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "engine/campaign.hpp"
#include "engine/checkpoint.hpp"
#include "engine/report.hpp"
#include "netlist/generator.hpp"

namespace gshe::engine {
namespace {

using attack::AttackOptions;
using attack::AttackResult;
using netlist::Netlist;

Netlist tiny_circuit(const std::string& name) {
    netlist::RandomSpec spec;
    spec.n_inputs = 12;
    spec.n_outputs = 8;
    spec.n_gates = 60;
    spec.seed = name == "alpha" ? 11 : 22;
    return netlist::random_circuit(spec, name);
}

/// The 12-job property-test matrix: 2 circuits x 3 defenses x 1 attack x
/// 2 seeds, budgeted by conflicts so every outcome is deterministic.
std::vector<JobSpec> matrix12() {
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
    opt.timeout_seconds = 600.0;  // generous: the deterministic budget binds
    opt.max_conflicts = 10000;
    return CampaignRunner::cross_product(
        {"alpha", "beta"}, {camo, sarlock, stochastic}, {"sat"}, {1, 2}, opt);
}

CampaignOptions test_options(int threads, std::string checkpoint = {},
                             bool resume = true) {
    CampaignOptions options;
    options.threads = threads;
    options.netlist_provider = tiny_circuit;
    options.checkpoint_path = std::move(checkpoint);
    options.resume_from_checkpoint = resume;
    return options;
}

/// Unique-per-test scratch journal, removed on destruction.
struct ScratchJournal {
    std::string path;
    explicit ScratchJournal(const std::string& name)
        : path((std::filesystem::temp_directory_path() /
                ("gshe_ckpt_" + name + ".jsonl"))
                   .string()) {
        std::filesystem::remove(path);
    }
    ~ScratchJournal() {
        std::filesystem::remove(path);
        std::filesystem::remove(path + ".tmp");
    }

    std::vector<std::string> lines() const {
        std::vector<std::string> out;
        std::ifstream f(path, std::ios::binary);
        std::string line;
        while (std::getline(f, line)) out.push_back(line);
        return out;
    }

    void write_lines(const std::vector<std::string>& lines) const {
        std::ofstream f(path, std::ios::binary | std::ios::trunc);
        for (const auto& line : lines) f << line << '\n';
    }
};

JobResult sample_result() {
    JobResult r;
    r.index = 7;
    r.circuit = "alpha";
    r.defense = "camo:gshe16@10%";
    r.attack = "sat";
    r.spec_seed = 2;
    r.derived_seed = 0xfedcba9876543210ULL;  // does not fit a double
    r.protected_cells = 6;
    r.key_bits = 24;
    r.error = "with \"quotes\"\nand a newline";
    r.job_seconds = 0.125;
    r.oracle_epochs = 3;
    r.result.status = AttackResult::Status::Inconsistent;
    r.result.key.bits = {true, false, true, true};
    r.result.iterations = 17;
    r.result.seconds = 1.0 / 3.0;  // needs %.17g to round-trip
    r.result.oracle_patterns = 1088;
    r.result.key_error_rate = 2.0 / 3.0;
    r.result.key_exact = false;
    r.result.solver_stats.decisions = 123;
    r.result.solver_stats.propagations = 45678;
    r.result.solver_stats.conflicts = 90;
    r.result.solver_stats.restarts = 4;
    r.result.solver_stats.learnt_clauses = 88;
    r.result.solver_stats.removed_clauses = 11;
    r.result.solver_stats.chrono_backtracks = 29;
    r.result.solver_stats.gc_runs = 2;
    r.oracle_stats.calls = 21;
    r.oracle_stats.single_calls = 4;
    r.oracle_stats.patterns = 1092;
    r.oracle_stats.seconds = 0.0625;
    return r;
}

JobSpec sample_spec() {
    JobSpec spec;
    spec.circuit = "beta";
    spec.defense.kind = "dynamic";
    spec.defense.library = "gshe16";
    spec.defense.fraction = 0.15;
    spec.defense.sarlock_bits = 6;
    spec.defense.accuracy = 0.99;
    spec.defense.rekey_interval = 10;
    spec.defense.scramble_frac = 0.25;
    spec.defense.duty_true = 1.0 / 3.0;
    spec.defense.protect_seed = 0xdeadbeefcafef00dULL;
    spec.attack = "appsat";
    spec.seed = 5;
    spec.attack_options.timeout_seconds = 12.5;
    spec.attack_options.max_conflicts = 0xffffffffffffffffULL;  // u64 max
    spec.attack_options.max_iterations = 4096;
    spec.attack_options.seed = 99;
    spec.attack_options.verify_patterns = 123;
    spec.attack_options.verify_seed = 77;
    spec.attack_options.appsat_error_threshold = 0.01;
    return spec;
}

void expect_specs_equal(const JobSpec& a, const JobSpec& b) {
    EXPECT_EQ(a.circuit, b.circuit);
    EXPECT_EQ(a.defense.kind, b.defense.kind);
    EXPECT_EQ(a.defense.library, b.defense.library);
    EXPECT_EQ(a.defense.fraction, b.defense.fraction);
    EXPECT_EQ(a.defense.sarlock_bits, b.defense.sarlock_bits);
    EXPECT_EQ(a.defense.accuracy, b.defense.accuracy);
    EXPECT_EQ(a.defense.rekey_interval, b.defense.rekey_interval);
    EXPECT_EQ(a.defense.scramble_frac, b.defense.scramble_frac);
    EXPECT_EQ(a.defense.duty_true, b.defense.duty_true);
    EXPECT_EQ(a.defense.protect_seed, b.defense.protect_seed);
    EXPECT_EQ(a.attack, b.attack);
    EXPECT_EQ(a.seed, b.seed);
    EXPECT_EQ(a.attack_options.timeout_seconds, b.attack_options.timeout_seconds);
    EXPECT_EQ(a.attack_options.max_conflicts, b.attack_options.max_conflicts);
    EXPECT_EQ(a.attack_options.max_iterations, b.attack_options.max_iterations);
    EXPECT_EQ(a.attack_options.seed, b.attack_options.seed);
    EXPECT_EQ(a.attack_options.verify_patterns, b.attack_options.verify_patterns);
    EXPECT_EQ(a.attack_options.verify_seed, b.attack_options.verify_seed);
    EXPECT_EQ(a.attack_options.appsat_error_threshold,
              b.attack_options.appsat_error_threshold);
}

void expect_results_equal(const JobResult& a, const JobResult& b) {
    EXPECT_EQ(a.index, b.index);
    EXPECT_EQ(a.circuit, b.circuit);
    EXPECT_EQ(a.defense, b.defense);
    EXPECT_EQ(a.attack, b.attack);
    EXPECT_EQ(a.spec_seed, b.spec_seed);
    EXPECT_EQ(a.derived_seed, b.derived_seed);
    EXPECT_EQ(a.protected_cells, b.protected_cells);
    EXPECT_EQ(a.key_bits, b.key_bits);
    EXPECT_EQ(a.error, b.error);
    EXPECT_EQ(a.job_seconds, b.job_seconds);
    EXPECT_EQ(a.oracle_epochs, b.oracle_epochs);
    EXPECT_EQ(a.result.status, b.result.status);
    EXPECT_EQ(a.result.key.bits, b.result.key.bits);
    EXPECT_EQ(a.result.iterations, b.result.iterations);
    EXPECT_EQ(a.result.seconds, b.result.seconds);
    EXPECT_EQ(a.result.oracle_patterns, b.result.oracle_patterns);
    EXPECT_EQ(a.result.key_error_rate, b.result.key_error_rate);
    EXPECT_EQ(a.result.key_exact, b.result.key_exact);
    EXPECT_EQ(a.result.solver_stats.decisions, b.result.solver_stats.decisions);
    EXPECT_EQ(a.result.solver_stats.propagations,
              b.result.solver_stats.propagations);
    EXPECT_EQ(a.result.solver_stats.conflicts, b.result.solver_stats.conflicts);
    EXPECT_EQ(a.result.solver_stats.restarts, b.result.solver_stats.restarts);
    EXPECT_EQ(a.result.solver_stats.learnt_clauses,
              b.result.solver_stats.learnt_clauses);
    EXPECT_EQ(a.result.solver_stats.removed_clauses,
              b.result.solver_stats.removed_clauses);
    EXPECT_EQ(a.result.solver_stats.chrono_backtracks,
              b.result.solver_stats.chrono_backtracks);
    EXPECT_EQ(a.result.solver_stats.gc_runs, b.result.solver_stats.gc_runs);
    EXPECT_EQ(a.oracle_stats.calls, b.oracle_stats.calls);
    EXPECT_EQ(a.oracle_stats.single_calls, b.oracle_stats.single_calls);
    EXPECT_EQ(a.oracle_stats.patterns, b.oracle_stats.patterns);
    EXPECT_EQ(a.oracle_stats.seconds, b.oracle_stats.seconds);
}

// ---- JSON parser ------------------------------------------------------------

TEST(Json, ParsesScalarsExactly) {
    const auto v = json::parse(
        R"({"u":18446744073709551615,"i":-42,"d":0.125,"b":true,"n":null,)"
        R"("s":"a\"b\\c\ndA","arr":[1,2,3],"nested":{"x":[]}})");
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(v->find("u")->as_u64(), 18446744073709551615ULL);
    EXPECT_EQ(v->find("i")->as_i64(), -42);
    EXPECT_EQ(v->find("d")->as_double(), 0.125);
    EXPECT_TRUE(v->find("b")->as_bool());
    EXPECT_TRUE(v->find("n")->is_null());
    EXPECT_EQ(v->find("s")->as_string(), "a\"b\\c\ndA");
    ASSERT_TRUE(v->find("arr")->is_array());
    EXPECT_EQ(v->find("arr")->items().size(), 3u);
    EXPECT_TRUE(v->find("nested")->find("x")->is_array());
    EXPECT_EQ(v->find("missing"), nullptr);
}

TEST(Json, RejectsMalformedDocuments) {
    for (const char* bad :
         {"", "{", "[1,", "{\"a\":}", "{\"a\":1,}", "tru", "01a", "\"open",
          "{\"a\":1} trailing", "{'a':1}"})
        EXPECT_FALSE(json::parse(bad).has_value()) << bad;
}

TEST(Json, DeepNestingFailsInsteadOfOverflowingTheStack) {
    // A corrupt journal line must be skippable, never fatal — including a
    // pathological one that would otherwise recurse once per '['.
    const std::string bomb(100000, '[');
    EXPECT_FALSE(json::parse(bomb).has_value());
    const std::string keyed =
        bomb + std::string(100000, ']');  // even well-formed but absurd
    EXPECT_FALSE(json::parse(keyed).has_value());
    // Sane nesting (well inside the limit) still parses.
    EXPECT_TRUE(json::parse("[[[[[[[[[[1]]]]]]]]]]").has_value());
}

// ---- record round trips -----------------------------------------------------

TEST(CheckpointRecord, ResultRoundTripsExactly) {
    const JobSpec spec = sample_spec();
    const JobResult original = sample_result();
    const std::uint64_t key = checkpoint::job_key(0x6a0b5eed, 7, spec);
    const std::string line = checkpoint::encode_record(key, spec, original);
    EXPECT_EQ(line.find('\n'), std::string::npos)
        << "journal lines must be single-line JSONL";

    const auto record = checkpoint::decode_record(line);
    ASSERT_TRUE(record.has_value());
    EXPECT_EQ(record->key, key);
    expect_specs_equal(record->spec, spec);
    expect_results_equal(record->result, original);
}

TEST(CheckpointRecord, SpecRoundTripsWithAndWithoutProtectSeed) {
    JobSpec spec = sample_spec();
    auto decoded = checkpoint::decode_spec(checkpoint::spec_json(spec));
    ASSERT_TRUE(decoded.has_value());
    expect_specs_equal(*decoded, spec);

    spec.defense.protect_seed.reset();
    decoded = checkpoint::decode_spec(checkpoint::spec_json(spec));
    ASSERT_TRUE(decoded.has_value());
    EXPECT_FALSE(decoded->defense.protect_seed.has_value());
}

TEST(CheckpointRecord, UnknownFieldsAreTolerated) {
    // Forward compatibility: a future writer may add fields anywhere in the
    // record; today's decoder must ignore them without losing the rest.
    const JobSpec spec = sample_spec();
    const JobResult original = sample_result();
    const std::uint64_t key = checkpoint::job_key(1, 7, spec);
    std::string line = checkpoint::encode_record(key, spec, original);
    auto inject_after = [&](const std::string& anchor, const std::string& extra) {
        const std::size_t at = line.find(anchor);
        ASSERT_NE(at, std::string::npos) << anchor;
        line.insert(at + anchor.size(), extra);
    };
    inject_after("{\"v\":5", ",\"future\":{\"nested\":[1,\"two\",null]}");
    inject_after("\"spec\":{", "\"new_spec_field\":3.5,");
    inject_after("\"result\":{", "\"gpu_seconds\":0.1,");

    const auto record = checkpoint::decode_record(line);
    ASSERT_TRUE(record.has_value());
    expect_specs_equal(record->spec, spec);
    expect_results_equal(record->result, original);
}

TEST(CheckpointRecord, MalformedAndWrongVersionRejected) {
    const std::string good = checkpoint::encode_record(
        1, sample_spec(), sample_result());
    EXPECT_TRUE(checkpoint::decode_record(good).has_value());
    // Truncation anywhere inside the line (a kill mid-append) must yield
    // nullopt, not a throw.
    for (std::size_t keep = 0; keep < good.size(); ++keep) {
        std::optional<checkpoint::Record> decoded;
        EXPECT_NO_THROW(decoded = checkpoint::decode_record(good.substr(0, keep)))
            << keep;
        EXPECT_FALSE(decoded.has_value()) << keep;
    }
    // Unsupported version.
    std::string wrong_version = good;
    wrong_version.replace(wrong_version.find("\"v\":5"), 5, "\"v\":9");
    EXPECT_FALSE(checkpoint::decode_record(wrong_version).has_value());
    // Bad status string.
    std::string bad_status = good;
    const std::string needle = "\"status\":\"inconsistent\"";
    bad_status.replace(bad_status.find(needle), needle.size(),
                       "\"status\":\"no-such-status\"");
    EXPECT_FALSE(checkpoint::decode_record(bad_status).has_value());
}

/// A scalar member of a JSON document: its dotted path ("result.index")
/// and the byte range of its value.
struct ScalarField {
    std::string path;
    std::size_t begin = 0;
    std::size_t end = 0;  ///< one past the value's last byte
};

/// Every scalar member of a JsonWriter document (no whitespace, no arrays
/// of objects), in document order.
std::vector<ScalarField> scalar_fields(const std::string& doc) {
    const auto closing_quote = [&](std::size_t open) {
        std::size_t i = open + 1;
        while (doc[i] != '"') i += doc[i] == '\\' ? 2 : 1;
        return i;
    };
    std::vector<ScalarField> fields;
    std::vector<std::string> objects;  // names of the enclosing objects
    std::string name;
    for (std::size_t i = 0; i < doc.size(); ++i) {
        if (doc[i] == '"') {
            const std::size_t close = closing_quote(i);
            name = doc.substr(i + 1, close - i - 1);
            i = close;
        } else if (doc[i] == '}' && !objects.empty()) {
            objects.pop_back();
        } else if (doc[i] == ':' && doc[i + 1] == '{') {
            objects.push_back(name);
        } else if (doc[i] == ':') {
            std::string path;
            for (const auto& object : objects) path += object + '.';
            const std::size_t begin = i + 1;
            const std::size_t end = doc[begin] == '"'
                                        ? closing_quote(begin) + 1
                                        : doc.find_first_of(",}]", begin);
            fields.push_back({path + name, begin, end});
            i = end - 1;
        }
    }
    return fields;
}

TEST(CheckpointRecord, CorruptFieldValuesDecodeOrAreRejectedNeverThrow) {
    // Every scalar of a stamped v5 record — spec, result and stamp — takes
    // each wrong type and out-of-range number in turn. A non-number falls
    // back to the field's default. The record is rejected where it cannot
    // be used: a version other than 5, a job key that is not a u64, an
    // unknown status, a recovered key that is not a string of 0/1 bits,
    // and an integer field holding a number it cannot represent (a
    // fraction, an overflowing exponent, 2^64, or -1 when unsigned): such
    // a record would resume a wrong count into the CSV, a rejected one
    // re-runs its job.
    const checkpoint::ShardStamp stamp{0x1234abcd5678ef90ULL, 24, 1, 2};
    const std::string good = checkpoint::encode_record(
        0xfeedULL, sample_spec(), sample_result(), stamp);
    const std::vector<ScalarField> fields = scalar_fields(good);
    ASSERT_EQ(fields.size(), 75u);
    // The sample's floating-point fields all hold fractions, so a field
    // written as bare digits is an integer field.
    const auto integer = [&](const ScalarField& field) {
        return good.find_first_not_of("0123456789", field.begin) >= field.end;
    };
    const auto is_signed = [](const std::string& path) {
        return path == "spec.defense.sarlock_bits" || path == "result.key_bits";
    };
    const auto rejected = [&](const ScalarField& field, const std::string& value) {
        const std::string& path = field.path;
        if (path == "v" || path == "key" || path == "result.attack_result.status")
            return true;
        if (path == "result.attack_result.key") return value[0] == '"';
        if (!integer(field)) return false;
        if (value == "-1") return !is_signed(path);
        return value == "0.5" || value == "1e999" ||
               value == "18446744073709551616";
    };
    std::size_t unsigned_fields = 0, signed_fields = 0;
    for (const ScalarField& field : fields)
        if (integer(field) && field.path != "v" && field.path != "key") {
            if (is_signed(field.path))
                ++signed_fields;
            else
                ++unsigned_fields;
        }
    EXPECT_EQ(unsigned_fields, 48u);
    EXPECT_EQ(signed_fields, 2u);

    std::size_t decoded = 0;
    for (const ScalarField& field : fields) {
        for (const std::string value :
             {"\"junk\"", "0.5", "null", "{}", "[]", "-1", "1e999",
              "18446744073709551616"}) {
            std::string line = good;
            line.replace(field.begin, field.end - field.begin, value);
            std::optional<checkpoint::Record> record;
            EXPECT_NO_THROW(record = checkpoint::decode_record(line)) << line;
            EXPECT_EQ(record.has_value(), !rejected(field, value))
                << field.path << " = " << value;
            decoded += record.has_value();
        }
    }
    // Rejected: all 8 values of the version, the job key and the status,
    // the string as the recovered key, 4 numbers in each other unsigned
    // field and 3 in each signed one.
    EXPECT_EQ(decoded, 8 * fields.size() - 3 * 8 - 1 - 4 * unsigned_fields -
                           3 * signed_fields);

    // An int field holding a value beyond int's range is rejected too.
    std::string wide_key_bits = good;
    const std::string key_bits = "\"key_bits\":24";
    wide_key_bits.replace(wide_key_bits.find(key_bits), key_bits.size(),
                          "\"key_bits\":4294967296");
    EXPECT_FALSE(checkpoint::decode_record(wide_key_bits).has_value());

    // A recovered key must be bits.
    std::string bad_key = good;
    const std::string bits = "\"key\":\"1011\"";
    bad_key.replace(bad_key.find(bits), bits.size(), "\"key\":\"10x1\"");
    EXPECT_FALSE(checkpoint::decode_record(bad_key).has_value());
}

TEST(CheckpointRecord, OlderVersionLinesAreSkippedOnLoad) {
    // Version 1 records hold results of the retired fresh-solver key
    // extraction, version 2 records results of the retired per-gate CNF
    // encoding, version 3 records results of the backjump-only search, all
    // under job keys that did not change; version 4 records may hold a
    // search under solver options that no longer exist. They must re-run.
    const JobSpec spec = sample_spec();
    const std::string v5 = checkpoint::encode_record(
        checkpoint::job_key(1, 7, spec), spec, sample_result());
    const auto with_version = [&](const char* v) {
        std::string line = v5;
        line.replace(line.find("\"v\":5"), 5, v);
        return line;
    };

    ScratchJournal scratch("older_versions");
    scratch.write_lines({with_version("\"v\":1"), with_version("\"v\":2"),
                         with_version("\"v\":3"), with_version("\"v\":4"),
                         v5});
    const std::vector<checkpoint::Record> records =
        checkpoint::load_journal(scratch.path);
    ASSERT_EQ(records.size(), 1u);
    EXPECT_EQ(records.front().line, v5);
}

TEST(CheckpointRecord, JobKeyDependsOnSeedIndexAndSpec) {
    const JobSpec spec = sample_spec();
    const std::uint64_t k = checkpoint::job_key(1, 0, spec);
    EXPECT_EQ(k, checkpoint::job_key(1, 0, spec));
    EXPECT_NE(k, checkpoint::job_key(2, 0, spec));  // other campaign
    EXPECT_NE(k, checkpoint::job_key(1, 1, spec));  // other slot
    JobSpec other = spec;
    other.attack_options.max_conflicts -= 1;
    EXPECT_NE(k, checkpoint::job_key(1, 0, other));  // any spec change
}

// ---- the resume determinism contract ----------------------------------------

TEST(CheckpointResume, AnyPrefixAnyThreadCountIsByteIdentical) {
    const auto jobs = matrix12();
    ASSERT_EQ(jobs.size(), 12u);

    ScratchJournal scratch("prefix");
    const CampaignResult full =
        CampaignRunner(test_options(1, scratch.path)).run(jobs);
    ASSERT_EQ(full.errored(), 0u);
    const std::string golden_csv = campaign_csv(full);
    const std::vector<std::string> journal = scratch.lines();
    ASSERT_EQ(journal.size(), 12u);

    // Kill-after-K simulation: the journal truncated to its first K records
    // is exactly the on-disk state after K jobs finished (the write-then-
    // rename protocol guarantees whole-record granularity).
    for (std::size_t k = 0; k <= journal.size(); ++k) {
        for (const int threads : {1, 8}) {
            scratch.write_lines({journal.begin(), journal.begin() + k});
            const CampaignResult resumed =
                CampaignRunner(test_options(threads, scratch.path)).run(jobs);
            EXPECT_EQ(resumed.resumed, k) << "K=" << k;
            EXPECT_EQ(campaign_csv(resumed), golden_csv)
                << "K=" << k << " threads=" << threads;
            EXPECT_EQ(scratch.lines().size(), 12u) << "journal healed";
        }
    }
}

TEST(CheckpointResume, JournalFromParallelRunResumesOnSingleThread) {
    const auto jobs = matrix12();
    ScratchJournal scratch("parallel");
    const CampaignResult parallel =
        CampaignRunner(test_options(8, scratch.path)).run(jobs);
    const std::string golden_csv = campaign_csv(parallel);

    // Drop a middle record: completion order is scheduling-dependent, so
    // resume must match by key, not by position.
    std::vector<std::string> journal = scratch.lines();
    ASSERT_EQ(journal.size(), 12u);
    journal.erase(journal.begin() + 5);
    scratch.write_lines(journal);

    const CampaignResult resumed =
        CampaignRunner(test_options(1, scratch.path)).run(jobs);
    EXPECT_EQ(resumed.resumed, 11u);
    EXPECT_EQ(campaign_csv(resumed), golden_csv);
}

TEST(CheckpointResume, CorruptTrailingLineIsSkippedNotFatal) {
    const auto jobs = matrix12();
    ScratchJournal scratch("corrupt");
    const CampaignResult full =
        CampaignRunner(test_options(1, scratch.path)).run(jobs);
    const std::string golden_csv = campaign_csv(full);

    // Simulate an append-mode writer dying mid-line: keep 8 whole records,
    // then a partial 9th with no newline.
    const std::vector<std::string> journal = scratch.lines();
    {
        std::ofstream f(scratch.path, std::ios::binary | std::ios::trunc);
        for (std::size_t i = 0; i < 8; ++i) f << journal[i] << '\n';
        f << journal[8].substr(0, journal[8].size() / 2);
    }
    EXPECT_EQ(checkpoint::load_journal(scratch.path).size(), 8u);

    const CampaignResult resumed =
        CampaignRunner(test_options(4, scratch.path)).run(jobs);
    EXPECT_EQ(resumed.resumed, 8u);
    EXPECT_EQ(campaign_csv(resumed), golden_csv);
}

TEST(CheckpointResume, StaleRecordsAreIgnoredAndDropped) {
    const auto jobs = matrix12();
    ScratchJournal scratch("stale");
    CampaignOptions first = test_options(1, scratch.path);
    first.campaign_seed = 0x111;
    CampaignRunner(first).run(jobs);
    ASSERT_EQ(scratch.lines().size(), 12u);

    // A different campaign seed changes every job key: nothing may resume,
    // and the journal must be rebuilt for the new campaign.
    CampaignOptions second = test_options(1, scratch.path);
    second.campaign_seed = 0x222;
    const CampaignResult res = CampaignRunner(second).run(jobs);
    EXPECT_EQ(res.resumed, 0u);
    const auto records = checkpoint::load_journal(scratch.path);
    ASSERT_EQ(records.size(), 12u);
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        // Journal order is completion order; match each record by key.
        bool found = false;
        const std::uint64_t expect = checkpoint::job_key(0x222, i, jobs[i]);
        for (const auto& record : records) found = found || record.key == expect;
        EXPECT_TRUE(found) << i;
    }
}

TEST(CheckpointResume, ResumeDisabledStartsFresh) {
    const auto jobs = matrix12();
    ScratchJournal scratch("fresh");
    CampaignRunner(test_options(1, scratch.path)).run(jobs);
    ASSERT_EQ(scratch.lines().size(), 12u);

    std::size_t fresh_jobs = 0;
    CampaignOptions options =
        test_options(1, scratch.path, /*resume=*/false);
    options.on_job_done = [&](const JobResult&) { ++fresh_jobs; };
    const CampaignResult res = CampaignRunner(options).run(jobs);
    EXPECT_EQ(res.resumed, 0u);
    EXPECT_EQ(fresh_jobs, 12u);
    EXPECT_EQ(scratch.lines().size(), 12u);
}

TEST(CheckpointResume, OnJobDoneFiresOnlyForFreshJobs) {
    const auto jobs = matrix12();
    ScratchJournal scratch("hook");
    CampaignRunner(test_options(1, scratch.path)).run(jobs);
    const std::vector<std::string> journal = scratch.lines();
    scratch.write_lines({journal.begin(), journal.begin() + 5});

    std::size_t fired = 0;
    CampaignOptions options = test_options(2, scratch.path);
    options.on_job_done = [&](const JobResult&) { ++fired; };
    const CampaignResult res = CampaignRunner(options).run(jobs);
    EXPECT_EQ(res.resumed, 5u);
    EXPECT_EQ(fired, 7u);
}

TEST(CheckpointResume, NoTmpFileSurvivesACompletedRun) {
    const auto jobs = CampaignRunner::cross_product(
        {"alpha"}, {DefenseConfig{}}, {"sat"}, {1}, AttackOptions{});
    ScratchJournal scratch("tmpfile");
    CampaignRunner(test_options(1, scratch.path)).run(jobs);
    EXPECT_TRUE(std::filesystem::exists(scratch.path));
    EXPECT_FALSE(std::filesystem::exists(scratch.path + ".tmp"));
}

TEST(CheckpointResume, ErroredJobsAreNotJournaledAndRetryOnResume) {
    // An error is environmental, not a pure function of the spec: a job
    // that died to a preemption-era failure must re-run on resume, never
    // have its error replayed from the journal.
    JobSpec good;
    good.circuit = "alpha";
    good.defense.fraction = 0.05;
    JobSpec bad = good;
    bad.attack = "no_such_attack";

    ScratchJournal scratch("errored");
    CampaignOptions options = test_options(1, scratch.path);
    const CampaignResult first = CampaignRunner(options).run({good, bad});
    EXPECT_EQ(first.errored(), 1u);
    EXPECT_EQ(scratch.lines().size(), 1u) << "only the clean job journaled";

    std::size_t fresh = 0;
    options.on_job_done = [&](const JobResult&) { ++fresh; };
    const CampaignResult second = CampaignRunner(options).run({good, bad});
    EXPECT_EQ(second.resumed, 1u);
    EXPECT_EQ(fresh, 1u) << "the errored job re-ran";
    // This spec's error is deterministic, so it errors again — and again
    // stays out of the journal.
    EXPECT_EQ(second.errored(), 1u);
    EXPECT_EQ(scratch.lines().size(), 1u);
}

TEST(CheckpointResume, ForeignErrorRecordsAreIgnoredOnLoad) {
    // Defense in depth: even if an error record reaches the journal (an
    // older writer, a hand-merged file), resume must skip it.
    const auto jobs = CampaignRunner::cross_product(
        {"alpha"}, {DefenseConfig{}}, {"sat"}, {1}, AttackOptions{});
    ScratchJournal scratch("foreign_error");
    JobResult errored;
    errored.index = 0;
    errored.error = "transient: out of memory";
    const std::uint64_t key =
        checkpoint::job_key(CampaignOptions{}.campaign_seed, 0, jobs[0]);
    scratch.write_lines({checkpoint::encode_record(key, jobs[0], errored)});

    CampaignOptions options = test_options(1, scratch.path);
    const CampaignResult res = CampaignRunner(options).run(jobs);
    EXPECT_EQ(res.resumed, 0u);
    EXPECT_EQ(res.errored(), 0u) << "the job re-ran cleanly";
}

TEST(CheckpointResume, UnwritableJournalPathFailsAtSetup) {
    // A 48 h campaign must not silently run without the checkpointing it
    // was asked for: an unusable journal path is a setup error, detected
    // before any job runs. (Mid-run persistence failures, by contrast, are
    // captured in CampaignResult::checkpoint_error and disable journaling
    // without sacrificing the computation.)
    const auto jobs = CampaignRunner::cross_product(
        {"alpha"}, {DefenseConfig{}}, {"sat"}, {1, 2}, AttackOptions{});
    EXPECT_THROW(
        CampaignRunner(
            test_options(1, "/nonexistent_dir_gshe/journal.jsonl"))
            .run(jobs),
        std::runtime_error);
}

}  // namespace
}  // namespace gshe::engine

#include "engine/checkpoint.hpp"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "common/hash.hpp"
#include "common/json.hpp"
#include "common/report.hpp"

namespace gshe::engine::checkpoint {

namespace {

// ---- encode helpers ---------------------------------------------------------

void write_spec(JsonWriter& w, const JobSpec& spec) {
    w.begin_object();
    w.key("circuit");
    w.value(spec.circuit);
    w.key("defense");
    w.begin_object();
    w.key("kind");
    w.value(spec.defense.kind);
    w.key("library");
    w.value(spec.defense.library);
    w.key("fraction");
    w.value_full(spec.defense.fraction);
    w.key("sarlock_bits");
    w.value(static_cast<std::int64_t>(spec.defense.sarlock_bits));
    w.key("accuracy");
    w.value_full(spec.defense.accuracy);
    w.key("rekey_interval");
    w.value(spec.defense.rekey_interval);
    w.key("scramble_frac");
    w.value_full(spec.defense.scramble_frac);
    w.key("duty_true");
    w.value_full(spec.defense.duty_true);
    if (spec.defense.protect_seed) {
        w.key("protect_seed");
        w.value(*spec.defense.protect_seed);
    }
    w.end_object();
    w.key("attack");
    w.value(spec.attack);
    w.key("seed");
    w.value(spec.seed);
    w.key("options");
    w.begin_object();
    w.key("timeout_seconds");
    w.value_full(spec.attack_options.timeout_seconds);
    w.key("max_conflicts");
    w.value(spec.attack_options.max_conflicts);
    w.key("max_iterations");
    w.value(static_cast<std::uint64_t>(spec.attack_options.max_iterations));
    w.key("seed");
    w.value(spec.attack_options.seed);
    w.key("verify_patterns");
    w.value(static_cast<std::uint64_t>(spec.attack_options.verify_patterns));
    w.key("verify_seed");
    w.value(spec.attack_options.verify_seed);
    w.key("appsat_error_threshold");
    w.value_full(spec.attack_options.appsat_error_threshold);
    w.end_object();
    w.end_object();
}

std::string key_bits_string(const camo::Key& key) {
    std::string s;
    s.reserve(key.bits.size());
    for (const bool b : key.bits) s += b ? '1' : '0';
    return s;
}

// ---- decode helpers ---------------------------------------------------------
// Missing fields fall back to the struct defaults: records written by an
// older (or newer) journal schema load with best-effort fidelity, and
// unknown fields are never even looked at.

/// Integer field reads for one decode. A missing field or a token that is
/// not a number reads as the fallback. A number the field's type cannot
/// hold exactly (0.5, 1e999, 2^64, -1 in an unsigned field, 2^31 in an
/// int) clears `ok`, and the decode rejects the whole record: any value
/// read from it would be a wrong count, while a rejected record's job
/// simply re-runs.
struct IntFields {
    bool ok = true;

    std::uint64_t u64(const json::Value& obj, const char* key,
                      std::uint64_t fallback = 0) {
        const json::Value* v = obj.find(key);
        if (v && v->is_number() && !v->is_u64()) ok = false;
        return v ? v->as_u64(fallback) : fallback;
    }

    int i32(const json::Value& obj, const char* key, int fallback = 0) {
        const json::Value* v = obj.find(key);
        if (!v || !v->is_number()) return fallback;
        const std::int64_t value = v->as_i64();
        if (!v->is_i64() || value < std::numeric_limits<int>::min() ||
            value > std::numeric_limits<int>::max()) {
            ok = false;
            return fallback;
        }
        return static_cast<int>(value);
    }
};

double double_field(const json::Value& obj, const char* key,
                    double fallback = 0.0) {
    const json::Value* v = obj.find(key);
    return v ? v->as_double(fallback) : fallback;
}

bool bool_field(const json::Value& obj, const char* key, bool fallback) {
    const json::Value* v = obj.find(key);
    return v ? v->as_bool(fallback) : fallback;
}

std::string string_field(const json::Value& obj, const char* key,
                         const std::string& fallback = {}) {
    const json::Value* v = obj.find(key);
    return v && v->is_string() ? v->as_string() : fallback;
}

std::optional<JobSpec> spec_from_value(const json::Value& v) {
    if (!v.is_object()) return std::nullopt;
    IntFields ints;
    JobSpec spec;
    spec.circuit = string_field(v, "circuit");
    spec.attack = string_field(v, "attack", spec.attack);
    spec.seed = ints.u64(v, "seed", spec.seed);
    if (const json::Value* d = v.find("defense"); d && d->is_object()) {
        DefenseConfig& def = spec.defense;
        def.kind = string_field(*d, "kind", def.kind);
        def.library = string_field(*d, "library", def.library);
        def.fraction = double_field(*d, "fraction", def.fraction);
        def.sarlock_bits = ints.i32(*d, "sarlock_bits", def.sarlock_bits);
        def.accuracy = double_field(*d, "accuracy", def.accuracy);
        def.rekey_interval =
            ints.u64(*d, "rekey_interval", def.rekey_interval);
        def.scramble_frac =
            double_field(*d, "scramble_frac", def.scramble_frac);
        def.duty_true = double_field(*d, "duty_true", def.duty_true);
        if (d->find("protect_seed"))
            def.protect_seed = ints.u64(*d, "protect_seed");
    }
    if (const json::Value* o = v.find("options"); o && o->is_object()) {
        attack::AttackOptions& opt = spec.attack_options;
        opt.timeout_seconds =
            double_field(*o, "timeout_seconds", opt.timeout_seconds);
        opt.max_conflicts = ints.u64(*o, "max_conflicts", opt.max_conflicts);
        opt.max_iterations = static_cast<std::size_t>(
            ints.u64(*o, "max_iterations", opt.max_iterations));
        opt.seed = ints.u64(*o, "seed", opt.seed);
        opt.verify_patterns = static_cast<std::size_t>(
            ints.u64(*o, "verify_patterns", opt.verify_patterns));
        opt.verify_seed = ints.u64(*o, "verify_seed", opt.verify_seed);
        opt.appsat_error_threshold = double_field(
            *o, "appsat_error_threshold", opt.appsat_error_threshold);
    }
    if (!ints.ok) return std::nullopt;
    return spec;
}

std::optional<JobResult> result_from_value(const json::Value& v) {
    if (!v.is_object()) return std::nullopt;
    IntFields ints;
    JobResult r;
    r.index = static_cast<std::size_t>(ints.u64(v, "index"));
    r.circuit = string_field(v, "circuit");
    r.defense = string_field(v, "defense");
    r.attack = string_field(v, "attack");
    r.spec_seed = ints.u64(v, "spec_seed");
    r.derived_seed = ints.u64(v, "derived_seed");
    r.protected_cells = static_cast<std::size_t>(
        ints.u64(v, "protected_cells"));
    r.key_bits = ints.i32(v, "key_bits");
    r.error = string_field(v, "error");
    r.job_seconds = double_field(v, "job_seconds");
    r.oracle_epochs = ints.u64(v, "oracle_epochs");

    const json::Value* a = v.find("attack_result");
    if (!a || !a->is_object()) return std::nullopt;
    const auto status =
        attack::AttackResult::status_from_name(string_field(*a, "status"));
    if (!status) return std::nullopt;
    r.result.status = *status;
    for (const char c : string_field(*a, "key")) {
        if (c != '0' && c != '1') return std::nullopt;
        r.result.key.bits.push_back(c == '1');
    }
    r.result.iterations =
        static_cast<std::size_t>(ints.u64(*a, "iterations"));
    r.result.seconds = double_field(*a, "seconds");
    r.result.oracle_patterns = ints.u64(*a, "oracle_patterns");
    r.result.key_error_rate =
        double_field(*a, "key_error_rate", r.result.key_error_rate);
    r.result.key_exact = bool_field(*a, "key_exact", false);
    if (const json::Value* s = a->find("solver"); s && s->is_object()) {
        r.result.solver_stats.decisions = ints.u64(*s, "decisions");
        r.result.solver_stats.propagations = ints.u64(*s, "propagations");
        r.result.solver_stats.conflicts = ints.u64(*s, "conflicts");
        r.result.solver_stats.restarts = ints.u64(*s, "restarts");
        r.result.solver_stats.learnt_clauses = ints.u64(*s, "learnt_clauses");
        r.result.solver_stats.removed_clauses =
            ints.u64(*s, "removed_clauses");
        r.result.solver_stats.chrono_backtracks =
            ints.u64(*s, "chrono_backtracks", 0);
        r.result.solver_stats.gc_runs = ints.u64(*s, "gc_runs", 0);
    }
    if (const json::Value* e = a->find("encoder_stats"); e && e->is_object()) {
        sat::EncoderStats& es = r.result.encoder_stats;
        es.vars = ints.u64(*e, "vars", 0);
        es.clauses = ints.u64(*e, "clauses", 0);
        es.gates_folded = ints.u64(*e, "gates_folded", 0);
        es.hash_hits = ints.u64(*e, "hash_hits", 0);
        es.agreements = ints.u64(*e, "agreements", 0);
        es.agreement_vars = ints.u64(*e, "agreement_vars", 0);
        es.agreement_clauses = ints.u64(*e, "agreement_clauses", 0);
        es.cone_gates = ints.u64(*e, "cone_gates", 0);
        es.sim_gates = ints.u64(*e, "sim_gates", 0);
    }
    r.result.inplace_extractions = ints.u64(*a, "inplace_extractions", 0);
    if (const json::Value* o = v.find("oracle_stats"); o && o->is_object()) {
        r.oracle_stats.calls = ints.u64(*o, "calls");
        r.oracle_stats.single_calls = ints.u64(*o, "single_calls");
        r.oracle_stats.patterns = ints.u64(*o, "patterns");
        r.oracle_stats.seconds = double_field(*o, "seconds");
    }
    r.oracle_contract = string_field(v, "oracle_contract");
    r.oracle_group = ints.u64(v, "oracle_group");
    r.oracle_group_size = ints.u64(v, "oracle_group_size", 1);
    r.oracle_unique = ints.u64(v, "oracle_unique");
    if (const json::Value* c = v.find("oracle_cache"); c && c->is_object()) {
        r.oracle_cache_enabled = bool_field(*c, "enabled", false);
        r.oracle_cache.hits = ints.u64(*c, "hits");
        r.oracle_cache.misses = ints.u64(*c, "misses");
        r.oracle_cache.bypassed = ints.u64(*c, "bypassed");
        r.oracle_cache.unique_patterns = ints.u64(*c, "unique_patterns");
        r.oracle_cache.inserted_bytes = ints.u64(*c, "inserted_bytes");
    }
    if (!ints.ok) return std::nullopt;
    return r;
}

}  // namespace

std::string spec_json(const JobSpec& spec) {
    JsonWriter w;
    write_spec(w, spec);
    return w.str();
}

void write_result(JsonWriter& w, const JobResult& r) {
    w.begin_object();
    w.key("index");
    w.value(static_cast<std::uint64_t>(r.index));
    w.key("circuit");
    w.value(r.circuit);
    w.key("defense");
    w.value(r.defense);
    w.key("attack");
    w.value(r.attack);
    w.key("spec_seed");
    w.value(r.spec_seed);
    w.key("derived_seed");
    w.value(r.derived_seed);
    w.key("protected_cells");
    w.value(static_cast<std::uint64_t>(r.protected_cells));
    w.key("key_bits");
    w.value(static_cast<std::int64_t>(r.key_bits));
    w.key("error");
    w.value(r.error);
    w.key("job_seconds");
    w.value_full(r.job_seconds);
    w.key("oracle_epochs");
    w.value(r.oracle_epochs);
    w.key("attack_result");
    w.begin_object();
    w.key("status");
    w.value(attack::AttackResult::status_name(r.result.status));
    w.key("key");
    w.value(key_bits_string(r.result.key));
    w.key("iterations");
    w.value(static_cast<std::uint64_t>(r.result.iterations));
    w.key("seconds");
    w.value_full(r.result.seconds);
    w.key("oracle_patterns");
    w.value(r.result.oracle_patterns);
    w.key("key_error_rate");
    w.value_full(r.result.key_error_rate);
    w.key("key_exact");
    w.value(r.result.key_exact);
    w.key("solver");
    w.begin_object();
    w.key("decisions");
    w.value(r.result.solver_stats.decisions);
    w.key("propagations");
    w.value(r.result.solver_stats.propagations);
    w.key("conflicts");
    w.value(r.result.solver_stats.conflicts);
    w.key("restarts");
    w.value(r.result.solver_stats.restarts);
    w.key("learnt_clauses");
    w.value(r.result.solver_stats.learnt_clauses);
    w.key("removed_clauses");
    w.value(r.result.solver_stats.removed_clauses);
    w.key("chrono_backtracks");
    w.value(r.result.solver_stats.chrono_backtracks);
    w.key("gc_runs");
    w.value(r.result.solver_stats.gc_runs);
    w.end_object();
    // CNF-encoder telemetry.
    w.key("encoder_stats");
    w.begin_object();
    w.key("vars");
    w.value(r.result.encoder_stats.vars);
    w.key("clauses");
    w.value(r.result.encoder_stats.clauses);
    w.key("gates_folded");
    w.value(r.result.encoder_stats.gates_folded);
    w.key("hash_hits");
    w.value(r.result.encoder_stats.hash_hits);
    w.key("agreements");
    w.value(r.result.encoder_stats.agreements);
    w.key("agreement_vars");
    w.value(r.result.encoder_stats.agreement_vars);
    w.key("agreement_clauses");
    w.value(r.result.encoder_stats.agreement_clauses);
    w.key("cone_gates");
    w.value(r.result.encoder_stats.cone_gates);
    w.key("sim_gates");
    w.value(r.result.encoder_stats.sim_gates);
    w.end_object();
    w.key("inplace_extractions");
    w.value(r.result.inplace_extractions);
    w.end_object();
    w.key("oracle_stats");
    w.begin_object();
    w.key("calls");
    w.value(r.oracle_stats.calls);
    w.key("single_calls");
    w.value(r.oracle_stats.single_calls);
    w.key("patterns");
    w.value(r.oracle_stats.patterns);
    w.key("seconds");
    w.value_full(r.oracle_stats.seconds);
    w.end_object();
    // Oracle-service fields (additive to journal v1; absent in older
    // records, which decode with the struct defaults). The first four are
    // CSV-deterministic and must round-trip exactly for the resume/merge
    // byte-identity contract; the cache counters are measured.
    w.key("oracle_contract");
    w.value(r.oracle_contract);
    w.key("oracle_group");
    w.value(r.oracle_group);
    w.key("oracle_group_size");
    w.value(r.oracle_group_size);
    w.key("oracle_unique");
    w.value(r.oracle_unique);
    w.key("oracle_cache");
    w.begin_object();
    w.key("enabled");
    w.value(r.oracle_cache_enabled);
    w.key("hits");
    w.value(r.oracle_cache.hits);
    w.key("misses");
    w.value(r.oracle_cache.misses);
    w.key("bypassed");
    w.value(r.oracle_cache.bypassed);
    w.key("unique_patterns");
    w.value(r.oracle_cache.unique_patterns);
    w.key("inserted_bytes");
    w.value(r.oracle_cache.inserted_bytes);
    w.end_object();
    w.end_object();
}

std::uint64_t job_key(std::uint64_t campaign_seed, std::size_t index,
                      const JobSpec& spec) {
    std::string material = std::to_string(campaign_seed);
    material += ':';
    material += std::to_string(index);
    material += ':';
    material += spec_json(spec);
    return fnv1a(material);
}

std::uint64_t plan_fingerprint(std::uint64_t campaign_seed,
                               const std::vector<std::uint64_t>& job_keys) {
    std::string material = "plan:";
    material += std::to_string(campaign_seed);
    material += ':';
    material += std::to_string(job_keys.size());
    for (const std::uint64_t key : job_keys) {
        material += ':';
        material += std::to_string(key);
    }
    return fnv1a(material);
}

std::string encode_record(std::uint64_t key, const JobSpec& spec,
                          const JobResult& result, const ShardStamp& stamp) {
    JsonWriter w;
    w.begin_object();
    w.key("v");
    w.value(kJournalVersion);
    w.key("key");
    w.value(key);
    if (stamp.plan_fingerprint != 0) {
        // Shard provenance is additive: records without it (older writers)
        // still decode, with the stamp left at its "unknown" zeros.
        w.key("plan");
        w.value(stamp.plan_fingerprint);
        w.key("plan_size");
        w.value(stamp.plan_size);
        w.key("shard");
        w.value(stamp.shard_index);
        w.key("shards");
        w.value(stamp.shard_total);
    }
    w.key("spec");
    write_spec(w, spec);
    w.key("result");
    write_result(w, result);
    w.end_object();
    return w.str();
}

std::optional<Record> decode_record(const std::string& line) {
    const std::optional<json::Value> doc = json::parse(line);
    if (!doc || !doc->is_object()) return std::nullopt;
    const json::Value* v = doc->find("v");
    if (!v || v->as_u64() != kJournalVersion) return std::nullopt;
    const json::Value* key = doc->find("key");
    const json::Value* spec = doc->find("spec");
    const json::Value* result = doc->find("result");
    if (!key || !key->is_u64() || !spec || !result) return std::nullopt;

    Record record;
    record.key = key->as_u64();
    IntFields ints;
    record.stamp.plan_fingerprint = ints.u64(*doc, "plan");
    record.stamp.plan_size = ints.u64(*doc, "plan_size");
    record.stamp.shard_index = ints.u64(*doc, "shard");
    record.stamp.shard_total = ints.u64(*doc, "shards", 1);
    auto decoded_spec = spec_from_value(*spec);
    auto decoded_result = result_from_value(*result);
    if (!ints.ok || !decoded_spec || !decoded_result) return std::nullopt;
    record.spec = std::move(*decoded_spec);
    record.result = std::move(*decoded_result);
    record.line = line;
    return record;
}

std::optional<JobSpec> decode_spec(const std::string& spec_object_json) {
    const std::optional<json::Value> doc = json::parse(spec_object_json);
    if (!doc) return std::nullopt;
    return spec_from_value(*doc);
}

std::vector<Record> load_journal(const std::string& path) {
    std::vector<Record> records;
    std::ifstream f(path, std::ios::binary);
    if (!f) return records;  // missing journal = nothing completed yet
    std::string line;
    while (std::getline(f, line)) {
        if (line.empty()) continue;
        if (auto record = decode_record(line))
            records.push_back(std::move(*record));
        // else: corrupt/partial line (e.g. external truncation mid-record);
        // that job re-runs, the campaign does not fail.
    }
    return records;
}

// ---- Journal ----------------------------------------------------------------

Journal::Journal(std::string path) : path_(std::move(path)) {}

Journal::~Journal() {
    if (file_) std::fclose(file_);
}

void Journal::reset(const std::vector<std::string>& lines) {
    // Atomic replacement: build the healed journal in a tmp file and
    // rename it over the old one, so restart never observes a mix of
    // stale and kept records.
    if (file_) {
        std::fclose(file_);
        file_ = nullptr;
    }
    std::string content;
    lines_ = 0;
    for (const auto& line : lines) {
        content += line;
        content += '\n';
        ++lines_;
    }
    const std::string tmp = path_ + ".tmp";
    std::FILE* f = std::fopen(tmp.c_str(), "wb");
    if (!f)
        throw std::runtime_error("checkpoint: cannot open " + tmp + ": " +
                                 std::strerror(errno));
    const bool wrote =
        content.empty() ||
        std::fwrite(content.data(), 1, content.size(), f) == content.size();
    const bool flushed = std::fflush(f) == 0;
    std::fclose(f);
    if (!wrote || !flushed) {
        std::remove(tmp.c_str());
        throw std::runtime_error("checkpoint: write failed: " + tmp);
    }
    if (std::rename(tmp.c_str(), path_.c_str()) != 0) {
        std::remove(tmp.c_str());
        throw std::runtime_error("checkpoint: rename failed: " + path_ + ": " +
                                 std::strerror(errno));
    }
    // Subsequent appends extend the renamed file in place.
    file_ = std::fopen(path_.c_str(), "ab");
    if (!file_)
        throw std::runtime_error("checkpoint: cannot reopen " + path_ + ": " +
                                 std::strerror(errno));
}

void Journal::append(const std::string& line) {
    if (!file_)
        throw std::runtime_error("checkpoint: journal not open: " + path_);
    // One buffered write + flush per record: O(1) per job (a full rewrite
    // per append would make total journal I/O quadratic in the campaign
    // size and serialize workers on it). A kill between fwrite and the
    // flush completing can leave at most one partial trailing line, which
    // load_journal() skips by design — that job re-runs, nothing else is
    // lost.
    const std::string payload = line + '\n';
    if (std::fwrite(payload.data(), 1, payload.size(), file_) !=
            payload.size() ||
        std::fflush(file_) != 0)
        throw std::runtime_error("checkpoint: append failed: " + path_);
    ++lines_;
}

}  // namespace gshe::engine::checkpoint

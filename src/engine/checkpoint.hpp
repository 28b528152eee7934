#pragma once
// Campaign checkpoint/resume journal.
//
// The paper-scale security study (Tables IV-V, Sec. V) is a 48 h
// {circuit x defense x attack x seed} matrix — exactly the workload that
// dies to a preemption and restarts from zero. This module makes a campaign
// interruptible at per-job granularity:
//
//  * As each job finishes, CampaignRunner appends one self-describing JSONL
//    record to the journal: a format version, the job's identity key, the
//    full JobSpec, and the full JobResult (AttackResult, solver and oracle
//    stats included). Jobs that threw are NOT journaled — an error is
//    environmental (out-of-memory, missing file), not a function of the
//    spec, so a resumed campaign retries it instead of replaying it.
//  * Persistence is write-then-rename at the journal level: at campaign
//    start the (healed) journal is rebuilt in "<path>.tmp" and renamed
//    atomically over "<path>", so restart never observes a mix of stale
//    and current records. Each finished job is then appended with one O(1)
//    buffered write + flush. A SIGKILL mid-append can leave at most one
//    partial trailing line, and load_journal() skips unparseable lines
//    instead of failing — that single job re-runs, nothing else is lost.
//  * On restart, the runner matches journal records to the new matrix by
//    job_key() — a hash of the campaign seed, the job's matrix index and
//    the canonical spec JSON. A matched job is not re-run; its cached
//    JobResult is merged into the result vector at its original index.
//
// Resume determinism contract: because a job's result is a pure function of
// (campaign seed, index, spec) and every report-visible field round-trips
// exactly (integers verbatim, doubles at %.17g), a campaign interrupted
// after ANY prefix of jobs and resumed produces byte-identical deterministic
// reports to an uninterrupted run, at any --threads count. Changing the
// campaign seed, a job's spec or its position changes its key, so stale
// records are ignored (and dropped from the rewritten journal) rather than
// silently merged.

#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "engine/campaign.hpp"

namespace gshe {
class JsonWriter;
}

namespace gshe::engine::checkpoint {

/// Journal format version; bump when a record's schema changes
/// incompatibly. Decoders ignore unknown fields, so additive changes do not
/// need a bump. Version 2: every attack extracts its key on the live miter
/// solver. Version 3: the per-gate CNF encoding that used to be the default
/// is gone; every attack encodes through the folding, hashing, key-cone
/// sat::CircuitEncoder. Version 4: the solver backtracks chronologically
/// instead of backjumping over more than sat::Solver::kChronoLevels levels,
/// and Double DIP reports both of its solvers' counters. Default job specs
/// kept their keys across all three changes, so older records — results of
/// the retired extraction, the retired encoding or the backjump-only
/// search — are skipped rather than resumed or merged into current results.
/// Version 5: the solver has one configuration, so the spec loses its
/// `options.solver` object (and every job key changes), and the result
/// loses the inprocessing counters and the oracle's batch-size histogram.
/// Version 4 records may hold a search under options that no longer
/// exist; they are skipped too.
inline constexpr std::uint64_t kJournalVersion = 5;

/// Shard provenance stamped on every record (additive to version 1): which
/// plan the job belongs to and which shard's journal it was written into.
/// merge_journals() refuses to combine journals whose stamps disagree, and
/// the runner refuses to resume a journal stamped by a different shard of
/// the same plan — both fail loudly instead of silently interleaving
/// experiments. plan_fingerprint == 0 marks a record written before
/// sharding existed (resume still works: keys carry identity).
struct ShardStamp {
    std::uint64_t plan_fingerprint = 0;  ///< JobPlan::fingerprint; 0 = unknown
    std::uint64_t plan_size = 0;         ///< full plan size, all shards
    std::uint64_t shard_index = 0;
    std::uint64_t shard_total = 1;

    friend bool operator==(const ShardStamp&, const ShardStamp&) = default;
};

/// One journal line.
struct Record {
    std::uint64_t key = 0;  ///< job_key() of (campaign seed, index, spec)
    ShardStamp stamp;       ///< shard/plan provenance (zeros on old journals)
    JobSpec spec;           ///< the job as scheduled (self-description)
    JobResult result;       ///< the completed job
    std::string line;       ///< the encoded JSONL line (no trailing newline)
};

/// Canonical JSON of a JobSpec: stable field order, full-precision doubles.
/// This string is the hash input for job_key(), so any spec change —
/// including its defense configuration and attack options — changes the key.
std::string spec_json(const JobSpec& spec);

/// Writes one JobResult as a JSON object: a journal record's "result" and
/// an element of the JSON report's "jobs" (engine/report.hpp), so a field
/// is written here once and read back once by decode_record(). An errored
/// job's object has a non-empty "error" beside a default "attack_result";
/// readers check "error" first, as the CSV's status column does.
void write_result(JsonWriter& w, const JobResult& result);

/// Deterministic identity of a job slot (FNV-1a over the campaign seed, the
/// matrix index and spec_json()). The index participates because derived
/// per-job seeds are position-dependent: a cached result is only valid in
/// the slot it was computed for.
std::uint64_t job_key(std::uint64_t campaign_seed, std::size_t index,
                      const JobSpec& spec);

/// Deterministic identity of a whole plan: FNV-1a over the campaign seed,
/// the plan size and every job key in matrix order. Any change to the
/// matrix — a job added, removed, reordered or respecified, or a different
/// campaign seed — changes the fingerprint.
std::uint64_t plan_fingerprint(std::uint64_t campaign_seed,
                               const std::vector<std::uint64_t>& job_keys);

/// Encodes one journal line (no trailing newline).
std::string encode_record(std::uint64_t key, const JobSpec& spec,
                          const JobResult& result,
                          const ShardStamp& stamp = {});

/// Decodes one journal line. Unknown fields are ignored (forward
/// compatibility); std::nullopt on malformed JSON, a missing required
/// field, or an unsupported version.
std::optional<Record> decode_record(const std::string& line);

/// Decodes the "spec" object of a record (exposed for round-trip tests).
std::optional<JobSpec> decode_spec(const std::string& spec_object_json);

/// Loads a journal, skipping blank and unparseable lines — a truncated or
/// corrupt trailing line costs one job, never the campaign. A missing file
/// is an empty journal.
std::vector<Record> load_journal(const std::string& path);

/// The journal writer. reset() rebuilds the file through the atomic
/// write-then-rename protocol; append() then extends it with one O(1)
/// buffered write + flush per record (a rewrite-per-append would make
/// total journal I/O quadratic in campaign size). A kill mid-append can
/// leave at most one partial trailing line — exactly the case
/// load_journal() tolerates — so the resume contract holds at every
/// instant while paying constant work per finished job.
class Journal {
public:
    explicit Journal(std::string path);
    ~Journal();
    Journal(const Journal&) = delete;
    Journal& operator=(const Journal&) = delete;

    const std::string& path() const { return path_; }
    std::size_t size() const { return lines_; }

    /// Atomically replaces the on-disk journal with exactly `lines`
    /// (resume writes back the matched records, dropping stale ones; a
    /// fresh run writes back nothing) and opens it for appending.
    void reset(const std::vector<std::string>& lines);

    /// Appends one record line and flushes. Must follow reset().
    void append(const std::string& line);

private:
    std::string path_;
    std::FILE* file_ = nullptr;  ///< append handle, owned
    std::size_t lines_ = 0;
};

}  // namespace gshe::engine::checkpoint

#pragma once
// Shared, concurrency-safe oracle front-end with cross-job DIP memoization.
//
// Every oracle-guided attack of the Sec. IV/V campaigns re-simulates the
// same black-box chip: a {circuit x defense x attack x seed} matrix runs
// dozens of jobs against *identical* defense instances, and their DIP loops
// re-query input patterns a previous job already paid for. OracleService
// puts a word-packed query memo in front of one underlying Oracle and hands
// out per-job Client views, so N jobs sharing a defense instance share one
// simulator and one memo while each keeps its own cost accounting:
//
//   underlying Oracle   the chip itself; its OracleStats now count only
//                       *physical* evaluations (memo misses + bypasses)
//   OracleService       the mutex, the memo (bounded, hit/miss/byte
//                       accounted) and the contract dispatch
//   Client (an Oracle)  one per job; attacks are handed the Client and
//                       cannot tell it from a private oracle. Its
//                       OracleStats count the job's *logical* queries, so
//                       per-job campaign numbers are attributed to the job
//                       that issued them — deterministically, independent
//                       of which job physically paid for the evaluation.
//
// Whether a response may be replayed is the underlying oracle's declared
// OracleContract (attack/oracle.hpp), not a blanket assumption:
//
//   Deterministic   memo keyed by the packed PI words alone
//   EpochKeyed      memo keyed by (cache_epoch(), PI words); the oracle's
//                   query clock is kept ticking on hits (on_cache_hit()),
//                   so the re-keying schedule — and therefore every
//                   response — is identical with the memo on or off
//   NonCacheable    the memo is bypassed entirely; every query evaluates
//
// Thread safety: all Client queries funnel through one service mutex (the
// underlying Simulator keeps mutable scratch), so any number of campaign
// worker threads may share a service. A Client itself is single-threaded,
// like any Oracle. The mutex does serialize the *oracle portion* of a
// shared group's jobs — an accepted trade: one 64-way packed simulation is
// microseconds against the seconds a SAT solve costs, and with the memo on
// most shared-group queries return straight from the map. (Per-client
// simulators over the shared netlist would remove even that; noted as a
// ROADMAP follow-up.)
//
// Determinism: a Client's responses are byte-identical with the memo
// enabled or disabled (that is what the contracts guarantee), so campaign
// results — and the deterministic CSV built from them — do not depend on
// the cache flag, thread count or shard layout. Only *cost* shifts: with
// the memo on, repeated patterns stop reaching the simulator.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "attack/oracle.hpp"

namespace gshe::attack {

/// Per-client (per-job) memo accounting. `hits`/`misses` depend on which
/// sibling job populated the shared memo first and are therefore *not*
/// deterministic across schedules — they ride the JSON report and the
/// checkpoint journal, never the deterministic CSV. `unique_patterns` is a
/// pure function of the client's own query stream (first occurrences of a
/// memo key in *this* client's sequence) and is CSV-safe.
struct OracleCacheStats {
    std::uint64_t hits = 0;      ///< queries served from the memo
    std::uint64_t misses = 0;    ///< queries that paid an evaluation
    std::uint64_t bypassed = 0;  ///< non-cacheable contract or memo disabled
    std::uint64_t unique_patterns = 0;  ///< distinct keys in this client's own stream
    std::uint64_t inserted_bytes = 0;   ///< memo bytes this client added

    std::uint64_t logical() const { return hits + misses + bypassed; }
    std::uint64_t evaluated() const { return misses + bypassed; }
};

/// Service-wide memo accounting (all clients combined).
struct OracleServiceStats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t bypassed = 0;
    std::uint64_t entries = 0;        ///< live memo entries
    std::uint64_t bytes = 0;          ///< approximate memo footprint
    std::uint64_t capacity_stops = 0; ///< insertions skipped: byte cap reached
};

class OracleService {
public:
    struct Options {
        /// Master switch for the memo. Off, the service still serializes
        /// access (sharing stays safe) and still tracks unique_patterns
        /// (the CSV column must not depend on the flag); only replay stops.
        bool enable_cache = true;
        /// Memo byte cap. At the cap new entries are simply not inserted
        /// (counted in capacity_stops) — eviction would make which entry
        /// answers a query depend on arrival order across threads, for no
        /// benefit at campaign scale.
        std::size_t max_bytes = std::size_t{256} << 20;  // 256 MiB
    };

    /// The service borrows `underlying`; the caller keeps it alive for the
    /// service's lifetime (the campaign engine owns both via the defense
    /// instance group).
    OracleService(Oracle& underlying, Options options);
    explicit OracleService(Oracle& underlying)
        : OracleService(underlying, Options{}) {}

    /// A per-job view of the shared oracle. IS-an Oracle, so attacks take
    /// it unchanged; all base-class metering (OracleStats, epochs) is
    /// per-client. Create one per job via make_client().
    class Client final : public Oracle {
    public:
        OracleContract contract() const override {
            return service_->underlying_->contract();
        }
        std::uint64_t epochs_elapsed() const override {
            return service_->underlying_->epochs_elapsed();
        }
        /// This client's memo accounting.
        const OracleCacheStats& cache_stats() const { return cache_; }

    protected:
        std::vector<std::uint64_t> evaluate(
            std::span<const std::uint64_t> pi_words) override {
            return service_->query_through(*this, pi_words);
        }

    private:
        friend class OracleService;
        explicit Client(OracleService& service) : service_(&service) {}

        OracleService* service_;
        OracleCacheStats cache_;
        std::unordered_set<std::uint64_t> seen_;  ///< own-stream key hashes
    };

    std::unique_ptr<Client> make_client();

    /// Whether the memo is consulted at all (Options::enable_cache AND a
    /// cacheable contract).
    bool cache_active() const;

    const Options& options() const { return options_; }
    /// Snapshot of the service-wide counters (thread-safe).
    OracleServiceStats stats() const;

private:
    struct CacheKey {
        std::uint64_t epoch = 0;
        std::vector<std::uint64_t> words;

        bool operator==(const CacheKey&) const = default;
    };
    struct CacheKeyHash {
        std::size_t operator()(const CacheKey& k) const;
    };

    std::vector<std::uint64_t> query_through(
        Client& client, std::span<const std::uint64_t> pi_words);

    Oracle* underlying_;
    Options options_;

    mutable std::mutex mutex_;
    std::unordered_map<CacheKey, std::vector<std::uint64_t>, CacheKeyHash>
        memo_;
    OracleServiceStats stats_;
};

}  // namespace gshe::attack

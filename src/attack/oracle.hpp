#pragma once
// The attacker's black-box oracle: "a working chip [used] as an oracle for
// analytical attacks" (Sec. IV).
//
// ExactOracle is the classical deterministic chip. StochasticOracle is a
// chip whose camouflaged gates are GSHE devices operated in the tunable
// stochastic regime of Sec. V-B: each device evaluation is independently
// wrong with probability (1 - accuracy), so a fraction of the oracle's
// responses is incorrect — which is precisely what breaks the consistency
// assumption of oracle-guided SAT attacks.
//
// The base class owns all accounting: `query`/`query_single` are non-virtual
// wrappers that meter wall-time and batch sizes around the subclass
// `evaluate` hook, so campaign reports get uniform per-oracle cost numbers
// (OracleStats) regardless of the oracle flavour.
//
// Every oracle also *declares* its determinism contract (OracleContract):
// whether a response to a given input pattern may be replayed from a memo
// (attack/oracle_service.hpp) instead of re-evaluated. Cacheability is a
// per-oracle property, not a blanket assumption — the stochastic regime
// deliberately violates query consistency (every evaluation re-rolls device
// errors), and a re-keying oracle's answers are only stable within one key
// epoch. The contract makes that machine-checkable:
//
//   Deterministic   same input => same output, forever (ExactOracle)
//   EpochKeyed      same input => same output *within one epoch*; memo
//                   entries must be keyed by cache_epoch() and the oracle's
//                   query clock must keep advancing on cache hits
//                   (camo::RekeyingOracle)
//   NonCacheable    responses are a fresh random draw every time; a memo
//                   would silently change the experiment (StochasticOracle)

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "netlist/netlist.hpp"
#include "netlist/simulator.hpp"

namespace gshe::attack {

/// Per-oracle cost accounting, aggregated by the campaign engine.
/// `seconds` is wall-clock and therefore *not* reproducible run-to-run; the
/// deterministic campaign CSV excludes it (JSON reports include it).
struct OracleStats {
    std::uint64_t calls = 0;         ///< query() + query_single() invocations
    std::uint64_t single_calls = 0;  ///< of which single-pattern conveniences
    std::uint64_t patterns = 0;      ///< input patterns evaluated
    double seconds = 0.0;            ///< wall time spent inside evaluate()

    /// Histogram of patterns-per-call: bucket b counts calls whose batch
    /// size n satisfies floor(log2(n)) == b (last bucket: n >= 64).
    static constexpr std::size_t kHistBuckets = 7;
    std::array<std::uint64_t, kHistBuckets> batch_log2_hist{};

    void record(std::uint64_t batch_patterns, bool single, double elapsed);
};

/// The declared determinism contract of an oracle — what a query memo may
/// assume about its responses. See the header comment for the three levels.
enum class OracleContract {
    Deterministic,
    EpochKeyed,
    NonCacheable,
};

/// Stable short name ("deterministic" / "epoch_keyed" / "non_cacheable"),
/// used as the campaign CSV `oracle_contract` column.
const std::string& oracle_contract_name(OracleContract contract);

class Oracle {
public:
    virtual ~Oracle() = default;

    /// Evaluates 64 packed input patterns; returns one word per output.
    /// Non-virtual: meters the call, then dispatches to evaluate().
    std::vector<std::uint64_t> query(std::span<const std::uint64_t> pi_words);

    /// Single-pattern convenience (counts one pattern, not 64).
    std::vector<bool> query_single(const std::vector<bool>& pi);

    /// Number of input patterns queried so far (64 per packed call).
    std::uint64_t patterns_queried() const { return stats_.patterns; }

    /// Cost accounting for campaign reports.
    const OracleStats& stats() const { return stats_; }

    /// The declared determinism contract. The safe default is NonCacheable:
    /// an oracle must opt *in* to having its responses replayed from a memo.
    virtual OracleContract contract() const {
        return OracleContract::NonCacheable;
    }

    /// EpochKeyed oracles: advance whatever scheduled state the next query
    /// would trigger (e.g. a re-keying boundary) and return the epoch that
    /// query will evaluate under — the memo keys entries by it, so a stale
    /// epoch's entry can never satisfy a current-epoch query. Called by the
    /// query memo immediately before each lookup; evaluate() must tolerate
    /// the advance having already happened. Meaningless (0) for other
    /// contracts.
    virtual std::uint64_t cache_epoch() { return 0; }

    /// EpochKeyed oracles: account one query that was served from the memo
    /// without reaching evaluate(), so query-counted clocks (the re-keying
    /// interval) advance identically whether the memo is on or off.
    virtual void on_cache_hit() {}

    /// Re-keying epochs the oracle has advanced through (camo::
    /// RekeyingOracle); 0 for oracles without an epoch notion. Exposed on
    /// the base class so the campaign engine can report it uniformly.
    virtual std::uint64_t epochs_elapsed() const { return 0; }

protected:
    /// Subclass hook: evaluate 64 packed patterns.
    virtual std::vector<std::uint64_t> evaluate(
        std::span<const std::uint64_t> pi_words) = 0;

private:
    OracleStats stats_;
};

/// Shared base for oracles that answer by simulating a netlist — the
/// Simulator wiring every concrete oracle used to duplicate lives here
/// once; subclasses differ only in their evaluate() hook and contract.
class SimulatorOracle : public Oracle {
protected:
    explicit SimulatorOracle(const netlist::Netlist& nl) : nl_(&nl), sim_(nl) {}
    /// Oracles borrow the netlist for their whole lifetime; a temporary
    /// would dangle (as in every subclass below).
    explicit SimulatorOracle(const netlist::Netlist&&) = delete;

    const netlist::Netlist& netlist() const { return *nl_; }
    netlist::Simulator& simulator() { return sim_; }

private:
    const netlist::Netlist* nl_;
    netlist::Simulator sim_;
};

/// Deterministic oracle over the original (or camouflaged-with-true-
/// functions) netlist.
class ExactOracle final : public SimulatorOracle {
public:
    explicit ExactOracle(const netlist::Netlist& nl) : SimulatorOracle(nl) {}
    explicit ExactOracle(const netlist::Netlist&&) = delete;

    OracleContract contract() const override {
        return OracleContract::Deterministic;
    }

protected:
    std::vector<std::uint64_t> evaluate(
        std::span<const std::uint64_t> pi_words) override;
};

/// Oracle whose camouflaged devices evaluate stochastically. Accuracy is
/// per-device ("the error rate for any switch can be tuned individually");
/// the common constructor applies one accuracy to all devices.
class StochasticOracle final : public SimulatorOracle {
public:
    StochasticOracle(const netlist::Netlist& camo_nl, double accuracy,
                     std::uint64_t seed);
    StochasticOracle(const netlist::Netlist& camo_nl,
                     std::vector<double> per_device_accuracy,
                     std::uint64_t seed);
    StochasticOracle(const netlist::Netlist&&, double, std::uint64_t) = delete;
    StochasticOracle(const netlist::Netlist&&, std::vector<double>,
                     std::uint64_t) = delete;

    const std::vector<double>& accuracies() const { return accuracy_; }

    /// Every evaluation re-rolls the per-device error masks: replaying an
    /// earlier response would deterministically repeat what the physics
    /// makes random, so the memo must never touch this oracle.
    OracleContract contract() const override {
        return OracleContract::NonCacheable;
    }

protected:
    std::vector<std::uint64_t> evaluate(
        std::span<const std::uint64_t> pi_words) override;

private:
    std::vector<double> accuracy_;
    Rng rng_;
};

}  // namespace gshe::attack

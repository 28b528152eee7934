#pragma once
// Runtime polymorphism at the chip level (Sec. V-C).
//
// "Given truly polymorphic gates and some circuitry to judiciously switch
// the functionalities of gates, we can implement runtime polymorphism at
// the chip-level. [...] runtime polymorphism can also enable dynamic
// protection, e.g., as recently proposed by Koteshwara et al. [40]. Their
// idea is to alter the key dynamically, thereby rendering runtime-intensive
// attacks incapable (SAT attacks in particular)."
//
// This module makes that executable: a schedule that re-assigns the
// functions of the camouflaged cells every `interval` oracle queries. The
// authorized mode (epoch 0 and every return to it) computes the true
// functionality; in scrambled epochs a seeded random subset of cells is
// re-pointed at random candidates. An attacker cannot tell epochs apart,
// so accumulated I/O constraints straddle inconsistent functions — the
// same collapse as the stochastic mode, achieved deterministically.

#include <cstdint>
#include <vector>

#include "attack/oracle.hpp"
#include "common/rng.hpp"
#include "netlist/netlist.hpp"
#include "netlist/simulator.hpp"

namespace gshe::camo {

/// Oracle whose camouflaged cells are periodically re-keyed.
///
/// Determinism contract: EpochKeyed. Within one epoch the cell functions
/// are frozen, so responses are replayable — but only under a memo key that
/// includes the epoch (a stale epoch's entry must never satisfy a current
/// query), and only if the query clock keeps ticking on memo hits (the
/// re-keying schedule counts queries, not evaluations). cache_epoch()
/// performs the boundary advance the next query would trigger and returns
/// the epoch it will run under; on_cache_hit() ticks the clock without
/// simulating. The memo-on and memo-off response sequences are identical.
class RekeyingOracle final : public attack::SimulatorOracle {
public:
    /// @param camo_nl        protected netlist (true functions = mode 0)
    /// @param interval       queries per epoch (0 disables re-keying)
    /// @param scramble_frac  fraction of cells re-pointed in scrambled epochs
    /// @param duty_true      fraction of epochs that run the true mode
    RekeyingOracle(const netlist::Netlist& camo_nl, std::uint64_t interval,
                   double scramble_frac, double duty_true, std::uint64_t seed);
    RekeyingOracle(const netlist::Netlist&&, std::uint64_t, double, double,
                   std::uint64_t) = delete;

    attack::OracleContract contract() const override {
        return attack::OracleContract::EpochKeyed;
    }
    std::uint64_t cache_epoch() override {
        maybe_advance_epoch();
        return epoch_;
    }
    void on_cache_hit() override { ++queries_in_epoch_; }

    std::uint64_t epochs_elapsed() const override { return epoch_; }

protected:
    std::vector<std::uint64_t> evaluate(
        std::span<const std::uint64_t> pi_words) override;

private:
    void maybe_advance_epoch();

    std::uint64_t interval_;
    double scramble_frac_;
    double duty_true_;
    Rng rng_;

    std::uint64_t epoch_ = 0;
    std::uint64_t queries_in_epoch_ = 0;
    bool true_mode_ = true;
    std::vector<core::Bool2> current_fns_;  // one per camo cell
};

}  // namespace gshe::camo

#include "camo/dynamic.hpp"

#include <stdexcept>

namespace gshe::camo {

RekeyingOracle::RekeyingOracle(const netlist::Netlist& camo_nl,
                               std::uint64_t interval, double scramble_frac,
                               double duty_true, std::uint64_t seed)
    : SimulatorOracle(camo_nl), interval_(interval),
      scramble_frac_(scramble_frac), duty_true_(duty_true),
      rng_(seed ^ 0xd1aULL) {
    if (scramble_frac < 0.0 || scramble_frac > 1.0)
        throw std::invalid_argument("RekeyingOracle: scramble_frac in [0, 1]");
    if (duty_true <= 0.0 || duty_true > 1.0)
        throw std::invalid_argument("RekeyingOracle: duty_true in (0, 1]");
    current_fns_.reserve(camo_nl.camo_cells().size());
    for (const netlist::CamoCell& c : camo_nl.camo_cells())
        current_fns_.push_back(camo_nl.gate(c.gate).fn);
}

void RekeyingOracle::maybe_advance_epoch() {
    if (interval_ == 0) return;
    if (queries_in_epoch_ < interval_) return;
    queries_in_epoch_ = 0;
    ++epoch_;
    true_mode_ = rng_.bernoulli(duty_true_);
    const auto& cells = netlist().camo_cells();
    for (std::size_t i = 0; i < cells.size(); ++i) {
        if (true_mode_ || !rng_.bernoulli(scramble_frac_)) {
            current_fns_[i] = netlist().gate(cells[i].gate).fn;  // authorized
        } else {
            const auto& cand = cells[i].candidates;
            current_fns_[i] = cand[rng_.below(cand.size())];
        }
    }
}

std::vector<std::uint64_t> RekeyingOracle::evaluate(
    std::span<const std::uint64_t> pi_words) {
    // A no-op when cache_epoch() already ran the boundary for this query
    // (maybe_advance_epoch is idempotent until the clock ticks below).
    maybe_advance_epoch();
    ++queries_in_epoch_;
    return simulator().run(pi_words, 1, {.overrides = current_fns_});
}

}  // namespace gshe::camo

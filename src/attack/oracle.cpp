#include "attack/oracle.hpp"

#include <stdexcept>

#include "common/timer.hpp"

namespace gshe::attack {

void OracleStats::record(std::uint64_t batch_patterns, bool single,
                         double elapsed) {
    ++calls;
    if (single) ++single_calls;
    patterns += batch_patterns;
    seconds += elapsed;
}

const std::string& oracle_contract_name(OracleContract contract) {
    static const std::string deterministic = "deterministic";
    static const std::string epoch_keyed = "epoch_keyed";
    static const std::string non_cacheable = "non_cacheable";
    switch (contract) {
        case OracleContract::Deterministic: return deterministic;
        case OracleContract::EpochKeyed: return epoch_keyed;
        case OracleContract::NonCacheable: return non_cacheable;
    }
    return non_cacheable;
}

std::vector<std::uint64_t> Oracle::query(
    std::span<const std::uint64_t> pi_words) {
    Timer timer;
    auto out = evaluate(pi_words);
    stats_.record(64, /*single=*/false, timer.seconds());
    return out;
}

std::vector<bool> Oracle::query_single(const std::vector<bool>& pi) {
    std::vector<std::uint64_t> words(pi.size());
    for (std::size_t i = 0; i < pi.size(); ++i)
        words[i] = pi[i] ? ~std::uint64_t{0} : 0;
    Timer timer;
    const auto out_words = evaluate(words);
    stats_.record(1, /*single=*/true, timer.seconds());
    std::vector<bool> out(out_words.size());
    for (std::size_t i = 0; i < out.size(); ++i) out[i] = (out_words[i] & 1) != 0;
    return out;
}

std::vector<std::uint64_t> ExactOracle::evaluate(
    std::span<const std::uint64_t> pi_words) {
    return simulator().run(pi_words);
}

StochasticOracle::StochasticOracle(const netlist::Netlist& camo_nl,
                                   double accuracy, std::uint64_t seed)
    : StochasticOracle(camo_nl,
                       std::vector<double>(camo_nl.camo_cells().size(), accuracy),
                       seed) {}

StochasticOracle::StochasticOracle(const netlist::Netlist& camo_nl,
                                   std::vector<double> per_device_accuracy,
                                   std::uint64_t seed)
    : SimulatorOracle(camo_nl), accuracy_(std::move(per_device_accuracy)),
      rng_(seed ^ 0x570c4a57ULL) {
    if (accuracy_.size() != camo_nl.camo_cells().size())
        throw std::invalid_argument(
            "StochasticOracle: one accuracy per camouflaged device required");
    for (double a : accuracy_)
        if (!(a > 0.0 && a <= 1.0))
            throw std::invalid_argument("StochasticOracle: accuracy in (0, 1]");
}

std::vector<std::uint64_t> StochasticOracle::evaluate(
    std::span<const std::uint64_t> pi_words) {
    std::vector<std::uint64_t> masks(accuracy_.size(), 0);
    for (std::size_t d = 0; d < masks.size(); ++d) {
        const double err = 1.0 - accuracy_[d];
        if (err <= 0.0) continue;
        std::uint64_t m = 0;
        for (int b = 0; b < 64; ++b)
            if (rng_.bernoulli(err)) m |= std::uint64_t{1} << b;
        masks[d] = m;
    }
    return simulator().run(pi_words, 1, {.flip_masks = masks});
}

}  // namespace gshe::attack

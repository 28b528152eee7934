#include "attack/sat_attack.hpp"

#include <algorithm>

#include "attack/miter_detail.hpp"
#include "common/timer.hpp"
#include "netlist/simulator.hpp"

namespace gshe::attack {

using detail::History;

std::string AttackResult::status_name(AttackResult::Status s) {
    switch (s) {
        case AttackResult::Status::Success: return "success";
        case AttackResult::Status::TimedOut: return "t-o";
        case AttackResult::Status::Inconsistent: return "inconsistent";
        case AttackResult::Status::IterationCap: return "iteration-cap";
    }
    return "?";
}

std::optional<AttackResult::Status> AttackResult::status_from_name(
    const std::string& name) {
    for (const Status s : {Status::Success, Status::TimedOut,
                           Status::Inconsistent, Status::IterationCap})
        if (status_name(s) == name) return s;
    return std::nullopt;
}

double key_error_rate(const netlist::Netlist& camo_nl, const camo::Key& key,
                      std::size_t patterns, std::uint64_t seed) {
    const auto fns = camo::functions_for_key(camo_nl, key);
    if (!fns) return 1.0;
    netlist::Simulator sim(camo_nl);
    Rng rng(seed ^ 0x7e57ULL);

    const std::size_t n_pis = camo_nl.inputs().size();
    const std::size_t n_outs = camo_nl.outputs().size();
    const std::size_t words = (patterns + 63) / 64;
    // Multi-word sweeps amortize sweep setup; patterns are drawn in the
    // historical order (word-major, then input order), so the sampled
    // error rate is bit-identical to the per-word loop.
    constexpr std::size_t kSweepWords = 16;
    std::uint64_t mismatched = 0, total = 0;
    std::vector<std::uint64_t> pi;
    for (std::size_t base = 0; base < words; base += kSweepWords) {
        const std::size_t chunk = std::min(kSweepWords, words - base);
        pi.assign(n_pis * chunk, 0);
        for (std::size_t w = 0; w < chunk; ++w)
            for (std::size_t i = 0; i < n_pis; ++i) pi[i * chunk + w] = rng();
        const auto truth = sim.run(pi, chunk);
        const auto guess = sim.run(pi, chunk, {.overrides = *fns});
        for (std::size_t w = 0; w < chunk; ++w) {
            std::uint64_t diff = 0;
            for (std::size_t o = 0; o < n_outs; ++o)
                diff |= truth[o * chunk + w] ^ guess[o * chunk + w];
            // The last word may carry fewer than 64 requested patterns; mask
            // the excess lanes so they count in neither numerator nor
            // denominator.
            const std::size_t lanes =
                (base + w + 1 == words && patterns % 64 != 0) ? patterns % 64
                                                              : 64;
            if (lanes < 64) diff &= (std::uint64_t{1} << lanes) - 1;
            mismatched += static_cast<std::uint64_t>(__builtin_popcountll(diff));
            total += lanes;
        }
    }
    return total == 0 ? 0.0 : static_cast<double>(mismatched) / static_cast<double>(total);
}

AttackResult sat_attack(const netlist::Netlist& camo_nl, Oracle& oracle,
                        const AttackOptions& options) {
    Timer timer;

    if (camo_nl.camo_cells().empty()) return detail::uncamouflaged_result(timer);

    History history;
    AttackResult res = detail::run_single_dip_loop(camo_nl, oracle, options,
                                                   timer, history,
                                                   /*prior_iterations=*/0);
    detail::finalize_result(res, camo_nl, oracle, options, timer);
    return res;
}

}  // namespace gshe::attack

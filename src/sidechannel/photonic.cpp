#include "sidechannel/photonic.hpp"

#include <cmath>
#include <stdexcept>
#include <unordered_map>

#include "common/rng.hpp"
#include "netlist/simulator.hpp"

namespace gshe::sidechannel {

using netlist::CellType;
using netlist::Gate;
using netlist::GateId;
using netlist::kNoGate;
using netlist::Netlist;

namespace {

/// Poisson sample: Knuth for small means, normal approximation above.
double sample_poisson(Rng& rng, double mean) {
    if (mean <= 0.0) return 0.0;
    if (mean > 64.0) {
        const double v = rng.gaussian(mean, std::sqrt(mean));
        return v < 0.0 ? 0.0 : std::round(v);
    }
    const double limit = std::exp(-mean);
    double product = rng.uniform();
    double count = 0.0;
    while (product > limit) {
        product *= rng.uniform();
        count += 1.0;
    }
    return count;
}

/// Gates reachable from any key input (the "key logic" an attacker images).
std::vector<char> key_fanout_mask(const Netlist& nl,
                                  const std::vector<GateId>& key_inputs) {
    std::vector<char> mask(nl.size(), 0);
    for (GateId k : key_inputs) mask[k] = 1;
    for (GateId id : nl.topological_order()) {
        const Gate& g = nl.gate(id);
        if (g.type != CellType::Logic) continue;
        if ((g.a != kNoGate && mask[g.a]) || (g.b != kNoGate && mask[g.b]))
            mask[id] = 1;
    }
    return mask;
}

}  // namespace

std::vector<double> toggle_activity(const Netlist& locked,
                                    const std::vector<GateId>& key_inputs,
                                    const camo::Key& key, std::size_t cycles,
                                    std::uint64_t seed) {
    if (key_inputs.size() != key.bits.size())
        throw std::invalid_argument("toggle_activity: key size mismatch");
    std::unordered_map<GateId, bool> key_value;
    for (std::size_t i = 0; i < key_inputs.size(); ++i)
        key_value[key_inputs[i]] = key.bits[i];

    Rng rng(seed ^ 0x9047ULL);
    const netlist::Simulator sim(locked);
    std::vector<double> toggles(locked.size(), 0.0);
    std::vector<std::uint64_t> pi(locked.inputs().size());
    std::vector<std::uint64_t> prev_bit(locked.size(), 0);
    bool have_prev = false;

    const std::size_t words = (cycles + 63) / 64;
    for (std::size_t w = 0; w < words; ++w) {
        // Drive inputs: random stimulus, constant key lines.
        for (std::size_t i = 0; i < pi.size(); ++i) {
            const auto it = key_value.find(locked.inputs()[i]);
            pi[i] = it == key_value.end() ? rng()
                                          : (it->second ? ~std::uint64_t{0} : 0);
        }
        // Every gate's word: true functions, DFF outputs at zero.
        const std::span<const std::uint64_t> value = sim.sweep(pi);
        // Toggle counting: transitions inside the word plus the seam to the
        // previous word's last pattern.
        for (GateId id = 0; id < locked.size(); ++id) {
            const std::uint64_t v = value[id];
            toggles[id] += __builtin_popcountll((v ^ (v << 1)) & ~std::uint64_t{1});
            if (have_prev) toggles[id] += ((v ^ prev_bit[id]) & 1) != 0 ? 1.0 : 0.0;
            prev_bit[id] = v >> 63;
        }
        have_prev = true;
    }
    return toggles;
}

PhotonicAttackResult photonic_template_attack(
    const Netlist& locked, const std::vector<GateId>& key_inputs,
    const camo::Key& correct_key, std::size_t cycles, bool spin_key_logic,
    const PhotonicModel& model, std::uint64_t seed) {
    PhotonicAttackResult res;
    res.key_bits = correct_key.bits.size();

    const std::vector<char> spin_mask =
        spin_key_logic ? key_fanout_mask(locked, key_inputs)
                       : std::vector<char>(locked.size(), 0);

    // The chip under observation: true activity, photon counts per gate.
    const std::uint64_t stimulus_seed = seed ^ 0x1117ULL;
    const auto truth =
        toggle_activity(locked, key_inputs, correct_key, cycles, stimulus_seed);
    Rng rng(seed ^ 0xb01dULL);
    std::vector<double> observed(locked.size(), 0.0);
    double photon_sum = 0.0;
    for (GateId id = 0; id < locked.size(); ++id) {
        const double yield = spin_mask[id] ? 0.0 : model.photons_per_toggle;
        observed[id] = sample_poisson(rng, truth[id] * yield + model.dark_counts);
        photon_sum += observed[id];
    }
    res.mean_photons_per_gate =
        locked.size() == 0 ? 0.0 : photon_sum / static_cast<double>(locked.size());

    // Per-bit maximum-likelihood classification (all other bits known — the
    // attacker's best case).
    auto log_likelihood = [&](const std::vector<double>& activity) {
        double ll = 0.0;
        for (GateId id = 0; id < locked.size(); ++id) {
            const double yield = spin_mask[id] ? 0.0 : model.photons_per_toggle;
            const double lambda = activity[id] * yield + model.dark_counts;
            if (lambda > 0.0) ll += observed[id] * std::log(lambda) - lambda;
        }
        return ll;
    };

    for (std::size_t i = 0; i < correct_key.bits.size(); ++i) {
        camo::Key h0 = correct_key, h1 = correct_key;
        h0.bits[i] = false;
        h1.bits[i] = true;
        const auto a0 =
            toggle_activity(locked, key_inputs, h0, cycles, stimulus_seed);
        const auto a1 =
            toggle_activity(locked, key_inputs, h1, cycles, stimulus_seed);
        const double ll0 = log_likelihood(a0);
        const double ll1 = log_likelihood(a1);
        bool guess;
        if (ll0 == ll1)
            guess = rng.bernoulli(0.5);  // no information: coin flip
        else
            guess = ll1 > ll0;
        if (guess == correct_key.bits[i]) ++res.recovered;
    }
    res.recovery_rate =
        res.key_bits == 0
            ? 0.0
            : static_cast<double>(res.recovered) / static_cast<double>(res.key_bits);
    return res;
}

}  // namespace gshe::sidechannel

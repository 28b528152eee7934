#include "engine/defense.hpp"

#include <cstdio>
#include <stdexcept>

#include "camo/cell_library.hpp"
#include "camo/dynamic.hpp"
#include "camo/protect.hpp"
#include "camo/sarlock.hpp"
#include "common/hash.hpp"
#include "sta/delay_aware.hpp"

namespace gshe::engine {

namespace {

std::string percent(double fraction) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%g%%", fraction * 100.0);
    return buf;
}

DefenseInstance from_protection(std::string label, camo::Protection prot) {
    DefenseInstance inst;
    inst.label = std::move(label);
    inst.netlist = std::make_unique<netlist::Netlist>(std::move(prot.netlist));
    inst.true_key = std::move(prot.true_key);
    inst.protected_cells = inst.netlist->camo_cells().size();
    inst.key_bits = inst.netlist->key_bit_count();
    return inst;
}

/// Every input that shapes the built netlist, as hash material. Explicit
/// (not label(), which omits fields like scramble_frac) so two configs
/// hash equal iff build() would produce identical netlists.
std::string netlist_material(const std::string& circuit,
                             const DefenseConfig& config,
                             std::uint64_t derived_seed) {
    std::string material = "instance:";
    material += circuit;
    material += '|';
    material += config.kind;
    material += '|';
    material += config.library;
    char buf[96];
    std::snprintf(buf, sizeof buf, "|%.17g|%d|%.17g|", config.fraction,
                  config.sarlock_bits, config.accuracy);
    material += buf;
    material += std::to_string(config.rekey_interval);
    std::snprintf(buf, sizeof buf, "|%.17g|%.17g|", config.scramble_frac,
                  config.duty_true);
    material += buf;
    material += std::to_string(config.protect_seed.value_or(derived_seed));
    return material;
}

}  // namespace

std::string DefenseConfig::label() const {
    if (kind == "sarlock") return "sarlock:m" + std::to_string(sarlock_bits);
    std::string l = kind + ":" + library + "@" + percent(fraction);
    if (kind == "stochastic") {
        char buf[32];
        std::snprintf(buf, sizeof buf, "~%g", accuracy);
        l += buf;
    } else if (kind == "dynamic") {
        l += "/T" + std::to_string(rekey_interval);
    }
    return l;
}

DefenseInstance DefenseFactory::build(const netlist::Netlist& base,
                                      const DefenseConfig& config,
                                      std::uint64_t seed) {
    const std::string label = config.label();
    const std::uint64_t protect_seed = config.protect_seed.value_or(seed);

    if (config.kind == "sarlock") {
        DefenseInstance inst = from_protection(
            label, camo::apply_sarlock(base, config.sarlock_bits, protect_seed));
        inst.oracle = std::make_unique<attack::ExactOracle>(*inst.netlist);
        return inst;
    }

    const camo::CellLibrary& lib = camo::library_by_name(config.library);

    std::vector<netlist::GateId> selection;
    if (config.kind == "delay_aware") {
        sta::DelayAwareOptions opts;
        opts.seed = protect_seed;
        opts.max_fraction = config.fraction;
        opts.restrict_to_nand_nor = true;
        selection = sta::delay_aware_select(base, opts).replaced;
    } else if (config.kind == "camo" || config.kind == "stochastic" ||
               config.kind == "dynamic") {
        selection = camo::select_gates(base, config.fraction, protect_seed);
    } else {
        throw std::invalid_argument("unknown defense kind: " + config.kind);
    }

    DefenseInstance inst = from_protection(
        label, camo::apply_camouflage(base, selection, lib, protect_seed));

    if (config.kind == "stochastic") {
        inst.oracle = std::make_unique<attack::StochasticOracle>(
            *inst.netlist, config.accuracy, seed);
    } else if (config.kind == "dynamic") {
        inst.oracle = std::make_unique<camo::RekeyingOracle>(
            *inst.netlist, config.rekey_interval, config.scramble_frac,
            config.duty_true, seed);
    } else {
        inst.oracle = std::make_unique<attack::ExactOracle>(*inst.netlist);
    }
    return inst;
}

bool DefenseFactory::shareable_oracle(const DefenseConfig& config) {
    // The stochastic oracle re-rolls device errors from a per-job RNG and
    // the rekeying oracle advances a query-counted epoch clock: both are
    // stateful, so one instance must never serve two jobs. Every other kind
    // answers through a stateless ExactOracle.
    return config.kind != "stochastic" && config.kind != "dynamic";
}

bool DefenseFactory::seed_free_until_rekey(const DefenseConfig& config) {
    return config.kind == "dynamic";
}

std::uint64_t netlist_fingerprint(const std::string& circuit,
                                  const DefenseConfig& config,
                                  std::uint64_t derived_seed) {
    return fnv1a(netlist_material(circuit, config, derived_seed));
}

std::uint64_t defense_fingerprint(const std::string& circuit,
                                  const DefenseConfig& config,
                                  std::uint64_t derived_seed,
                                  std::size_t job_index) {
    if (DefenseFactory::shareable_oracle(config))
        return netlist_fingerprint(circuit, config, derived_seed);
    // Seeded-oracle kinds: force a singleton group per plan slot.
    std::string material = netlist_material(circuit, config, derived_seed);
    material += "|job";
    material += std::to_string(job_index);
    material += '|';
    material += std::to_string(derived_seed);
    return fnv1a(material);
}

const std::vector<std::string>& DefenseFactory::kinds() {
    static const std::vector<std::string> k = {
        "camo", "delay_aware", "sarlock", "stochastic", "dynamic"};
    return k;
}

}  // namespace gshe::engine

#include "attack/attack.hpp"

#include <memory>
#include <stdexcept>

#include "attack/appsat.hpp"
#include "attack/double_dip.hpp"
#include "attack/sat_attack.hpp"

namespace gshe::attack {

namespace {

using RunFn = AttackResult (*)(const netlist::Netlist&, Oracle&,
                               const AttackOptions&);

class RegisteredAttack final : public Attack {
public:
    RegisteredAttack(std::string name, std::string label, bool reads_seed,
                     RunFn fn)
        : name_(std::move(name)),
          label_(std::move(label)),
          reads_seed_(reads_seed),
          fn_(fn) {}

    const std::string& name() const override { return name_; }
    const std::string& label() const override { return label_; }
    bool reads_seed() const override { return reads_seed_; }

    AttackResult run(const netlist::Netlist& camo_nl, Oracle& oracle,
                     const AttackOptions& options) const override {
        return fn_(camo_nl, oracle, options);
    }

private:
    std::string name_;
    std::string label_;
    bool reads_seed_;
    RunFn fn_;
};

AttackResult run_appsat(const netlist::Netlist& camo_nl, Oracle& oracle,
                        const AttackOptions& options) {
    AppSatOptions opts;
    opts.base = options;
    opts.sample_seed = options.seed;
    opts.error_threshold = options.appsat_error_threshold;
    return appsat_attack(camo_nl, oracle, opts);
}

const std::vector<std::unique_ptr<Attack>>& registry() {
    static const auto* attacks = [] {
        auto* v = new std::vector<std::unique_ptr<Attack>>();
        v->push_back(std::make_unique<RegisteredAttack>(
            "sat", "SAT [8]", /*reads_seed=*/false, &sat_attack));
        v->push_back(std::make_unique<RegisteredAttack>(
            "appsat", "AppSAT [11]", /*reads_seed=*/true, &run_appsat));
        v->push_back(std::make_unique<RegisteredAttack>(
            "double_dip", "Double DIP [12]", /*reads_seed=*/false,
            &double_dip_attack));
        return v;
    }();
    return *attacks;
}

}  // namespace

const Attack* find_attack(const std::string& name) {
    for (const auto& attack : registry())
        if (attack->name() == name) return attack.get();
    return nullptr;
}

const Attack& attack_by_name(const std::string& name) {
    const Attack* attack = find_attack(name);
    if (attack == nullptr)
        throw std::invalid_argument("unknown attack: " + name);
    return *attack;
}

std::vector<std::string> attack_names() {
    std::vector<std::string> names;
    names.reserve(registry().size());
    for (const auto& attack : registry()) names.push_back(attack->name());
    return names;
}

}  // namespace gshe::attack

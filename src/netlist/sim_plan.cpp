#include "netlist/sim_plan.hpp"

#include <algorithm>
#include <stdexcept>

namespace gshe::netlist {

namespace {

/// Topological order sorted by (level, id): level-major, stable within a
/// level, and still topological (every fanin has a strictly smaller level).
std::vector<GateId> level_major_order(const Netlist& nl) {
    const std::vector<int> level = nl.levels();
    std::vector<GateId> order = nl.topological_order();
    std::stable_sort(order.begin(), order.end(),
                     [&level](GateId x, GateId y) {
                         if (level[x] != level[y]) return level[x] < level[y];
                         return x < y;
                     });
    return order;
}

/// Appends the steps for `order`'s Logic gates, restricted to ids with
/// keep[id] != 0 (or all when keep is empty), then binds camo cells and
/// Const1 seeds.
SimPlan assemble(const Netlist& nl, const std::vector<GateId>& order,
                 const std::vector<char>& keep) {
    SimPlan plan;
    plan.zero_slot = static_cast<std::uint32_t>(nl.size());
    plan.value_slots = nl.size() + 1;

    std::vector<std::uint32_t> step_of(nl.size(), SimPlan::kNoStep);
    for (const GateId id : order) {
        if (!keep.empty() && keep[id] == 0) continue;
        const Gate& g = nl.gate(id);
        if (g.type != CellType::Logic) continue;
        step_of[id] = static_cast<std::uint32_t>(plan.out.size());
        plan.out.push_back(id);
        plan.a.push_back(g.a);
        plan.b.push_back(g.b == kNoGate ? plan.zero_slot : g.b);
        plan.tt.push_back(g.fn.truth_table());
    }

    plan.camo_step.reserve(nl.camo_cells().size());
    for (const CamoCell& c : nl.camo_cells())
        plan.camo_step.push_back(step_of[c.gate]);

    for (GateId id = 0; id < nl.size(); ++id)
        if (nl.gate(id).type == CellType::Const1) plan.const_ones.push_back(id);
    return plan;
}

}  // namespace

SimPlan build_sim_plan(const Netlist& nl) {
    return assemble(nl, level_major_order(nl), {});
}

std::vector<GateId> frontier_read_set(const Netlist& nl) {
    const std::vector<char>& cone = nl.key_cone();
    std::vector<char> read(nl.size(), 0);
    for (GateId id = 0; id < nl.size(); ++id) {
        if (cone[id] == 0) continue;
        const Gate& g = nl.gate(id);  // cone members are Logic by construction
        if (g.a != kNoGate && cone[g.a] == 0) read[g.a] = 1;
        if (g.b != kNoGate && cone[g.b] == 0) read[g.b] = 1;
    }
    for (const PortRef& po : nl.outputs())
        if (cone[po.gate] == 0) read[po.gate] = 1;
    std::vector<GateId> out;
    for (GateId id = 0; id < nl.size(); ++id)
        if (read[id] != 0) out.push_back(id);
    return out;
}

SimPlan build_restricted_plan(const Netlist& nl,
                              std::span<const GateId> read_gates) {
    // Transitive fanin closure of the read set over Logic gates. DFF/Input/
    // Const sources are seeded, not computed, so the walk stops there.
    std::vector<char> keep(nl.size(), 0);
    std::vector<GateId> work;
    for (const GateId id : read_gates) {
        if (id >= nl.size())
            throw std::out_of_range("build_restricted_plan: read gate out of range");
        if (keep[id] != 0) continue;
        keep[id] = 1;
        work.push_back(id);
    }
    while (!work.empty()) {
        const GateId id = work.back();
        work.pop_back();
        const Gate& g = nl.gate(id);
        if (g.type != CellType::Logic) continue;
        for (const GateId fan : {g.a, g.b}) {
            if (fan == kNoGate || keep[fan] != 0) continue;
            keep[fan] = 1;
            work.push_back(fan);
        }
    }
    return assemble(nl, level_major_order(nl), keep);
}

}  // namespace gshe::netlist

#include "netlist/netlist.hpp"

#include <algorithm>
#include <stdexcept>

#include "netlist/sim_plan.hpp"

namespace gshe::netlist {

Netlist::Netlist() = default;

Netlist::Netlist(std::string name) : name_(std::move(name)) {}

Netlist::Netlist(const Netlist& other)
    : name_(other.name_),
      gates_(other.gates_),
      inputs_(other.inputs_),
      outputs_(other.outputs_),
      dffs_(other.dffs_),
      camo_cells_(other.camo_cells_),
      topo_cache_(other.topo_cache_),
      fanout_cache_(other.fanout_cache_),
      caches_valid_(other.caches_valid_),
      cone_cache_(other.cone_cache_),
      cone_size_(other.cone_size_),
      cone_valid_(other.cone_valid_) {}
      // Simulation-plan caches stay cold in the copy.

Netlist& Netlist::operator=(const Netlist& other) {
    if (this != &other) {
        Netlist tmp(other);
        *this = std::move(tmp);
    }
    return *this;
}

Netlist::Netlist(Netlist&& other) noexcept = default;
Netlist& Netlist::operator=(Netlist&& other) noexcept = default;
Netlist::~Netlist() = default;

int CamoCell::key_bits() const {
    int bits = 0;
    while ((1u << bits) < candidates.size()) ++bits;
    return bits;
}

int CamoCell::true_index(const Gate& g) const {
    for (std::size_t i = 0; i < candidates.size(); ++i)
        if (candidates[i] == g.fn) return static_cast<int>(i);
    return -1;
}

GateId Netlist::push(Gate g) {
    invalidate_caches();
    gates_.push_back(std::move(g));
    return static_cast<GateId>(gates_.size() - 1);
}

GateId Netlist::add_input(std::string name) {
    Gate g;
    g.type = CellType::Input;
    g.name = std::move(name);
    const GateId id = push(std::move(g));
    inputs_.push_back(id);
    return id;
}

GateId Netlist::add_const(bool value) {
    Gate g;
    g.type = value ? CellType::Const1 : CellType::Const0;
    return push(std::move(g));
}

GateId Netlist::add_gate(core::Bool2 fn, GateId a, GateId b, std::string name) {
    if (a >= gates_.size() || b >= gates_.size())
        throw std::out_of_range("add_gate: fanin id out of range");
    Gate g;
    g.type = CellType::Logic;
    g.fn = fn;
    g.a = a;
    g.b = b;
    g.name = std::move(name);
    return push(std::move(g));
}

GateId Netlist::add_unary(core::Bool2 fn, GateId a, std::string name) {
    if (a >= gates_.size())
        throw std::out_of_range("add_unary: fanin id out of range");
    if (!fn.independent_of_b())
        throw std::invalid_argument("add_unary: function depends on input b");
    Gate g;
    g.type = CellType::Logic;
    g.fn = fn;
    g.a = a;
    g.b = kNoGate;
    g.name = std::move(name);
    return push(std::move(g));
}

GateId Netlist::add_dff(GateId d, std::string name) {
    if (d >= gates_.size())
        throw std::out_of_range("add_dff: fanin id out of range");
    Gate g;
    g.type = CellType::Dff;
    g.a = d;
    g.name = std::move(name);
    const GateId id = push(std::move(g));
    dffs_.push_back(id);
    return id;
}

void Netlist::add_output(GateId driver, std::string name) {
    if (driver >= gates_.size())
        throw std::out_of_range("add_output: driver id out of range");
    outputs_.push_back({driver, std::move(name)});
}

void Netlist::redirect_fanouts(GateId from, GateId to, GateId skip) {
    if (from >= gates_.size() || to >= gates_.size())
        throw std::out_of_range("redirect_fanouts: id out of range");
    for (GateId id = 0; id < gates_.size(); ++id) {
        if (id == skip) continue;
        Gate& g = gates_[id];
        if (g.type != CellType::Logic && g.type != CellType::Dff) continue;
        if (g.a == from) g.a = to;
        if (g.b == from) g.b = to;
    }
    for (PortRef& po : outputs_)
        if (po.gate == from) po.gate = to;
    invalidate_caches();
}

int Netlist::camouflage(GateId g, std::vector<core::Bool2> candidates,
                        std::string library) {
    Gate& gate_ref = gates_.at(g);
    if (gate_ref.type != CellType::Logic)
        throw std::invalid_argument("camouflage: only logic gates can be camouflaged");
    if (gate_ref.is_camouflaged())
        throw std::invalid_argument("camouflage: gate already camouflaged");
    CamoCell cell;
    cell.gate = g;
    cell.candidates = std::move(candidates);
    cell.library = std::move(library);
    if (cell.true_index(gate_ref) < 0)
        throw std::invalid_argument(
            "camouflage: true function not in candidate set");
    camo_cells_.push_back(std::move(cell));
    gate_ref.camo_index = static_cast<std::int32_t>(camo_cells_.size() - 1);
    cone_valid_ = false;
    invalidate_sim_plans();
    return gate_ref.camo_index;
}

void Netlist::clear_camouflage() {
    for (const CamoCell& c : camo_cells_) gates_[c.gate].camo_index = -1;
    camo_cells_.clear();
    cone_valid_ = false;
    invalidate_sim_plans();
}

std::size_t Netlist::logic_gate_count() const {
    std::size_t n = 0;
    for (const Gate& g : gates_)
        if (g.type == CellType::Logic) ++n;
    return n;
}

int Netlist::key_bit_count() const {
    int bits = 0;
    for (const CamoCell& c : camo_cells_) bits += c.key_bits();
    return bits;
}

void Netlist::invalidate_caches() const {
    caches_valid_ = false;
    cone_valid_ = false;
    invalidate_sim_plans();
}

void Netlist::invalidate_sim_plans() const {
    sim_plan_valid_ = false;
    frontier_valid_ = false;
}

const SimPlan& Netlist::sim_plan() const {
    if (!sim_plan_valid_) {
        sim_plan_cache_ = std::make_unique<SimPlan>(build_sim_plan(*this));
        sim_plan_valid_ = true;
    }
    return *sim_plan_cache_;
}

const SimPlan& Netlist::frontier_plan() const {
    if (!frontier_valid_) {
        frontier_reads_ = netlist::frontier_read_set(*this);
        frontier_cache_ =
            std::make_unique<SimPlan>(build_restricted_plan(*this, frontier_reads_));
        frontier_valid_ = true;
    }
    return *frontier_cache_;
}

const std::vector<GateId>& Netlist::frontier_read_set() const {
    frontier_plan();
    return frontier_reads_;
}

const std::vector<GateId>& Netlist::topological_order() const {
    if (caches_valid_) return topo_cache_;

    const std::size_t n = gates_.size();
    fanout_cache_.assign(n, {});
    std::vector<int> indeg(n, 0);
    for (GateId id = 0; id < n; ++id) {
        const Gate& g = gates_[id];
        // DFF outputs are sequential sources: their fanin edge is cut here
        // (classic combinational view); sequential.cpp makes this explicit.
        if (g.type != CellType::Logic) continue;
        if (g.a != kNoGate) {
            fanout_cache_[g.a].push_back(id);
            ++indeg[id];
        }
        if (g.b != kNoGate) {
            fanout_cache_[g.b].push_back(id);
            ++indeg[id];
        }
    }
    // DFF fanout edges (D pins) are recorded for fanout queries but do not
    // contribute to combinational in-degree.
    for (GateId id = 0; id < n; ++id) {
        const Gate& g = gates_[id];
        if (g.type == CellType::Dff && g.a != kNoGate)
            fanout_cache_[g.a].push_back(id);
    }

    topo_cache_.clear();
    topo_cache_.reserve(n);
    for (GateId id = 0; id < n; ++id)
        if (indeg[id] == 0) topo_cache_.push_back(id);
    for (std::size_t head = 0; head < topo_cache_.size(); ++head) {
        const GateId id = topo_cache_[head];
        for (GateId out : fanout_cache_[id]) {
            if (gates_[out].type != CellType::Logic) continue;
            if (--indeg[out] == 0) topo_cache_.push_back(out);
        }
    }
    if (topo_cache_.size() != n)
        throw std::logic_error("Netlist: combinational cycle detected");
    caches_valid_ = true;
    return topo_cache_;
}

const std::vector<std::vector<GateId>>& Netlist::fanouts() const {
    topological_order();  // builds both caches
    return fanout_cache_;
}

const std::vector<char>& Netlist::key_cone() const {
    if (cone_valid_) return cone_cache_;
    const auto& fanout = fanouts();
    cone_cache_.assign(gates_.size(), 0);
    std::vector<GateId> work;
    for (const CamoCell& c : camo_cells_) {
        if (cone_cache_[c.gate] != 0) continue;
        cone_cache_[c.gate] = 1;
        work.push_back(c.gate);
    }
    while (!work.empty()) {
        const GateId id = work.back();
        work.pop_back();
        for (const GateId out : fanout[id]) {
            // DFF consumers are sequential sinks: the D pin is inside the
            // cone, the Q output is a fresh source (not marked).
            if (gates_[out].type != CellType::Logic) continue;
            if (cone_cache_[out] != 0) continue;
            cone_cache_[out] = 1;
            work.push_back(out);
        }
    }
    cone_size_ = 0;
    for (const char f : cone_cache_) cone_size_ += f != 0 ? 1 : 0;
    cone_valid_ = true;
    return cone_cache_;
}

std::size_t Netlist::key_cone_size() const {
    key_cone();
    return cone_size_;
}

std::vector<int> Netlist::levels() const {
    const auto& order = topological_order();
    std::vector<int> level(gates_.size(), 0);
    for (GateId id : order) {
        const Gate& g = gates_[id];
        if (g.type != CellType::Logic) continue;
        int lv = 0;
        if (g.a != kNoGate) lv = std::max(lv, level[g.a] + 1);
        if (g.b != kNoGate) lv = std::max(lv, level[g.b] + 1);
        level[id] = lv;
    }
    return level;
}

int Netlist::depth() const {
    int d = 0;
    for (int lv : levels()) d = std::max(d, lv);
    return d;
}

bool Netlist::validate(std::string* error) const {
    auto fail = [&](const std::string& msg) {
        if (error != nullptr) *error = msg;
        return false;
    };
    for (GateId id = 0; id < gates_.size(); ++id) {
        const Gate& g = gates_[id];
        if (g.type == CellType::Logic) {
            if (g.a == kNoGate || g.a >= gates_.size())
                return fail("gate " + std::to_string(id) + ": bad fanin a");
            if (g.b != kNoGate && g.b >= gates_.size())
                return fail("gate " + std::to_string(id) + ": bad fanin b");
            if (g.b == kNoGate && !g.fn.independent_of_b())
                return fail("gate " + std::to_string(id) +
                            ": binary function with single fanin");
        }
        if (g.type == CellType::Dff && (g.a == kNoGate || g.a >= gates_.size()))
            return fail("dff " + std::to_string(id) + ": bad D fanin");
    }
    for (const PortRef& po : outputs_)
        if (po.gate >= gates_.size()) return fail("output " + po.name + ": bad driver");
    try {
        topological_order();
    } catch (const std::logic_error& e) {
        return fail(e.what());
    }
    return true;
}

}  // namespace gshe::netlist

#pragma once
// Gate-level netlist representation.
//
// Design: every node is a Gate with at most two fanins; combinational logic
// is carried uniformly as a two-input Boolean function (core::Bool2), which
// makes camouflaging (swap the function set), simulation (table lookup) and
// CNF encoding (one clause pattern) entirely generic. Multi-input gates in
// imported .bench files are decomposed into balanced two-input trees.
//
// A camouflaged gate keeps its true function in `fn` (the defender/oracle
// view) and additionally carries an index into the netlist's camouflage
// table, which lists the candidate functions an attacker must distinguish
// among (the attacker view). Key-based evaluation lives in camo/locking.

#include <array>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/boolean_function.hpp"

namespace gshe::netlist {

struct SimPlan;  // netlist/sim_plan.hpp

using GateId = std::uint32_t;
inline constexpr GateId kNoGate = std::numeric_limits<GateId>::max();

enum class CellType : std::uint8_t {
    Input,   ///< primary input; no fanins
    Const0,  ///< constant 0
    Const1,  ///< constant 1
    Logic,   ///< combinational gate computing fn(a, b)
    Dff,     ///< D flip-flop; fanin a is D, the gate output is Q
};

/// One netlist node. Value type; identity is the GateId index.
struct Gate {
    CellType type = CellType::Logic;
    core::Bool2 fn;        ///< valid when type == Logic
    GateId a = kNoGate;    ///< first fanin
    GateId b = kNoGate;    ///< second fanin (kNoGate for 1-input functions)
    std::int32_t camo_index = -1;  ///< >= 0: index into Netlist::camo_cells()
    std::string name;

    bool is_camouflaged() const { return camo_index >= 0; }
    int fanin_count() const {
        if (type != CellType::Logic) return type == CellType::Dff ? 1 : 0;
        return b == kNoGate ? 1 : 2;
    }
};

/// A camouflaged cell instance: which functions it could implement. The true
/// function is the gate's `fn` and is always a member of `candidates`.
struct CamoCell {
    GateId gate = kNoGate;
    std::vector<core::Bool2> candidates;
    /// Name of the primitive library that produced this cell (reporting).
    std::string library;

    /// Key bits needed to select among the candidates (ceil(log2(n))).
    int key_bits() const;
    /// Position of the true function within `candidates`.
    int true_index(const Gate& g) const;
};

/// A primary output: a named reference to its driver gate.
struct PortRef {
    GateId gate = kNoGate;
    std::string name;
};

class Netlist {
public:
    // All special members are out-of-line: the simulation-plan caches are
    // unique_ptrs to the incomplete SimPlan. Copies carry the graph and the
    // cheap caches but start with cold plan caches (rebuilt on first use).
    Netlist();
    explicit Netlist(std::string name);
    Netlist(const Netlist& other);
    Netlist& operator=(const Netlist& other);
    Netlist(Netlist&& other) noexcept;
    Netlist& operator=(Netlist&& other) noexcept;
    ~Netlist();

    const std::string& name() const { return name_; }
    void set_name(std::string n) { name_ = std::move(n); }

    // ---- construction ------------------------------------------------------
    GateId add_input(std::string name);
    GateId add_const(bool value);
    /// Two-input gate computing fn(a, b).
    GateId add_gate(core::Bool2 fn, GateId a, GateId b, std::string name = {});
    /// One-input gate (BUF/INV-class function; b must be irrelevant to fn).
    GateId add_unary(core::Bool2 fn, GateId a, std::string name = {});
    GateId add_dff(GateId d, std::string name = {});
    void add_output(GateId driver, std::string name);

    /// Rewires every consumer of `from` (gate fanins, DFF D pins and primary
    /// outputs) to read `to` instead. Gates listed in `skip` keep their
    /// original fanin — used when inserting a cell into a wire.
    void redirect_fanouts(GateId from, GateId to, GateId skip = kNoGate);

    /// Marks gate g as camouflaged with the given candidate set; returns the
    /// camo table index. The true function (g.fn) must be in `candidates`.
    int camouflage(GateId g, std::vector<core::Bool2> candidates,
                   std::string library);
    /// Removes all camouflage marks, restoring the plain netlist.
    void clear_camouflage();

    // ---- access ------------------------------------------------------------
    std::size_t size() const { return gates_.size(); }
    const Gate& gate(GateId id) const { return gates_[id]; }
    Gate& gate(GateId id) { return gates_[id]; }
    const std::vector<GateId>& inputs() const { return inputs_; }
    const std::vector<PortRef>& outputs() const { return outputs_; }
    const std::vector<GateId>& dffs() const { return dffs_; }
    const std::vector<CamoCell>& camo_cells() const { return camo_cells_; }

    /// Number of Logic gates (the denominator of "% IP protection").
    std::size_t logic_gate_count() const;
    /// Total key bits over all camouflaged cells.
    int key_bit_count() const;

    /// Gate ids in topological order (inputs/constants first). Cached;
    /// invalidated by any structural mutation. Throws if a combinational
    /// cycle exists (DFF outputs count as sources, DFF inputs as sinks).
    const std::vector<GateId>& topological_order() const;

    /// Fanout lists (computed on demand, cached alongside the topo order).
    const std::vector<std::vector<GateId>>& fanouts() const;

    /// Key-cone membership: flag[id] != 0 iff gate id is a camouflaged cell
    /// or transitively downstream of one — the only gates whose value can
    /// depend on the key. Everything outside the cone is a pure function of
    /// the primary inputs, which is what lets the CNF encoder
    /// replace it with simulated constants per DIP. Cached like the topo
    /// order (prewarm with an initial call before sharing the netlist across
    /// threads); invalidated by structural mutation AND by camouflage() /
    /// clear_camouflage(), which change the cone without changing the graph.
    /// Propagation stops at DFF boundaries (combinational view, like the
    /// topo order).
    const std::vector<char>& key_cone() const;
    /// Number of gates inside the key cone.
    std::size_t key_cone_size() const;

    /// Levelized struct-of-arrays simulation plan over the whole netlist
    /// (netlist/sim_plan.hpp) — the Simulator's compiled kernel input.
    /// Cached like the topo order (prewarm before sharing across threads);
    /// invalidated by structural mutation AND by camouflage() /
    /// clear_camouflage(), which rebind camo steps without changing the
    /// graph.
    const SimPlan& sim_plan() const;
    /// Cone-restricted sub-plan covering exactly frontier_read_set(): the
    /// CNF encoder's per-DIP sweeps run these steps instead of the whole
    /// circuit. Same caching/invalidation as sim_plan().
    const SimPlan& frontier_plan() const;
    /// The gates frontier_plan() serves (non-cone fanins of cone gates plus
    /// non-cone output drivers), ascending. Cached with frontier_plan().
    const std::vector<GateId>& frontier_read_set() const;

    /// Longest path length in gates from any source (levelization).
    std::vector<int> levels() const;
    int depth() const;

    /// True if every gate's fanins exist and no combinational cycle exists.
    bool validate(std::string* error = nullptr) const;

private:
    GateId push(Gate g);
    void invalidate_caches() const;
    void invalidate_sim_plans() const;

    std::string name_;
    std::vector<Gate> gates_;
    std::vector<GateId> inputs_;
    std::vector<PortRef> outputs_;
    std::vector<GateId> dffs_;
    std::vector<CamoCell> camo_cells_;

    mutable std::vector<GateId> topo_cache_;
    mutable std::vector<std::vector<GateId>> fanout_cache_;
    mutable bool caches_valid_ = false;
    // Separate validity flag: camouflage()/clear_camouflage() change the
    // cone but not the graph, so they must not force a topo rebuild.
    mutable std::vector<char> cone_cache_;
    mutable std::size_t cone_size_ = 0;
    mutable bool cone_valid_ = false;
    // Simulation-plan caches. Like the cone, they depend on camouflage state
    // (camo step bindings, frontier), so camouflage() /
    // clear_camouflage() invalidate them alongside structural mutation.
    mutable std::unique_ptr<SimPlan> sim_plan_cache_;
    mutable bool sim_plan_valid_ = false;
    mutable std::unique_ptr<SimPlan> frontier_cache_;
    mutable std::vector<GateId> frontier_reads_;
    mutable bool frontier_valid_ = false;
};

}  // namespace gshe::netlist

#pragma once
// Levelized struct-of-arrays simulation plan.
//
// The Simulator's historical inner loop walked Netlist::topological_order()
// and re-dispatched on CellType/Bool2 per gate per sweep. A SimPlan compiles
// that walk once: every Logic gate becomes one step in three flat arrays
// (fanin slots, output slot, truth table), ordered level-major so one tight
// branch-free loop evaluates the whole circuit. The step order is a valid
// topological order, so the computed words are bit-identical to the
// reference per-gate walk — the plan changes cost, never values.
//
// A restricted plan makes the kernel cone-aware: the subset of steps in the
// transitive fanin of a requested read set, in the same level-major order.
// The CNF encoder reads only the key-cone frontier per DIP, so its
// sweeps shrink from O(|circuit|) to O(|frontier cone|) steps.
//
// Plans are cached on the Netlist (sim_plan() / frontier_plan()) and
// invalidated by structural mutation and by camouflage()/clear_camouflage(),
// which change camo step bindings and the cone without changing the graph.

#include <cstdint>
#include <span>
#include <vector>

#include "netlist/netlist.hpp"

namespace gshe::netlist {

struct SimPlan {
    /// Sentinel for camo cells whose gate is outside a restricted plan.
    static constexpr std::uint32_t kNoStep =
        std::numeric_limits<std::uint32_t>::max();

    // One entry per step (= per evaluated Logic gate), level-major order.
    std::vector<GateId> out;       ///< value slot written by the step
    std::vector<std::uint32_t> a;  ///< value slot of fanin a
    std::vector<std::uint32_t> b;  ///< value slot of fanin b (zero_slot if unary)
    std::vector<std::uint8_t> tt;  ///< true-function truth table

    /// camo_step[k]: step index of camo cell k's gate (kNoStep when the
    /// gate is outside this plan — possible only for restricted plans).
    std::vector<std::uint32_t> camo_step;
    /// Const1 gates: their slots are seeded all-ones before the sweep
    /// (Const0/unseeded slots stay at the zero-fill).
    std::vector<GateId> const_ones;

    /// Dedicated always-zero slot read as fanin b of unary steps, so the
    /// kernel never branches on arity. Equals the netlist size.
    std::uint32_t zero_slot = 0;
    /// Value-buffer slots per word: netlist size + the zero slot.
    std::size_t value_slots = 0;

    std::size_t steps() const { return out.size(); }
};

/// Compiles the full netlist into a SimPlan. Step order is the topological
/// order sorted by (level, gate id) — level-major, deterministic, and a
/// valid topological order, so sweeps are value-identical to the reference
/// walk.
SimPlan build_sim_plan(const Netlist& nl);

/// The CNF encoder's per-DIP read set: every non-cone fanin of a
/// key-cone gate plus every non-cone primary-output driver — exactly the
/// gates CircuitEncoder::add_agreements reads as simulated constants. Sorted
/// ascending; includes non-Logic gates (inputs/constants) whose slots are
/// seeded rather than computed.
std::vector<GateId> frontier_read_set(const Netlist& nl);

/// Restricts the full plan to the steps needed to produce `read_gates`:
/// the transitive fanin closure of the read set, in the full plan's
/// level-major order. Slot numbering is unchanged (the value buffer keeps
/// one slot per netlist gate), so a restricted sweep leaves non-closure
/// slots stale — only the read gates (and seeded sources) are valid.
SimPlan build_restricted_plan(const Netlist& nl,
                              std::span<const GateId> read_gates);

}  // namespace gshe::netlist

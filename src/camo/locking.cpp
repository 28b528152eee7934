#include "camo/locking.hpp"

#include <functional>
#include <stdexcept>

#include "common/rng.hpp"

namespace gshe::camo {

using core::Bool2;
using netlist::CellType;
using netlist::Gate;
using netlist::GateId;
using netlist::kNoGate;
using netlist::Netlist;

namespace {

/// out = s ? d1 : d0, built from 2-input gates.
GateId build_mux(Netlist& nl, GateId s, GateId d0, GateId d1) {
    const GateId ns = nl.add_unary(Bool2::NOT_A(), s);
    const GateId t0 = nl.add_gate(Bool2::AND(), ns, d0);
    const GateId t1 = nl.add_gate(Bool2::AND(), s, d1);
    return nl.add_gate(Bool2::OR(), t0, t1);
}

/// Builds fn(a, b) from .bench-standard cells only (AND/OR/NAND/NOR/XOR/
/// XNOR/NOT/BUF), so locked netlists export cleanly. Handles all 16
/// functions, including constants (XOR/XNOR of a signal with itself) and
/// the four single-inverted-input forms.
GateId build_function(Netlist& nl, Bool2 fn, GateId a, GateId b) {
    switch (fn.truth_table()) {
        case 0x0: return nl.add_gate(Bool2::XOR(), a, a);    // FALSE
        case 0xF: return nl.add_gate(Bool2::XNOR(), a, a);   // TRUE
        case 0xC: return nl.add_unary(Bool2::A(), a);        // A
        case 0x3: return nl.add_unary(Bool2::NOT_A(), a);    // NOT_A
        case 0xA: return nl.add_unary(Bool2::A(), b);        // B
        case 0x5: return nl.add_unary(Bool2::NOT_A(), b);    // NOT_B
        case 0x8: return nl.add_gate(Bool2::AND(), a, b);
        case 0x7: return nl.add_gate(Bool2::NAND(), a, b);
        case 0xE: return nl.add_gate(Bool2::OR(), a, b);
        case 0x1: return nl.add_gate(Bool2::NOR(), a, b);
        case 0x6: return nl.add_gate(Bool2::XOR(), a, b);
        case 0x9: return nl.add_gate(Bool2::XNOR(), a, b);
        case 0x4:  // A AND NOT B  == NOR(NOT a, b) == AND(a, NOT b)
            return nl.add_gate(Bool2::AND(), a, nl.add_unary(Bool2::NOT_A(), b));
        case 0x2:  // NOT A AND B
            return nl.add_gate(Bool2::AND(), nl.add_unary(Bool2::NOT_A(), a), b);
        case 0xD:  // A OR NOT B
            return nl.add_gate(Bool2::OR(), a, nl.add_unary(Bool2::NOT_A(), b));
        case 0xB:  // NOT A OR B
            return nl.add_gate(Bool2::OR(), nl.add_unary(Bool2::NOT_A(), a), b);
    }
    throw std::logic_error("build_function: unreachable");
}

}  // namespace

LockedCircuit to_locked(const Netlist& nl) {
    LockedCircuit lc;
    Netlist& out = lc.netlist;
    out.set_name(nl.name() + "_locked");

    std::vector<GateId> remap(nl.size(), kNoGate);
    for (GateId id : nl.inputs()) remap[id] = out.add_input(nl.gate(id).name);
    if (!nl.dffs().empty() && out.size() == 0) out.add_const(false);
    for (GateId id : nl.dffs()) remap[id] = out.add_dff(0, nl.gate(id).name);

    // Key inputs, one block per camo cell (same layout as Key and the CNF
    // encoder's key variables).
    std::vector<std::vector<GateId>> cell_keys;
    int key_counter = 0;
    for (const netlist::CamoCell& cell : nl.camo_cells()) {
        std::vector<GateId> kb;
        for (int j = 0; j < cell.key_bits(); ++j) {
            const GateId k =
                out.add_input("keyinput" + std::to_string(key_counter++));
            kb.push_back(k);
            lc.key_inputs.push_back(k);
        }
        cell_keys.push_back(std::move(kb));
    }

    for (GateId id : nl.topological_order()) {
        const Gate& g = nl.gate(id);
        switch (g.type) {
            case CellType::Input:
            case CellType::Dff:
                break;
            case CellType::Const0:
                remap[id] = out.add_const(false);
                break;
            case CellType::Const1:
                remap[id] = out.add_const(true);
                break;
            case CellType::Logic: {
                const GateId a = remap[g.a];
                const GateId b = g.b == kNoGate ? kNoGate : remap[g.b];
                if (!g.is_camouflaged()) {
                    remap[id] = g.fanin_count() == 1
                                    ? out.add_unary(g.fn, a, g.name)
                                    : out.add_gate(g.fn, a, b, g.name);
                    break;
                }
                const auto& cell =
                    nl.camo_cells()[static_cast<std::size_t>(g.camo_index)];
                const auto& kb = cell_keys[static_cast<std::size_t>(g.camo_index)];
                // Recursive key-bit selector over candidate codes; codes past
                // the candidate count alias the last candidate.
                std::function<GateId(std::size_t, int)> build =
                    [&](std::size_t code, int bit) -> GateId {
                    if (bit == static_cast<int>(kb.size())) {
                        const std::size_t c =
                            std::min(code, cell.candidates.size() - 1);
                        const Bool2 fn = cell.candidates[c];
                        if (b == kNoGate) {
                            // Unary cell (wire-insertion style): candidates
                            // are functions of a only.
                            if (!fn.independent_of_b())
                                throw std::logic_error(
                                    "to_locked: binary candidate on unary cell");
                            return build_function(out, fn, a, a);
                        }
                        return build_function(out, fn, a, b);
                    }
                    const GateId d0 = build(code, bit + 1);
                    const GateId d1 = build(code | (std::size_t{1} << bit), bit + 1);
                    return build_mux(out, kb[static_cast<std::size_t>(bit)], d0, d1);
                };
                remap[id] = build(0, 0);
                out.gate(remap[id]).name = g.name;
                break;
            }
        }
    }

    for (GateId id : nl.dffs()) out.gate(remap[id]).a = remap[nl.gate(id).a];
    for (const netlist::PortRef& po : nl.outputs())
        out.add_output(remap[po.gate], po.name);

    lc.correct_key = true_key(nl);
    return lc;
}

LockedCircuit lock_epic_xor(const Netlist& nl, int key_bits,
                            std::uint64_t seed) {
    if (key_bits < 0) throw std::invalid_argument("lock_epic_xor: negative key");
    LockedCircuit lc;
    Netlist& out = lc.netlist;

    // Start from a camouflage-free copy.
    std::vector<GateId> remap(nl.size(), kNoGate);
    out.set_name(nl.name() + "_epic");
    for (GateId id : nl.inputs()) remap[id] = out.add_input(nl.gate(id).name);
    if (!nl.dffs().empty() && out.size() == 0) out.add_const(false);
    for (GateId id : nl.dffs()) remap[id] = out.add_dff(0, nl.gate(id).name);
    for (GateId id : nl.topological_order()) {
        const Gate& g = nl.gate(id);
        if (g.type != CellType::Logic) continue;
        remap[id] = g.fanin_count() == 1
                        ? out.add_unary(g.fn, remap[g.a], g.name)
                        : out.add_gate(g.fn, remap[g.a], remap[g.b], g.name);
    }
    for (GateId id : nl.dffs()) out.gate(remap[id]).a = remap[nl.gate(id).a];
    for (const netlist::PortRef& po : nl.outputs())
        out.add_output(remap[po.gate], po.name);

    // Candidate wires: outputs of logic gates.
    std::vector<GateId> wires;
    for (GateId id = 0; id < out.size(); ++id)
        if (out.gate(id).type == CellType::Logic) wires.push_back(id);

    Rng rng(seed ^ 0xe91cULL);
    for (int i = 0; i < key_bits && !wires.empty(); ++i) {
        const std::size_t w = rng.below(wires.size());
        const GateId target = wires[w];
        wires[w] = wires.back();
        wires.pop_back();

        const bool key_bit = rng.bernoulli(0.5);
        const GateId k = out.add_input("keyinput" + std::to_string(i));
        lc.key_inputs.push_back(k);
        lc.correct_key.bits.push_back(key_bit);
        // key_bit == 0: XOR passes through; key_bit == 1: XNOR inverts back.
        const GateId gate =
            out.add_gate(key_bit ? Bool2::XNOR() : Bool2::XOR(), target, k);
        out.redirect_fanouts(target, gate, /*skip=*/gate);
    }
    return lc;
}

}  // namespace gshe::camo

#include "camo/sarlock.hpp"

#include <stdexcept>
#include <string>

#include "common/rng.hpp"

namespace gshe::camo {

using core::Bool2;
using netlist::CellType;
using netlist::Gate;
using netlist::GateId;
using netlist::kNoGate;
using netlist::Netlist;

namespace {

/// Balanced AND/OR reduction tree.
GateId reduce(Netlist& nl, std::vector<GateId> layer, Bool2 fn) {
    if (layer.empty()) throw std::logic_error("reduce: empty");
    while (layer.size() > 1) {
        std::vector<GateId> next;
        for (std::size_t i = 0; i + 1 < layer.size(); i += 2)
            next.push_back(nl.add_gate(fn, layer[i], layer[i + 1]));
        if (layer.size() % 2) next.push_back(layer.back());
        layer = std::move(next);
    }
    return layer[0];
}

}  // namespace

Protection apply_sarlock(const Netlist& nl, int m_bits, std::uint64_t seed) {
    if (m_bits < 1)
        throw std::invalid_argument("apply_sarlock: m_bits >= 1");
    if (nl.inputs().size() < static_cast<std::size_t>(m_bits))
        throw std::invalid_argument(
            "apply_sarlock: m_bits = " + std::to_string(m_bits) +
            " exceeds the circuit's " + std::to_string(nl.inputs().size()) +
            " primary inputs");
    if (nl.outputs().empty())
        throw std::invalid_argument("apply_sarlock: need a primary output");

    // Copy the base circuit (plain; SARLock adds its own camo cells).
    Netlist out(nl.name() + "_sarlock");
    std::vector<GateId> remap(nl.size(), kNoGate);
    for (GateId id : nl.inputs()) remap[id] = out.add_input(nl.gate(id).name);
    if (!nl.dffs().empty())
        throw std::invalid_argument("apply_sarlock: combinational circuits only");
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
            case CellType::Logic:
                remap[id] = g.fanin_count() == 1
                                ? out.add_unary(g.fn, remap[g.a], g.name)
                                : out.add_gate(g.fn, remap[g.a], remap[g.b], g.name);
                break;
        }
    }

    // Secret constant c*.
    Rng rng(seed ^ 0x5a71ULL);
    std::vector<bool> secret(static_cast<std::size_t>(m_bits));
    for (auto&& b : secret) b = rng.bernoulli(0.5);

    // Key bits: camouflaged constant cells (FALSE/TRUE cloaked — trivially
    // within the GSHE primitive's function set). The true function encodes
    // the corresponding bit of c*.
    std::vector<GateId> key_bits, match_bits, wrong_bits;
    for (int i = 0; i < m_bits; ++i) {
        const GateId x = remap[nl.inputs()[static_cast<std::size_t>(i)]];
        const GateId cell = out.add_unary(
            secret[static_cast<std::size_t>(i)] ? Bool2::TRUE_() : Bool2::FALSE_(),
            x, "sarlock_k" + std::to_string(i));
        out.camouflage(cell, {Bool2::FALSE_(), Bool2::TRUE_()}, "sarlock");
        key_bits.push_back(cell);
        // match_i = XNOR(x_i, key_i); wrong_i = XOR(key_i, hardwired c*_i).
        match_bits.push_back(out.add_gate(Bool2::XNOR(), x, cell));
        const GateId hw = out.add_const(secret[static_cast<std::size_t>(i)]);
        wrong_bits.push_back(out.add_gate(Bool2::XOR(), cell, hw));
    }

    // flip = (x == key) AND (key != c*): fires on exactly one pattern per
    // wrong key and never for the correct key.
    const GateId match = reduce(out, match_bits, Bool2::AND());
    const GateId wrong = reduce(out, wrong_bits, Bool2::OR());
    const GateId flip = out.add_gate(Bool2::AND(), match, wrong);

    // XOR the flip into the first primary output (by position).
    const GateId po0 = remap[nl.outputs()[0].gate];
    const GateId flipped = out.add_gate(Bool2::XOR(), po0, flip);
    for (std::size_t i = 0; i < nl.outputs().size(); ++i) {
        const netlist::PortRef& po = nl.outputs()[i];
        out.add_output(i == 0 ? flipped : remap[po.gate], po.name);
    }

    Protection p{std::move(out), {}};
    p.true_key = true_key(p.netlist);
    return p;
}

}  // namespace gshe::camo

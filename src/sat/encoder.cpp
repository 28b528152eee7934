#include "sat/encoder.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "netlist/simulator.hpp"

namespace gshe::sat {
namespace {

using netlist::CellType;
using netlist::Gate;
using netlist::GateId;
using netlist::kNoGate;

/// Clause literal asserting "var != value": the row guard of a truth-table
/// clause "(a != va) or (b != vb) or (out == f(va, vb))".
Lit guard(Var v, bool value) { return Lit(v, value); }
/// Clause literal asserting "var == value".
Lit equal(Var v, bool value) { return Lit(v, !value); }
/// Row guard over a literal: false exactly when `l` evaluates to `value`.
Lit lit_guard(Lit l, bool value) { return value ? ~l : l; }

/// Truth-table transform f'(a, b) = f(!a, b): swap the a=0 and a=1 rows.
std::uint8_t flip_a(std::uint8_t tt) {
    return static_cast<std::uint8_t>(((tt & 0b0011u) << 2) | ((tt & 0b1100u) >> 2));
}
/// Truth-table transform f'(a, b) = f(a, !b).
std::uint8_t flip_b(std::uint8_t tt) {
    return static_cast<std::uint8_t>(((tt & 0b0101u) << 1) | ((tt & 0b1010u) >> 1));
}

void append_i32(std::string& s, std::int32_t v) {
    const auto u = static_cast<std::uint32_t>(v);
    s.push_back(static_cast<char>(u & 0xFF));
    s.push_back(static_cast<char>((u >> 8) & 0xFF));
    s.push_back(static_cast<char>((u >> 16) & 0xFF));
    s.push_back(static_cast<char>((u >> 24) & 0xFF));
}

std::vector<int> camo_key_offsets(const netlist::Netlist& nl, int* total) {
    std::vector<int> off;
    off.reserve(nl.camo_cells().size());
    int bits = 0;
    for (const netlist::CamoCell& c : nl.camo_cells()) {
        off.push_back(bits);
        bits += c.key_bits();
    }
    if (total != nullptr) *total = bits;
    return off;
}

}  // namespace

void accumulate(EncoderStats& into, const EncoderStats& from) {
    into.vars += from.vars;
    into.clauses += from.clauses;
    into.gates_folded += from.gates_folded;
    into.hash_hits += from.hash_hits;
    into.agreements += from.agreements;
    into.agreement_vars += from.agreement_vars;
    into.agreement_clauses += from.agreement_clauses;
    into.cone_gates += from.cone_gates;
    into.sim_gates += from.sim_gates;
}

void accumulate(SolverStats& into, const SolverStats& from) {
    into.decisions += from.decisions;
    into.propagations += from.propagations;
    into.conflicts += from.conflicts;
    into.restarts += from.restarts;
    into.learnt_clauses += from.learnt_clauses;
    into.removed_clauses += from.removed_clauses;
    into.chrono_backtracks += from.chrono_backtracks;
    into.gc_runs += from.gc_runs;
}

CircuitEncoder::CircuitEncoder(SolverBackend& solver) : solver_(solver) {}

Lit CircuitEncoder::constant(bool value) {
    if (const_var_ == kNoVar) {
        const_var_ = solver_.new_var();
        solver_.add_clause(Lit(const_var_, false));  // fixed true
    }
    return Lit(const_var_, !value);
}

void CircuitEncoder::contradict() { solver_.add_clause(Clause{}); }

CircuitEncoder::XLit CircuitEncoder::xlit_of(Lit l) const {
    // Map the shared constant literal back to an encode-time constant so
    // downstream folding sees through it (e.g. a folded PO fed to a miter).
    if (const_var_ != kNoVar && l.var() == const_var_)
        return XLit::constant(!l.negated());
    return XLit::lit(l);
}

Lit CircuitEncoder::realize(XLit x) {
    if (x.is_const()) return constant(x.const_value());
    return x.as_lit();
}

CircuitEncoder::XLit CircuitEncoder::unary_of(XLit x, bool f0, bool f1) {
    if (f0 == f1) return XLit::constant(f0);
    if (x.is_const()) return XLit::constant(x.const_value() ? f1 : f0);
    return f1 ? x : x.negated();  // (0,1) = buffer, (1,0) = inverter
}

CircuitEncoder::XLit CircuitEncoder::encode_fn(core::Bool2 fn, XLit a, XLit b) {
    // 1. Constant substitution: restrict to a unary function, then reduce.
    if (a.is_const() && b.is_const()) {
        ++stats_.gates_folded;
        return XLit::constant(fn.eval(a.const_value(), b.const_value()));
    }
    if (a.is_const()) {
        ++stats_.gates_folded;
        const bool av = a.const_value();
        return unary_of(b, fn.eval(av, false), fn.eval(av, true));
    }
    if (b.is_const()) {
        ++stats_.gates_folded;
        const bool bv = b.const_value();
        return unary_of(a, fn.eval(false, bv), fn.eval(true, bv));
    }
    // 2. Shared or complementary inputs: f(x, x) / f(x, !x) are unary.
    Lit la = a.as_lit();
    Lit lb = b.as_lit();
    if (la == lb) {
        ++stats_.gates_folded;
        return unary_of(a, fn.eval(false, false), fn.eval(true, true));
    }
    if (la == ~lb) {
        ++stats_.gates_folded;
        return unary_of(a, fn.eval(false, true), fn.eval(true, false));
    }
    // 3. Degenerate truth tables over distinct inputs.
    if (fn.independent_of_a() && fn.independent_of_b()) {
        ++stats_.gates_folded;
        return XLit::constant(fn.eval(false, false));
    }
    if (fn.independent_of_b()) {
        ++stats_.gates_folded;
        return unary_of(a, fn.eval(false, false), fn.eval(true, false));
    }
    if (fn.independent_of_a()) {
        ++stats_.gates_folded;
        return unary_of(b, fn.eval(false, false), fn.eval(false, true));
    }
    // 4. Genuine binary gate: normalize to the canonical form — positive
    // inputs (negations absorbed into the table), inputs sorted by variable,
    // output polarity chosen so f(0,0) = 0 — then consult the hash.
    std::uint8_t tt = fn.truth_table();
    if (la.negated()) {
        tt = flip_a(tt);
        la = ~la;
    }
    if (lb.negated()) {
        tt = flip_b(tt);
        lb = ~lb;
    }
    if (lb.var() < la.var()) {
        tt = core::Bool2(tt).swapped().truth_table();
        std::swap(la, lb);
    }
    const bool negate_out = (tt & 1) != 0;
    if (negate_out) tt = core::Bool2(tt).complement().truth_table();

    const PlainKey key{la.var(), lb.var(), tt};
    Var y = kNoVar;
    if (const auto it = plain_hash_.find(key); it != plain_hash_.end()) {
        ++stats_.hash_hits;
        y = it->second;
    } else {
        y = solver_.new_var();
        const core::Bool2 cfn(tt);
        for (int va = 0; va < 2; ++va)
            for (int vb = 0; vb < 2; ++vb)
                solver_.add_clause(guard(la.var(), va != 0),
                                   guard(lb.var(), vb != 0),
                                   equal(y, cfn.eval(va != 0, vb != 0)));
        plain_hash_.emplace(key, y);
    }
    return XLit::lit(Lit(y, negate_out));
}

CircuitEncoder::XLit CircuitEncoder::encode_camo(const netlist::CamoCell& cell,
                                                 XLit a, XLit b, bool has_b,
                                                 std::span<const Var> key_bits) {
    // Hash key: candidate set + key block + input codes. Two sites agree on
    // all three only when their definitions would be clause-identical.
    std::string hk;
    hk.reserve(cell.candidates.size() + key_bits.size() * 4 + 12);
    for (const core::Bool2 fn : cell.candidates)
        hk.push_back(static_cast<char>(fn.truth_table()));
    hk.push_back('\xff');
    for (const Var v : key_bits) append_i32(hk, v);
    append_i32(hk, a.code);
    append_i32(hk, has_b ? b.code : XLit::kFalse - 1);
    if (const auto it = camo_hash_.find(hk); it != camo_hash_.end()) {
        ++stats_.hash_hits;
        return XLit{it->second};
    }

    const std::size_t k = cell.candidates.size();
    const int bits = cell.key_bits();

    // Forbid unused key codes — once per key block, not per encoded copy.
    std::string block_key;
    block_key.reserve(key_bits.size() * 4);
    for (const Var v : key_bits) append_i32(block_key, v);
    // Every clause below starts with the guard of one key code c, the
    // literals of "key != c", built in the reused clause_ buffer.
    const auto select = [&](std::size_t c) {
        clause_.clear();
        for (int j = 0; j < bits; ++j)
            clause_.push_back(guard(key_bits[static_cast<std::size_t>(j)],
                                    ((c >> j) & 1) != 0));
    };
    if (forbidden_done_.insert(std::move(block_key)).second) {
        for (std::size_t c = k; c < (std::size_t{1} << bits); ++c) {
            select(c);
            solver_.add_clause(clause_);
        }
    }

    const Var y = solver_.new_var();
    const auto selector_size = static_cast<std::size_t>(bits);
    for (std::size_t c = 0; c < k; ++c) {
        select(c);
        const core::Bool2 fn = cell.candidates[c];
        for (int va = 0; va < 2; ++va)
            for (int vb = 0; vb < 2; ++vb) {
                // Rows contradicting a constant input are vacuous; constant
                // guards are dropped rather than materialized as variables.
                if (a.is_const() && (va != 0) != a.const_value()) continue;
                if (has_b && b.is_const() && (vb != 0) != b.const_value())
                    continue;
                clause_.resize(selector_size);
                if (!a.is_const())
                    clause_.push_back(lit_guard(a.as_lit(), va != 0));
                if (has_b && !b.is_const())
                    clause_.push_back(lit_guard(b.as_lit(), vb != 0));
                clause_.push_back(equal(y, fn.eval(va != 0, vb != 0)));
                solver_.add_clause(clause_);
                if (!has_b) break;  // single-input: ignore vb
            }
    }

    const Lit out(y, false);
    camo_hash_.emplace(std::move(hk), out.code());
    return XLit::lit(out);
}

Encoding CircuitEncoder::encode(const netlist::Netlist& nl,
                                const std::vector<Var>& shared_pis,
                                const std::vector<Var>& shared_keys) {
    if (!nl.dffs().empty())
        throw std::invalid_argument(
            "CircuitEncoder: netlist is sequential; apply unroll_for_scan first");
    if (!shared_pis.empty() && shared_pis.size() != nl.inputs().size())
        throw std::invalid_argument("CircuitEncoder: shared_pis size mismatch");
    const auto v0 = static_cast<std::uint64_t>(solver_.num_vars());
    const auto c0 = static_cast<std::uint64_t>(solver_.num_clauses());

    Encoding enc;
    std::vector<XLit> val(nl.size(), XLit::constant(false));

    for (std::size_t i = 0; i < nl.inputs().size(); ++i) {
        const Var v = shared_pis.empty() ? solver_.new_var() : shared_pis[i];
        enc.pis.push_back(v);
        val[nl.inputs()[i]] = XLit::lit(Lit(v, false));
    }

    int total_key_bits = 0;
    enc.key_offset = camo_key_offsets(nl, &total_key_bits);
    if (!shared_keys.empty() &&
        shared_keys.size() != static_cast<std::size_t>(total_key_bits))
        throw std::invalid_argument("CircuitEncoder: shared_keys size mismatch");
    for (int i = 0; i < total_key_bits; ++i)
        enc.keys.push_back(shared_keys.empty()
                               ? solver_.new_var()
                               : shared_keys[static_cast<std::size_t>(i)]);

    for (const GateId id : nl.topological_order()) {
        const Gate& g = nl.gate(id);
        switch (g.type) {
            case CellType::Input:
                break;
            case CellType::Dff:
                throw std::logic_error("CircuitEncoder: unexpected DFF");
            case CellType::Const0:
            case CellType::Const1:
                // Encode-time constant: no variable, no clause (one shared
                // constant variable serves any that must become a literal).
                val[id] = XLit::constant(g.type == CellType::Const1);
                ++stats_.gates_folded;
                break;
            case CellType::Logic: {
                const XLit a = val[g.a];
                const XLit b =
                    g.b == kNoGate ? XLit::constant(false) : val[g.b];
                if (g.is_camouflaged()) {
                    const auto& cell =
                        nl.camo_cells()[static_cast<std::size_t>(g.camo_index)];
                    const int off =
                        enc.key_offset[static_cast<std::size_t>(g.camo_index)];
                    val[id] = encode_camo(
                        cell, a, b, g.b != kNoGate,
                        std::span<const Var>(enc.keys).subspan(
                            static_cast<std::size_t>(off),
                            static_cast<std::size_t>(cell.key_bits())));
                } else {
                    val[id] = encode_fn(g.fn, a, b);
                }
                break;
            }
        }
    }

    enc.outs.reserve(nl.outputs().size());
    for (const netlist::PortRef& po : nl.outputs())
        enc.outs.push_back(realize(val[po.gate]));

    stats_.vars += static_cast<std::uint64_t>(solver_.num_vars()) - v0;
    stats_.clauses += static_cast<std::uint64_t>(solver_.num_clauses()) - c0;
    return enc;
}

void CircuitEncoder::add_agreements(
    const netlist::Netlist& nl, const std::vector<std::vector<Var>>& keys_list,
    const std::vector<std::vector<bool>>& xs,
    const std::vector<std::vector<bool>>& ys) {
    if (xs.size() != ys.size())
        throw std::invalid_argument("CircuitEncoder: agreement batch size mismatch");
    const std::size_t n_pis = nl.inputs().size();
    for (std::size_t i = 0; i < xs.size(); ++i) {
        if (xs[i].size() != n_pis)
            throw std::invalid_argument(
                "CircuitEncoder: agreement input size mismatch");
        if (ys[i].size() != nl.outputs().size())
            throw std::invalid_argument(
                "CircuitEncoder: agreement output size mismatch");
    }
    int total_key_bits = 0;
    const std::vector<int> key_offset = camo_key_offsets(nl, &total_key_bits);
    for (const std::vector<Var>& keys : keys_list)
        if (keys.size() != static_cast<std::size_t>(total_key_bits))
            throw std::invalid_argument(
                "CircuitEncoder: agreement key size mismatch");
    const netlist::Simulator sim(nl);
    const std::vector<GateId>& reads = nl.frontier_read_set();
    // Encode-time values of the cone gates, rewritten by every agreement
    // before they are read.
    std::vector<XLit> cone_val(nl.size(), XLit::constant(false));
    // Multi-word cone-restricted sweeps: up to kSweepWords x 64
    // observations share one pass over the frontier sub-plan, which runs
    // only the steps feeding the reads of the cone encoding.
    constexpr std::size_t kSweepWords = 16;
    std::vector<std::uint64_t> pi_words;
    std::vector<char> values(nl.size(), 0);
    for (std::size_t base = 0; base < xs.size(); base += kSweepWords * 64) {
        const std::size_t lanes =
            std::min<std::size_t>(kSweepWords * 64, xs.size() - base);
        const std::size_t n_words = (lanes + 63) / 64;
        pi_words.assign(n_pis * n_words, 0);
        for (std::size_t i = 0; i < n_pis; ++i)
            for (std::size_t j = 0; j < lanes; ++j)
                if (xs[base + j][i])
                    pi_words[i * n_words + j / 64] |= std::uint64_t{1} << (j % 64);
        const std::span<const std::uint64_t> words =
            sim.sweep_frontier(pi_words, n_words);
        for (std::size_t j = 0; j < lanes; ++j) {
            const std::size_t w = j / 64;
            const std::size_t bit = j % 64;
            for (const GateId g : reads)
                values[g] = static_cast<char>(
                    (words[std::size_t{g} * n_words + w] >> bit) & 1);
            const auto v0 = static_cast<std::uint64_t>(solver_.num_vars());
            const auto c0 = static_cast<std::uint64_t>(solver_.num_clauses());
            for (const std::vector<Var>& keys : keys_list)
                encode_agreement(nl, keys, key_offset, ys[base + j], values,
                                 cone_val);
            const auto dv = static_cast<std::uint64_t>(solver_.num_vars()) - v0;
            const auto dc =
                static_cast<std::uint64_t>(solver_.num_clauses()) - c0;
            stats_.vars += dv;
            stats_.clauses += dc;
            stats_.agreement_vars += dv;
            stats_.agreement_clauses += dc;
            stats_.agreements += keys_list.size();
        }
    }
}

void CircuitEncoder::encode_agreement(const netlist::Netlist& nl,
                                      std::span<const Var> keys,
                                      std::span<const int> key_offset,
                                      const std::vector<bool>& y,
                                      std::span<const char> values,
                                      std::vector<XLit>& val) {
    // The DIP is fixed, so everything outside the key cone is a known
    // constant: `values` (one lane of add_agreements' sweep, shared by
    // every key vector) replaces those gates outright, and only the
    // key-dependent remainder is encoded, reading simulated constants at
    // the cone frontier.
    const std::vector<char>& cone = nl.key_cone();

    for (const GateId id : nl.topological_order()) {
        if (cone[id] == 0) continue;  // simulated, never encoded
        const Gate& g = nl.gate(id);  // cone members are Logic by construction
        const XLit a = cone[g.a] != 0 ? val[g.a]
                                      : XLit::constant(values[g.a] != 0);
        const XLit b =
            g.b == kNoGate
                ? XLit::constant(false)
                : (cone[g.b] != 0 ? val[g.b] : XLit::constant(values[g.b] != 0));
        if (g.is_camouflaged()) {
            const auto& cell =
                nl.camo_cells()[static_cast<std::size_t>(g.camo_index)];
            const int off = key_offset[static_cast<std::size_t>(g.camo_index)];
            val[id] = encode_camo(
                cell, a, b, g.b != kNoGate,
                keys.subspan(static_cast<std::size_t>(off),
                             static_cast<std::size_t>(cell.key_bits())));
        } else {
            val[id] = encode_fn(g.fn, a, b);
        }
        ++stats_.cone_gates;
    }
    stats_.sim_gates += nl.logic_gate_count() - nl.key_cone_size();

    for (std::size_t o = 0; o < nl.outputs().size(); ++o) {
        const GateId d = nl.outputs()[o].gate;
        const bool want = y[o];
        if (cone[d] != 0) {
            const XLit v = val[d];
            if (v.is_const()) {
                if (v.const_value() != want) contradict();
            } else {
                solver_.add_clause(want ? v.as_lit() : ~v.as_lit());
            }
        } else if ((values[d] != 0) != want) {
            // The oracle response disagrees with a key-independent output:
            // no key can ever satisfy this observation (stochastic-oracle
            // inconsistency). Falsify the formula at the root.
            contradict();
        }
    }
}

void CircuitEncoder::add_difference(const std::vector<Lit>& a,
                                    const std::vector<Lit>& b) {
    add_difference_impl(a, b, std::nullopt);
}

void CircuitEncoder::add_difference(const std::vector<Lit>& a,
                                    const std::vector<Lit>& b, Lit guard) {
    add_difference_impl(a, b, guard);
}

void CircuitEncoder::add_difference_impl(const std::vector<Lit>& a,
                                         const std::vector<Lit>& b,
                                         std::optional<Lit> guard) {
    if (a.size() != b.size())
        throw std::invalid_argument("CircuitEncoder: add_difference size mismatch");
    const auto v0 = static_cast<std::uint64_t>(solver_.num_vars());
    const auto c0 = static_cast<std::uint64_t>(solver_.num_clauses());

    // XOR each pair through the folding/hashing machinery, then demand
    // one true. A constant-true XOR discharges the constraint outright;
    // all-constant-false means the vectors are provably equal.
    Clause any;
    bool satisfied = false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        const XLit d =
            encode_fn(core::Bool2::XOR(), xlit_of(a[i]), xlit_of(b[i]));
        if (d.is_const()) {
            if (d.const_value()) satisfied = true;
            continue;
        }
        any.push_back(d.as_lit());
    }
    if (!satisfied) {
        if (any.empty()) {
            // Provably equal: unguarded, the formula is refuted at the
            // root; guarded, only the selector is forced off (the DIP
            // solve under {guard} answers Unsat, extraction under
            // {~guard} proceeds).
            if (guard)
                solver_.add_clause(~*guard);
            else
                contradict();
        } else {
            if (guard) any.push_back(~*guard);
            solver_.add_clause(std::move(any));
        }
    }

    stats_.vars += static_cast<std::uint64_t>(solver_.num_vars()) - v0;
    stats_.clauses += static_cast<std::uint64_t>(solver_.num_clauses()) - c0;
}

void CircuitEncoder::add_difference(const std::vector<Var>& a,
                                    const std::vector<Var>& b) {
    if (a.size() != b.size())
        throw std::invalid_argument("CircuitEncoder: add_difference size mismatch");
    std::vector<Lit> al;
    std::vector<Lit> bl;
    al.reserve(a.size());
    bl.reserve(b.size());
    for (const Var v : a) al.push_back(Lit(v, false));
    for (const Var v : b) bl.push_back(Lit(v, false));
    add_difference(al, bl);
}

}  // namespace gshe::sat

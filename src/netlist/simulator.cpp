#include "netlist/simulator.hpp"

#include <algorithm>
#include <stdexcept>
#include <type_traits>

#include "netlist/sim_plan.hpp"

namespace gshe::netlist {

void Simulator::check(std::span<const std::uint64_t> pi_words,
                      std::size_t n_words, const SimView& view) const {
    const Netlist& nl = *nl_;
    if (n_words == 0)
        throw std::invalid_argument("Simulator: n_words must be positive");
    if (pi_words.size() != nl.inputs().size() * n_words)
        throw std::invalid_argument("Simulator: wrong primary-input count");
    if (!view.dff_words.empty() &&
        view.dff_words.size() != nl.dffs().size() * n_words)
        throw std::invalid_argument("Simulator: wrong DFF state count");
    if (!view.overrides.empty() &&
        view.overrides.size() != nl.camo_cells().size())
        throw std::invalid_argument(
            "Simulator: one override per camouflaged cell required");
    if (!view.flip_masks.empty() &&
        view.flip_masks.size() != nl.camo_cells().size() * n_words)
        throw std::invalid_argument(
            "Simulator: one flip mask per camouflaged cell and word required");
}

std::span<const std::uint64_t> Simulator::execute(
    const SimPlan& plan, std::span<const std::uint64_t> pi_words,
    std::size_t n_words, const SimView& view) const {
    const Netlist& nl = *nl_;
    values_.assign(plan.value_slots * n_words, 0);
    std::uint64_t* v = values_.data();
    const std::vector<GateId>& inputs = nl.inputs();
    for (std::size_t i = 0; i < inputs.size(); ++i)
        std::copy_n(pi_words.data() + i * n_words, n_words,
                    v + std::size_t{inputs[i]} * n_words);
    if (!view.dff_words.empty()) {
        const std::vector<GateId>& dffs = nl.dffs();
        for (std::size_t i = 0; i < dffs.size(); ++i)
            std::copy_n(view.dff_words.data() + i * n_words, n_words,
                        v + std::size_t{dffs[i]} * n_words);
    }
    for (const GateId id : plan.const_ones)
        std::fill_n(v + std::size_t{id} * n_words, n_words, ~std::uint64_t{0});

    const std::uint8_t* tt = plan.tt.data();
    if (!view.overrides.empty()) {
        tt_scratch_.assign(plan.tt.begin(), plan.tt.end());
        for (std::size_t k = 0; k < view.overrides.size(); ++k) {
            const std::uint32_t s = plan.camo_step[k];
            if (s != SimPlan::kNoStep)
                tt_scratch_[s] = view.overrides[k].truth_table();
        }
        tt = tt_scratch_.data();
    }

    const GateId* out = plan.out.data();
    const std::uint32_t* fa = plan.a.data();
    const std::uint32_t* fb = plan.b.data();
    // The one step body. `nw` is the word count: a compile-time 1 for
    // single-word sweeps, so their inner loop folds away.
    const auto run_steps = [&](auto nw, std::size_t begin, std::size_t end) {
        for (std::size_t s = begin; s < end; ++s) {
            const std::uint8_t t = tt[s];
            const std::uint64_t t0 = -static_cast<std::uint64_t>(t & 1u);
            const std::uint64_t t1 = -static_cast<std::uint64_t>((t >> 1) & 1u);
            const std::uint64_t t2 = -static_cast<std::uint64_t>((t >> 2) & 1u);
            const std::uint64_t t3 = -static_cast<std::uint64_t>((t >> 3) & 1u);
            const std::uint64_t* pa = v + std::size_t{fa[s]} * nw;
            const std::uint64_t* pb = v + std::size_t{fb[s]} * nw;
            std::uint64_t* po = v + std::size_t{out[s]} * nw;
            for (std::size_t w = 0; w < nw; ++w) {
                const std::uint64_t a = pa[w];
                const std::uint64_t b = pb[w];
                po[w] = (t0 & ~a & ~b) | (t1 & ~a & b) | (t2 & a & ~b) |
                        (t3 & a & b);
            }
        }
    };
    const auto run_segment = [&](std::size_t begin, std::size_t end) {
        if (n_words == 1)
            run_steps(std::integral_constant<std::size_t, 1>{}, begin, end);
        else
            run_steps(n_words, begin, end);
    };

    // Flips must land at the producing step so downstream consumers see the
    // corrupted word: run the steps in segments that end at each camo step,
    // in step order, and flip that step's words between segments.
    std::size_t next = 0;
    if (!view.flip_masks.empty()) {
        std::vector<std::uint32_t> cells;
        for (std::uint32_t k = 0; k < plan.camo_step.size(); ++k)
            if (plan.camo_step[k] != SimPlan::kNoStep) cells.push_back(k);
        std::sort(cells.begin(), cells.end(),
                  [&](std::uint32_t x, std::uint32_t y) {
                      return plan.camo_step[x] < plan.camo_step[y];
                  });
        for (const std::uint32_t k : cells) {
            const std::uint32_t s = plan.camo_step[k];
            run_segment(next, s + std::size_t{1});
            std::uint64_t* po = v + std::size_t{out[s]} * n_words;
            for (std::size_t w = 0; w < n_words; ++w)
                po[w] ^= view.flip_masks[k * n_words + w];
            next = s + std::size_t{1};
        }
    }
    run_segment(next, plan.steps());
    return {values_.data(), nl.size() * n_words};
}

std::span<const std::uint64_t> Simulator::sweep(
    std::span<const std::uint64_t> pi_words, std::size_t n_words,
    const SimView& view) const {
    check(pi_words, n_words, view);
    return execute(nl_->sim_plan(), pi_words, n_words, view);
}

std::vector<std::uint64_t> Simulator::run(std::span<const std::uint64_t> pi_words,
                                          std::size_t n_words,
                                          const SimView& view) const {
    const std::span<const std::uint64_t> values = sweep(pi_words, n_words, view);
    const std::vector<PortRef>& outputs = nl_->outputs();
    std::vector<std::uint64_t> out(outputs.size() * n_words);
    for (std::size_t o = 0; o < outputs.size(); ++o)
        std::copy_n(values.data() + std::size_t{outputs[o].gate} * n_words,
                    n_words, out.data() + o * n_words);
    return out;
}

std::span<const std::uint64_t> Simulator::sweep_frontier(
    std::span<const std::uint64_t> pi_words, std::size_t n_words) const {
    check(pi_words, n_words, {});
    return execute(nl_->frontier_plan(), pi_words, n_words, {});
}

std::vector<std::uint64_t> Simulator::run_reference(
    std::span<const std::uint64_t> pi_words, const SimView& view) const {
    check(pi_words, 1, view);
    const Netlist& nl = *nl_;

    std::vector<std::uint64_t> values(nl.size(), 0);
    for (std::size_t i = 0; i < pi_words.size(); ++i)
        values[nl.inputs()[i]] = pi_words[i];
    for (std::size_t i = 0; i < view.dff_words.size(); ++i)
        values[nl.dffs()[i]] = view.dff_words[i];

    for (GateId id : nl.topological_order()) {
        const Gate& g = nl.gate(id);
        switch (g.type) {
            case CellType::Input:
            case CellType::Dff:
                break;  // already seeded
            case CellType::Const0:
                values[id] = 0;
                break;
            case CellType::Const1:
                values[id] = ~std::uint64_t{0};
                break;
            case CellType::Logic: {
                const auto k = static_cast<std::size_t>(g.camo_index);
                const core::Bool2 fn =
                    (!view.overrides.empty() && g.camo_index >= 0)
                        ? view.overrides[k]
                        : g.fn;
                const std::uint64_t a = values[g.a];
                const std::uint64_t b = g.b == kNoGate ? 0 : values[g.b];
                std::uint64_t v = Simulator::eval_word(fn, a, b);
                if (!view.flip_masks.empty() && g.camo_index >= 0)
                    v ^= view.flip_masks[k];
                values[id] = v;
                break;
            }
        }
    }

    std::vector<std::uint64_t> out;
    out.reserve(nl.outputs().size());
    for (const PortRef& po : nl.outputs()) out.push_back(values[po.gate]);
    return out;
}

}  // namespace gshe::netlist

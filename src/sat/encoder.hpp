#pragma once
// Attack-encoding front end: one object that turns (camouflaged) netlists
// into CNF for the oracle-guided attacks. Three mechanisms stack:
//
//   (a) three-valued (constant/literal) propagation — constant inputs fold
//       through plain gates at encode time, so a gate whose value is
//       forced contributes no variable and no clause;
//   (b) structural hashing on (normalized truth table, input literals) —
//       the two miter copies and repeated agreement cones share
//       subformulas instead of duplicating them (input-polarity/
//       commutative/output-polarity normalization, AIG-style);
//   (c) key-cone reduction in add_agreements — the DIP input is fixed,
//       so the bit-parallel Simulator evaluates every gate outside
//       Netlist::key_cone() and only the key-dependent remainder is
//       encoded, with the simulated values injected as constants at the
//       cone frontier. Each agreement drops from O(|circuit|) to
//       O(|key cone|) variables.
//
// One shared constant variable serves every encode-time constant that still
// needs a literal (e.g. a primary output that folds).
//
// A camouflaged cell with candidate set {f_0..f_{k-1}} gets ceil(log2 k)
// key variables; each candidate's truth-table rows are guarded by
// "key == c", and unused key codes (k not a power of two) are forbidden
// outright. For the 16-function GSHE primitive the four key bits are the
// gate's truth table.
//
// The encoder is deterministic: the clause stream is a pure function of
// the call sequence, so campaigns keep the byte-identical
// CSV-across-threads/shards/resume contract.

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "netlist/netlist.hpp"
#include "sat/backend.hpp"

namespace gshe::sat {

/// Counters of what one encoder instance emitted and saved. vars/clauses
/// are measured as backend deltas around each public call; the
/// fold/hash/cone counters count the three mechanisms above. Rides
/// JSON/journal only — never the deterministic CSV.
struct EncoderStats {
    std::uint64_t vars = 0;     ///< solver variables created by this encoder
    std::uint64_t clauses = 0;  ///< clauses emitted by this encoder
    std::uint64_t gates_folded = 0;  ///< gates reduced to constants/aliases
    std::uint64_t hash_hits = 0;     ///< subformulas served from the hash
    std::uint64_t agreements = 0;       ///< observations x key vectors added
    std::uint64_t agreement_vars = 0;    ///< vars from agreements alone
    std::uint64_t agreement_clauses = 0; ///< clauses from agreements alone
    std::uint64_t cone_gates = 0;  ///< cone gates encoded across agreements
    std::uint64_t sim_gates = 0;   ///< gates replaced by simulation instead
};

/// Field-wise sums — an attack that builds several miters (Double DIP)
/// reports one combined counter set for its encoders and one for its
/// solvers.
void accumulate(EncoderStats& into, const EncoderStats& from);
void accumulate(SolverStats& into, const SolverStats& from);

/// Variable/literal map of one circuit instance. Outputs are literals: an
/// output may fold to a constant or to the complement of an internal node.
struct Encoding {
    std::vector<Var> pis;   ///< one var per primary input (netlist order)
    std::vector<Lit> outs;  ///< one literal per primary output
    std::vector<Var> keys;  ///< key vars, concatenated per camo cell
    /// Offset of each camo cell's key bits within `keys`.
    std::vector<int> key_offset;
};

/// The encoder, bound to one backend for its lifetime. Hash/constant state
/// persists across calls — sound for incremental solving because gate
/// definitions are monotone (re-encoding would only re-add the identical
/// clauses) — which is exactly what lets miter copies and agreement cones
/// share structure.
class CircuitEncoder {
public:
    explicit CircuitEncoder(SolverBackend& solver);

    const EncoderStats& stats() const { return stats_; }

    /// Encodes one instance of `nl`. A non-empty `shared_pis` lists one
    /// existing variable per primary input for the instance to reuse (the
    /// miter copies share their inputs); a non-empty `shared_keys` does the
    /// same for the key variables. The netlist must be combinational (use
    /// unroll_for_scan first).
    Encoding encode(const netlist::Netlist& nl,
                    const std::vector<Var>& shared_pis = {},
                    const std::vector<Var>& shared_keys = {});

    /// For each observation i and each key vector in `keys_list`, in that
    /// (pattern-major) order, adds the agreement constraint "the key
    /// selected by the vector must map input xs[i] to oracle response
    /// ys[i]": simulate outside the key cone, encode only the cone with
    /// frontier constants; a non-cone output that contradicts ys[i]
    /// falsifies the formula outright (the stochastic-oracle inconsistency
    /// case). Up to 16 x 64 observations share one cone-restricted
    /// Simulator sweep; the clause stream is that of encoding each
    /// (observation, key vector) pair in turn, however the observations
    /// are split across calls.
    void add_agreements(const netlist::Netlist& nl,
                        const std::vector<std::vector<Var>>& keys_list,
                        const std::vector<std::vector<bool>>& xs,
                        const std::vector<std::vector<bool>>& ys);

    /// Constrains vectors a and b to differ in at least one position.
    void add_difference(const std::vector<Lit>& a, const std::vector<Lit>& b);
    /// Same over raw variables (key vectors).
    void add_difference(const std::vector<Var>& a, const std::vector<Var>& b);

    /// Guarded form: every emitted difference clause is routed through the
    /// selector literal `guard` (each gets ~guard appended), so the
    /// constraint is active under assumption {guard} and vacuous under
    /// {~guard}. This is what lets an attack solve DIP iterations and
    /// extract keys on the same solver: the miter's difference is engaged
    /// per solve, never baked in. A provably-equal pair emits the unit
    /// clause {~guard} instead of falsifying the formula at the root.
    void add_difference(const std::vector<Lit>& a, const std::vector<Lit>& b,
                        Lit guard);

    /// The shared constant literal of the given polarity. One variable per
    /// encoder serves both polarities (fixed true once, on first use).
    Lit constant(bool value);

private:
    /// Encode-time value: a literal or a known constant.
    struct XLit {
        // code >= 0: a Lit code; kTrue/kFalse: constants.
        static constexpr std::int32_t kTrue = -1;
        static constexpr std::int32_t kFalse = -2;
        std::int32_t code = kFalse;

        static XLit constant(bool v) { return {v ? kTrue : kFalse}; }
        static XLit lit(Lit l) { return {static_cast<std::int32_t>(l.code())}; }
        bool is_const() const { return code < 0; }
        bool const_value() const { return code == kTrue; }
        Lit as_lit() const { return Lit::from_code(code); }
        XLit negated() const {
            if (is_const()) return constant(!const_value());
            return lit(~as_lit());
        }
        bool operator==(const XLit&) const = default;
    };

    struct PlainKey {
        Var a = kNoVar;
        Var b = kNoVar;
        std::uint8_t tt = 0;
        bool operator==(const PlainKey&) const = default;
    };
    struct PlainKeyHash {
        std::size_t operator()(const PlainKey& k) const {
            std::uint64_t h = 0x9e3779b97f4a7c15ULL;
            h = (h ^ static_cast<std::uint64_t>(k.a)) * 0x100000001b3ULL;
            h = (h ^ static_cast<std::uint64_t>(k.b)) * 0x100000001b3ULL;
            h = (h ^ k.tt) * 0x100000001b3ULL;
            return static_cast<std::size_t>(h);
        }
    };

    XLit encode_fn(core::Bool2 fn, XLit a, XLit b);
    XLit encode_camo(const netlist::CamoCell& cell, XLit a, XLit b,
                     bool has_b, std::span<const Var> key_bits);
    XLit unary_of(XLit x, bool f0, bool f1);
    XLit xlit_of(Lit l) const;
    Lit realize(XLit x);
    /// Falsifies the formula at the root (empty clause).
    void contradict();

    /// One agreement of add_agreements: encodes the key cone under `keys`
    /// (each camo cell's bits at its `key_offset`), reading the simulated
    /// `values` (one per gate, valid at the frontier read set) outside it;
    /// `val` is the caller's per-gate scratch. Counts cone and simulated
    /// gates; the caller counts vars, clauses and agreements.
    void encode_agreement(const netlist::Netlist& nl,
                          std::span<const Var> keys,
                          std::span<const int> key_offset,
                          const std::vector<bool>& y,
                          std::span<const char> values,
                          std::vector<XLit>& val);
    void add_difference_impl(const std::vector<Lit>& a,
                             const std::vector<Lit>& b,
                             std::optional<Lit> guard);

    SolverBackend& solver_;
    EncoderStats stats_;

    std::unordered_map<PlainKey, Var, PlainKeyHash> plain_hash_;
    std::unordered_map<std::string, std::int32_t> camo_hash_;
    std::unordered_set<std::string> forbidden_done_;
    Var const_var_ = kNoVar;
    Clause clause_;  ///< encode_camo's reused clause buffer
};

}  // namespace gshe::sat

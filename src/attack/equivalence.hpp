#pragma once
// SAT-based combinational equivalence checking — used to score attack
// outcomes exactly (is the recovered key's circuit the original function?)
// and as the ground truth behind the protection passes' correctness tests.

#include <optional>
#include <vector>

#include "camo/key.hpp"
#include "netlist/netlist.hpp"
#include "sat/backend.hpp"

namespace gshe::attack {

enum class EquivStatus { Equivalent, Different, Unknown };

struct EquivResult {
    EquivStatus status = EquivStatus::Unknown;
    /// For Different: an input assignment on which the circuits disagree.
    std::optional<std::vector<bool>> counterexample;
};

/// Checks whether two plain combinational netlists (same input/output
/// counts, matched by position) are functionally equivalent. The miter is
/// built by the CNF encoder (sat/encoder.hpp) and solved by the in-tree
/// CDCL solver.
EquivResult check_equivalence(const netlist::Netlist& a,
                              const netlist::Netlist& b,
                              double timeout_seconds = 60.0,
                              const sat::SolverOptions& opts = {});

/// Checks whether `camo_nl` under `key` equals its own true functionality.
EquivResult check_key_equivalence(const netlist::Netlist& camo_nl,
                                  const camo::Key& key,
                                  double timeout_seconds = 60.0,
                                  const sat::SolverOptions& opts = {});

}  // namespace gshe::attack

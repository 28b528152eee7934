#pragma once
// SARLock-class point-function protection (Yasin et al., HOST 2016 [6]) —
// the "provably secure" baseline the paper positions its large-scale
// camouflaging against (Sec. V-A: large-scale GSHE camouflaging "can be
// indeed on par with provably secure schemes").
//
// Construction (camouflaged formulation): pick m protected input bits and
// a secret constant c*. Each key bit c_i is a camouflaged constant cell
// cloaking {FALSE, TRUE} (trivially within the GSHE primitive's function
// space). A comparator recognizes x == c, a disable term recognizes
// c != c* (key bits against hardwired constants), and one output is XORed
// with flip = (x == c) AND (c != c*):
//
//   * correct key (c = c*): the flip is disabled for every input;
//   * wrong key: the output is wrong on exactly one input pattern (x = c).
//
// Every DIP therefore eliminates O(1) keys and the SAT attack needs
// ~2^m iterations — exponential in m by construction, but with a *flat*
// per-iteration cost. The ext_sarlock_scaling bench contrasts this
// with GSHE-16 camouflaging, where DIP counts stay small but each miter
// solve explodes — two different roads to attack intractability.

#include <cstdint>

#include "camo/key.hpp"
#include "camo/protect.hpp"
#include "netlist/netlist.hpp"

namespace gshe::camo {

/// Applies SARLock-style protection over the first m_bits inputs of a copy
/// of `nl`, flipping its first primary output. The returned Protection's
/// camo cells are the m INV/BUF constant cells; the true key encodes c*.
/// Throws std::invalid_argument, naming both counts, when `nl` has fewer
/// than m_bits primary inputs.
Protection apply_sarlock(const netlist::Netlist& nl, int m_bits,
                         std::uint64_t seed);

}  // namespace gshe::camo

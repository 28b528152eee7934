#pragma once
// Camouflaged-cell libraries: the proposed GSHE primitive and the prior art
// it is benchmarked against in Table IV. Each library is a set of cloakable
// Boolean functions plus an insertion style:
//
//  * FunctionSet — the selected gate itself becomes a camouflaged cell whose
//    function is hidden among the candidates (requires the gate's true
//    function to be a member; the Table IV study selects NAND/NOR gates,
//    which every function-set library below contains).
//  * WireInsertion — the INV/BUF-style primitives ([24, c], [35]) cannot
//    replace a two-input gate; instead a camouflaged inverter-or-buffer is
//    inserted at the gate output (complementing the gate's function when the
//    true cell is an inverter, which keeps the circuit equivalent while
//    randomizing the true key).
//
// Column mapping to Table IV (cloaked-function counts in parentheses):
//   rajendran13 (3), nirmala16_winograd16 (6), bi16_sinw (4),
//   alasad17c_zhang16 (2), zhang15_alasad17a (4), parveen17_dwm (7+1),
//   gshe16 = this work (16). stt_lut16 is the Sec. II cost-constrained
//   LUT study ([25]): a full 2-LUT (16 functions) applied to very few gates.

#include <string>
#include <vector>

#include "core/boolean_function.hpp"

namespace gshe::camo {

enum class InsertionStyle { FunctionSet, WireInsertion };

struct CellLibrary {
    std::string name;       ///< short id used in reports ("gshe16", ...)
    std::string citation;   ///< paper column label ("[2]", "Our", ...)
    std::vector<core::Bool2> functions;
    InsertionStyle style = InsertionStyle::FunctionSet;

    int function_count() const { return static_cast<int>(functions.size()); }
    bool contains(core::Bool2 f) const;
};

/// Rajendran et al., CCS 2013 [2]: look-alike NAND/NOR/XOR.
const CellLibrary& rajendran13();
/// Nirmala et al. ETS 2016 [3] / Winograd et al. DAC 2016 [25] threshold-
/// dependent cells: NAND/NOR/XOR/XNOR/AND/OR.
const CellLibrary& nirmala16_winograd16();
/// Bi et al., JETC 2016 [19] SiNW camouflaging primitive (4 functions).
const CellLibrary& bi16_sinw();
/// Alasad et al. GLSVLSI 2017 [24, c] ASL INV/BUF / Zhang TVLSI 2016 [35].
const CellLibrary& alasad17c_zhang16();
/// Zhang et al. DATE 2015 [23] GSHE logic / Alasad [24, a] ASL:
/// AND/OR/NAND/NOR.
const CellLibrary& zhang15_alasad17a();
/// Parveen et al. ISVLSI 2017 [20] DWM polymorphic gate (7 + BUF).
const CellLibrary& parveen17_dwm();
/// This work: the GSHE primitive cloaking all 16 two-input functions.
const CellLibrary& gshe16();
/// Winograd et al. [25] STT-LUT reconfigurable cell (full 2-input LUT).
const CellLibrary& stt_lut16();

/// The seven Table IV columns, in the paper's column order.
const std::vector<CellLibrary>& table4_libraries();

/// Nested cloaked-function subsets ("ablation_k2" ... "ablation_k16") for
/// the function-count ablation: each rung adds functions to the previous
/// one and every rung contains NAND and NOR, so one memorized NAND/NOR
/// selection serves all rungs. Supported k: 2, 3, 4, 6, 8, 16; throws
/// std::invalid_argument otherwise.
const CellLibrary& ablation_library(int k);

/// Lookup by short id (the Table IV names, "stt_lut16", and the
/// "ablation_k<k>" rungs). Throws on unknown name.
const CellLibrary& library_by_name(const std::string& name);

/// The short ids library_by_name() resolves, in lookup order.
std::vector<std::string> library_names();

}  // namespace gshe::camo

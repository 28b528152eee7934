#include "camo/cell_library.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>

namespace gshe::camo {

using core::Bool2;

bool CellLibrary::contains(core::Bool2 f) const {
    return std::find(functions.begin(), functions.end(), f) != functions.end();
}

const CellLibrary& rajendran13() {
    static const CellLibrary lib{
        "rajendran13",
        "[2]",
        {Bool2::NAND(), Bool2::NOR(), Bool2::XOR()},
        InsertionStyle::FunctionSet};
    return lib;
}

const CellLibrary& nirmala16_winograd16() {
    static const CellLibrary lib{
        "nirmala16_winograd16",
        "[3],[25]",
        {Bool2::NAND(), Bool2::NOR(), Bool2::XOR(), Bool2::XNOR(), Bool2::AND(),
         Bool2::OR()},
        InsertionStyle::FunctionSet};
    return lib;
}

const CellLibrary& bi16_sinw() {
    // [19] demonstrated SiNW camouflaged NAND/NOR and XOR/XNOR cell pairs;
    // the four-function camouflaging primitive referenced by Table IV
    // (footnote: "the camouflaging primitive, not the polymorphic gate") is
    // modeled as their union.
    static const CellLibrary lib{
        "bi16_sinw",
        "[19]",
        {Bool2::NAND(), Bool2::NOR(), Bool2::XOR(), Bool2::XNOR()},
        InsertionStyle::FunctionSet};
    return lib;
}

const CellLibrary& alasad17c_zhang16() {
    static const CellLibrary lib{
        "alasad17c_zhang16",
        "[24, c],[35]",
        {Bool2::A(), Bool2::NOT_A()},  // BUF / INV
        InsertionStyle::WireInsertion};
    return lib;
}

const CellLibrary& zhang15_alasad17a() {
    static const CellLibrary lib{
        "zhang15_alasad17a",
        "[23],[24, a]",
        {Bool2::AND(), Bool2::OR(), Bool2::NAND(), Bool2::NOR()},
        InsertionStyle::FunctionSet};
    return lib;
}

const CellLibrary& parveen17_dwm() {
    // 7 functions plus BUF ("‡ here we also assume BUF to be available").
    static const CellLibrary lib{
        "parveen17_dwm",
        "[20]",
        {Bool2::NAND(), Bool2::NOR(), Bool2::XOR(), Bool2::XNOR(), Bool2::AND(),
         Bool2::OR(), Bool2::NOT_A(), Bool2::A()},
        InsertionStyle::FunctionSet};
    return lib;
}

const CellLibrary& gshe16() {
    static const CellLibrary lib = [] {
        CellLibrary l;
        l.name = "gshe16";
        l.citation = "Our";
        for (Bool2 f : Bool2::all()) l.functions.push_back(f);
        l.style = InsertionStyle::FunctionSet;
        return l;
    }();
    return lib;
}

const CellLibrary& stt_lut16() {
    static const CellLibrary lib = [] {
        CellLibrary l = gshe16();
        l.name = "stt_lut16";
        l.citation = "[25] STT-LUT";
        return l;
    }();
    return lib;
}

const std::vector<CellLibrary>& table4_libraries() {
    static const std::vector<CellLibrary> libs = {
        rajendran13(),       nirmala16_winograd16(), bi16_sinw(),
        alasad17c_zhang16(), zhang15_alasad17a(),    parveen17_dwm(),
        gshe16()};
    return libs;
}

const CellLibrary& ablation_library(int k) {
    static const std::vector<CellLibrary> rungs = [] {
        // Bool2::all() returns its array by value; materialize it once
        // before taking iterators.
        const std::array<Bool2, 16> all16 = Bool2::all();
        const std::vector<std::pair<int, std::vector<Bool2>>> ladder = {
            {2, {Bool2::NAND(), Bool2::NOR()}},
            {3, {Bool2::NAND(), Bool2::NOR(), Bool2::XOR()}},
            {4, {Bool2::NAND(), Bool2::NOR(), Bool2::XOR(), Bool2::XNOR()}},
            {6,
             {Bool2::NAND(), Bool2::NOR(), Bool2::XOR(), Bool2::XNOR(),
              Bool2::AND(), Bool2::OR()}},
            {8,
             {Bool2::NAND(), Bool2::NOR(), Bool2::XOR(), Bool2::XNOR(),
              Bool2::AND(), Bool2::OR(), Bool2::NOT_A(), Bool2::A()}},
            {16, {all16.begin(), all16.end()}},
        };
        std::vector<CellLibrary> libs;
        for (const auto& [n, fns] : ladder) {
            CellLibrary lib;
            lib.name = "ablation_k" + std::to_string(n);
            lib.citation = "k=" + std::to_string(n);
            lib.functions = fns;
            lib.style = InsertionStyle::FunctionSet;
            libs.push_back(std::move(lib));
        }
        return libs;
    }();
    for (const CellLibrary& lib : rungs)
        if (lib.function_count() == k) return lib;
    throw std::invalid_argument("ablation_library: unsupported k " +
                                std::to_string(k));
}

namespace {

/// Every library library_by_name() resolves, in lookup order.
const std::vector<const CellLibrary*>& named_libraries() {
    static const std::vector<const CellLibrary*> libs = [] {
        std::vector<const CellLibrary*> v;
        for (const CellLibrary& lib : table4_libraries()) v.push_back(&lib);
        v.push_back(&stt_lut16());
        for (const int k : {2, 3, 4, 6, 8, 16}) v.push_back(&ablation_library(k));
        return v;
    }();
    return libs;
}

}  // namespace

const CellLibrary& library_by_name(const std::string& name) {
    for (const CellLibrary* lib : named_libraries())
        if (lib->name == name) return *lib;
    throw std::invalid_argument("library_by_name: unknown library " + name);
}

std::vector<std::string> library_names() {
    std::vector<std::string> names;
    for (const CellLibrary* lib : named_libraries()) names.push_back(lib->name);
    return names;
}

}  // namespace gshe::camo

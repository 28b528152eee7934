#pragma once
// DIMACS CNF import/export, kept as a debugging aid: a formula can be
// written out for an external solver, or read back and loaded into the
// in-tree one.

#include <iosfwd>
#include <string>
#include <vector>

#include "sat/backend.hpp"
#include "sat/types.hpp"

namespace gshe::sat {

/// A standalone CNF formula (1-based DIMACS variable numbering kept
/// internally 0-based).
struct CnfFormula {
    int num_vars = 0;
    std::vector<Clause> clauses;
};

/// Parses DIMACS text ("p cnf V C" header plus zero-terminated clauses).
/// Throws std::runtime_error on malformed input: non-cnf formats, headers
/// with the wrong arity ("p cnf 3"), or a clause missing its 0 terminator.
CnfFormula read_dimacs(std::istream& in);
CnfFormula read_dimacs_string(const std::string& text);

/// Writes DIMACS text.
void write_dimacs(std::ostream& out, const CnfFormula& f);

/// Loads a formula into a solver backend (creates vars 0..num_vars-1).
/// Returns false if the formula is trivially unsatisfiable during load.
bool load_into_solver(const CnfFormula& f, SolverBackend& solver);

}  // namespace gshe::sat

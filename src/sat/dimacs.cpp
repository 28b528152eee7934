#include "sat/dimacs.hpp"

#include <cstdlib>
#include <sstream>
#include <stdexcept>

namespace gshe::sat {

CnfFormula read_dimacs(std::istream& in) {
    CnfFormula f;
    std::string tok;
    int expected_clauses = -1;
    Clause current;
    while (in >> tok) {
        if (tok == "c") {
            std::string rest;
            std::getline(in, rest);
            continue;
        }
        if (tok == "p") {
            // The header is line-scoped: parse the remainder of its line so
            // a wrong-arity header ("p cnf 3") cannot silently swallow the
            // first clause token as its clause count.
            std::string rest;
            std::getline(in, rest);
            std::istringstream header(rest);
            std::string fmt;
            header >> fmt;
            if (fmt != "cnf")
                throw std::runtime_error("dimacs: unsupported format " + fmt);
            if (!(header >> f.num_vars >> expected_clauses))
                throw std::runtime_error(
                    "dimacs: malformed header (expected \"p cnf V C\")");
            if (f.num_vars < 0 || expected_clauses < 0)
                throw std::runtime_error("dimacs: negative header counts");
            continue;
        }
        const int v = std::stoi(tok);
        if (v == 0) {
            f.clauses.push_back(current);
            current.clear();
        } else {
            const Var var = std::abs(v) - 1;
            if (var >= f.num_vars) f.num_vars = var + 1;
            current.push_back(Lit(var, v < 0));
        }
    }
    if (!current.empty())
        throw std::runtime_error("dimacs: clause not zero-terminated");
    return f;
}

CnfFormula read_dimacs_string(const std::string& text) {
    std::istringstream in(text);
    return read_dimacs(in);
}

void write_dimacs(std::ostream& out, const CnfFormula& f) {
    out << "p cnf " << f.num_vars << ' ' << f.clauses.size() << '\n';
    for (const Clause& c : f.clauses) {
        for (Lit l : c) out << (l.negated() ? -(l.var() + 1) : l.var() + 1) << ' ';
        out << "0\n";
    }
}

bool load_into_solver(const CnfFormula& f, SolverBackend& solver) {
    while (solver.num_vars() < f.num_vars) solver.new_var();
    for (const Clause& c : f.clauses)
        if (!solver.add_clause(c)) return false;
    return true;
}

}  // namespace gshe::sat

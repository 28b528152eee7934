#include "sat/backend.hpp"

#include <stdexcept>

#include "sat/solver.hpp"

namespace gshe::sat {

std::unique_ptr<SolverBackend> make_backend(const std::string& name,
                                            const SolverOptions& opts) {
    if (name != "internal")
        throw std::invalid_argument("unknown solver backend: " + name +
                                    " (the only backend is internal)");
    return std::make_unique<Solver>(opts);
}

}  // namespace gshe::sat

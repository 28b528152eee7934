#pragma once
// DefenseFactory: every protection scheme of the paper's study behind one
// configuration struct, so campaign job matrices can treat "which defense"
// as data.
//
// A defense is more than a netlist transformation — the Sec. V-B stochastic
// regime and the Sec. V-C runtime polymorphism live in the *oracle*, not in
// the netlist. A DefenseInstance therefore bundles the protected netlist,
// the defender's ground-truth key, and the oracle an attacker would face:
//
//   camo         static camouflaging (Sec. V-A): select + apply a cell
//                library, exact oracle
//   delay_aware  zero-overhead hybrid (Sec. V-A industrial study): slack-
//                driven gate selection, exact oracle
//   sarlock      SARLock-class point-function baseline [6], exact oracle
//   stochastic   static camouflaging queried through devices at tunable
//                accuracy (Sec. V-B)
//   dynamic      static camouflaging with periodic re-keying (Sec. V-C /
//                Koteshwara-style dynamic protection)

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "attack/oracle.hpp"
#include "camo/key.hpp"
#include "netlist/netlist.hpp"

namespace gshe::engine {

struct DefenseConfig {
    /// One of DefenseFactory::kinds(): "camo", "delay_aware", "sarlock",
    /// "stochastic", "dynamic".
    std::string kind = "camo";
    /// Camouflaged-cell library (all kinds except sarlock).
    std::string library = "gshe16";
    /// Protected fraction of logic gates (camo/stochastic/dynamic; upper
    /// cap for delay_aware where slack decides).
    double fraction = 0.10;
    /// SARLock: number of protected input bits (DIP count ~ 2^m).
    int sarlock_bits = 4;
    /// Stochastic: per-device evaluation accuracy in (0, 1].
    double accuracy = 0.95;
    /// Dynamic: oracle queries per re-keying epoch.
    std::uint64_t rekey_interval = 64;
    /// Dynamic: fraction of cells scrambled in a scrambled epoch.
    double scramble_frac = 0.5;
    /// Dynamic: fraction of epochs running the true functionality.
    double duty_true = 0.5;
    /// When set, overrides the job-derived seed for gate selection and
    /// camouflage application (oracle noise still follows the job seed).
    /// The Table IV methodology needs this: "gates are randomly selected
    /// once for each benchmark, memorized, and then reapplied across all
    /// techniques" — i.e. the same selection for every library column.
    std::optional<std::uint64_t> protect_seed;

    /// Deterministic short description, e.g. "camo:gshe16@10%",
    /// "sarlock:m4", "stochastic:gshe16@10%~0.95". Used as the report key.
    std::string label() const;
};

/// A built defense: the protected netlist plus the oracle the attacker
/// queries. The netlist is heap-held so the instance can be moved while the
/// oracle keeps pointing into it.
struct DefenseInstance {
    std::string label;
    std::unique_ptr<netlist::Netlist> netlist;
    camo::Key true_key;
    std::size_t protected_cells = 0;
    int key_bits = 0;
    std::unique_ptr<attack::Oracle> oracle;
};

class DefenseFactory {
public:
    /// Builds `config` over a copy of `base`. All randomness (gate
    /// selection, camouflage application, oracle noise) derives from `seed`.
    /// Throws std::invalid_argument on unknown kind/library.
    static DefenseInstance build(const netlist::Netlist& base,
                                 const DefenseConfig& config,
                                 std::uint64_t seed);

    /// True when build() creates a stateless, seed-free oracle (the
    /// ExactOracle kinds: camo, delay_aware, sarlock): such an instance can
    /// be built once and shared by every job whose netlist-build seed
    /// matches. Stochastic and rekeying oracles consume per-job seeded
    /// state (an RNG stream, a query-counted epoch clock), so sharing one
    /// across jobs would let scheduling leak between their results.
    static bool shareable_oracle(const DefenseConfig& config);

    /// True when build()'s oracle answers seed-free until its first
    /// re-keying boundary (dynamic): camo::RekeyingOracle answers every
    /// epoch-0 query with the true cell functions and first draws on its
    /// seed when it crosses into epoch 1. Two jobs that attack the same
    /// netlist with the same seed-free attack therefore ask the same
    /// queries and get the same answers for as long as the first job stays
    /// in epoch 0: the engine may copy that job's result to the other
    /// (engine::result_leaders), but only once it has finished with
    /// JobResult::oracle_epochs == 0.
    static bool seed_free_until_rekey(const DefenseConfig& config);

    /// The supported kind strings, in documentation order.
    static const std::vector<std::string>& kinds();
};

/// Identity of the protected netlist a job attacks: a hash of the circuit,
/// the full defense configuration and the netlist-build seed the factory
/// will actually use (DefenseConfig::protect_seed when set, else the job's
/// derived seed). Jobs with equal values build byte-identical netlists and
/// true keys; their oracles are equal too unless the kind seeds its oracle
/// per job (stochastic, dynamic).
std::uint64_t netlist_fingerprint(const std::string& circuit,
                                  const DefenseConfig& config,
                                  std::uint64_t derived_seed);

/// Identity of the whole defense instance a job attacks, oracle included.
/// For shareable_oracle() configs it is netlist_fingerprint(): jobs with
/// equal fingerprints would build byte-identical DefenseInstances, so the
/// campaign engine builds one per fingerprint and shares it. For the other
/// configs the job's plan index and derived seed are mixed in, forcing a
/// singleton group — the instance is still built through the same path,
/// just never shared.
std::uint64_t defense_fingerprint(const std::string& circuit,
                                  const DefenseConfig& config,
                                  std::uint64_t derived_seed,
                                  std::size_t job_index);

}  // namespace gshe::engine

// perfbench — the repository benchmark's measuring harness. perfbench/run.py
// builds it and forwards its own flags:
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--scratch DIR] [--spans PATH] [--digest-file PATH]
//
// A workload is a fixed campaign job matrix run through the public engine
// API (plan_jobs, CampaignRunner::run). Workloads set only the matrix, the
// thread count, the conflict budget, a wall-clock timeout that never binds,
// protect_seed and the oracle-cache policy; every encoder, extraction,
// DIP-support, backend and inprocessing choice is left at the library
// default, so the benchmark measures what a user gets.
//
// --seed is a replicate index: every seed runs the same plan under the
// engine's default campaign seed, so all seeds do the same search work and
// yield the same deterministic CSV. It seeds only the oracle probe's
// patterns.
//
// --trace 0 times set-up and whole campaigns and prints the end-to-end
// metrics. --trace 1 adds one traced campaign (timed netlist provider, a
// job-completion collector) and timed probes into the netlist, attack and
// sat layers, prints the per-layer metrics and writes the spans to --spans.
//
// Correctness gate: a job that errors, an exact attack on a deterministic
// oracle that succeeds with a non-exact key, a journal that does not hold
// one record per clean job, or a deterministic CSV whose digest differs
// between the run's campaigns or from the digest recorded in --digest-file
// (by an earlier run of the same code) makes the run print
// "correct": false and exit 1.
//
// The last line of stdout is one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "attack/oracle_service.hpp"
#include "common/parse.hpp"
#include "common/report.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "engine/campaign.hpp"
#include "engine/checkpoint.hpp"
#include "engine/defense.hpp"
#include "metrics.hpp"
#include "netlist/corpus.hpp"
#include "sat/backend.hpp"
#include "sat/encoder.hpp"

using namespace gshe;
using perfbench::Outcome;

namespace {

// ---- workloads --------------------------------------------------------------

struct Workload {
    std::string name;
    std::vector<engine::JobSpec> specs;
    int threads = 1;
    engine::OracleCacheMode cache = engine::OracleCacheMode::Auto;
    bool journal = false;  ///< append every finished job to a checkpoint journal
};

engine::DefenseConfig defense(const std::string& kind,
                              std::optional<std::uint64_t> protect_seed = {}) {
    engine::DefenseConfig d;
    d.kind = kind;
    d.fraction = 0.05;
    d.sarlock_bits = 4;
    d.accuracy = 0.95;
    d.protect_seed = protect_seed;
    return d;
}

attack::AttackOptions budget(std::uint64_t max_conflicts) {
    attack::AttackOptions o;
    o.max_conflicts = max_conflicts;
    o.timeout_seconds = 3600.0;  // never binds: the conflict cap decides t-o
    return o;
}

std::vector<std::uint64_t> seeds_1_to(std::uint64_t n) {
    std::vector<std::uint64_t> s;
    for (std::uint64_t i = 1; i <= n; ++i) s.push_back(i);
    return s;
}

/// The workloads; why each exists is recorded in BENCHMARK.json and
/// README.md. std::nullopt for an unknown name.
std::optional<Workload> make_workload(const std::string& name) {
    using engine::CampaignRunner;
    Workload w;
    w.name = name;
    if (name == "table4_default") {
        // run_campaign's default 24-job matrix.
        w.specs = CampaignRunner::cross_product(
            {"ex1010", "c7552"},
            {defense("camo"), defense("sarlock"), defense("stochastic")},
            {"sat", "double_dip"}, seeds_1_to(2), budget(50000));
    } else if (name == "superblue_first_dip") {
        w.specs = CampaignRunner::cross_product(
            {"sb1", "sb5", "sb10"}, {defense("camo")}, {"sat"}, seeds_1_to(1),
            budget(5000));
    } else if (name == "shared_parallel") {
        w.specs = CampaignRunner::cross_product(
            {"ex1010", "c7552"},
            {defense("camo", 7), defense("sarlock", 7), defense("dynamic", 7)},
            {"sat", "appsat"}, seeds_1_to(8), budget(50000));
        w.threads = 3;
        w.cache = engine::OracleCacheMode::On;
        w.journal = true;
    } else {
        return std::nullopt;
    }
    return w;
}

// ---- small helpers ----------------------------------------------------------

double cpu_seconds() {
    rusage u{};
    getrusage(RUSAGE_SELF, &u);
    const auto sec = [](const timeval& t) {
        return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
    };
    return sec(u.ru_utime) + sec(u.ru_stime);
}

double peak_rss_mb() {
    rusage u{};
    getrusage(RUSAGE_SELF, &u);
    return static_cast<double>(u.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

/// Timings of one set-up: everything the plan's jobs need before an attack
/// can start.
struct SetupTimes {
    double plan_s = 0.0;
    double netlist_s = 0.0;
    double defense_s = 0.0;
    double prewarm_s = 0.0;
    double total_s = 0.0;
    std::uint64_t gates = 0;     ///< logic gates over distinct circuits
    std::uint64_t key_bits = 0;  ///< key bits over distinct defense instances
};

/// The plan caches every attack reads. The engine also prewarms the caches
/// of the optional DIP-support and frontier-sweep paths; those are left out
/// so the benchmark keeps compiling when such paths are deleted.
void prewarm(const netlist::Netlist& nl) {
    (void)nl.topological_order();
    (void)nl.key_cone();
    (void)nl.sim_plan();
}

/// Builds what the engine builds, in its order: a netlist per distinct
/// circuit, then one defense instance (plan caches prewarmed) per sharing
/// group, and calls `visit(instance, circuit)` on each. Circuits are built
/// one at a time and instances dropped after the visit, so this never holds
/// more than one netlist and one instance.
template <typename Visit>
void for_each_instance(const engine::JobPlan& plan, SetupTimes& times,
                       Visit&& visit) {
    std::vector<std::string> circuits;
    for (const auto& job : plan.jobs)
        if (std::find(circuits.begin(), circuits.end(), job.spec.circuit) ==
            circuits.end())
            circuits.push_back(job.spec.circuit);
    for (const auto& circuit : circuits) {
        Timer t;
        const netlist::Netlist base = netlist::build_benchmark(circuit);
        times.netlist_s += t.seconds();
        times.gates += base.logic_gate_count();
        for (const auto& group : plan.groups) {
            const engine::PlannedJob& canonical = plan.jobs[group.id];
            if (canonical.spec.circuit != circuit) continue;
            t.reset();
            engine::DefenseInstance inst = engine::DefenseFactory::build(
                base, canonical.spec.defense, canonical.derived_seed);
            times.defense_s += t.seconds();
            t.reset();
            prewarm(*inst.netlist);
            times.prewarm_s += t.seconds();
            times.key_bits += static_cast<std::uint64_t>(inst.key_bits);
            visit(inst, circuit);
        }
    }
}

SetupTimes run_setup(const Workload& w, std::uint64_t campaign_seed,
                     engine::JobPlan& plan) {
    SetupTimes times;
    Timer total;
    Timer t;
    plan = engine::plan_jobs(w.specs, campaign_seed);
    times.plan_s = t.seconds();
    for_each_instance(plan, times,
                      [](const engine::DefenseInstance&, const std::string&) {});
    times.total_s = total.seconds();
    return times;
}

// ---- tracing ----------------------------------------------------------------

struct Span {
    int id = 0;
    int parent = 0;  ///< 0 = root
    std::string name;
    std::string label;
    double start = 0.0;  ///< seconds since the run started
    double end = 0.0;
};

/// In-memory span store; written once, at the end of the run.
struct Tracer {
    using clock = std::chrono::steady_clock;
    clock::time_point origin = clock::now();
    std::mutex mutex;  // guards spans and builds
    std::vector<Span> spans;
    /// Netlist builds seen by the timed provider, by calling thread, not yet
    /// attributed to a job.
    struct Build {
        std::thread::id thread;
        std::string circuit;
        double start = 0.0;
        double end = 0.0;
    };
    std::vector<Build> builds;

    double now() const {
        return std::chrono::duration<double>(clock::now() - origin).count();
    }
    int add(int parent, std::string name, std::string label, double start,
            double end) {
        const std::lock_guard<std::mutex> lock(mutex);
        Span s;
        s.id = static_cast<int>(spans.size()) + 1;
        s.parent = parent;
        s.name = std::move(name);
        s.label = std::move(label);
        s.start = start;
        s.end = end;
        spans.push_back(std::move(s));
        return spans.back().id;
    }

    /// The engine calls the provider from whichever worker builds a group.
    std::function<netlist::Netlist(const std::string&)> provider() {
        return [this](const std::string& circuit) {
            const double start = now();
            netlist::Netlist nl = netlist::build_benchmark(circuit);
            const double end = now();
            const std::lock_guard<std::mutex> lock(mutex);
            builds.push_back({std::this_thread::get_id(), circuit, start, end});
            return nl;
        };
    }

    /// Job completion, on the worker that ran the job: job span, and below
    /// it the netlist build this worker ran for it (if it built its group),
    /// the defense build between that build and the attack, and the attack.
    /// A worker runs one job at a time and the hook fires before it takes the
    /// next, so an unattributed build of this thread belongs to this job.
    /// The hook is serialized, so `end` may trail the job's true end.
    void on_job_done(int parent, const engine::JobResult& r) {
        const double end = now();
        const double start = end - r.job_seconds;
        const double attack_start = end - r.result.seconds;
        std::optional<Build> build;
        {
            const std::lock_guard<std::mutex> lock(mutex);
            for (auto it = builds.begin(); it != builds.end(); ++it)
                if (it->thread == std::this_thread::get_id()) {
                    build = *it;
                    builds.erase(it);
                    break;
                }
        }
        std::string label = r.circuit;
        label += ' ';
        label += r.defense;
        label += ' ';
        label += r.attack;
        label += " #";
        label += std::to_string(r.index);
        const int job = add(parent, "job", std::move(label), start, end);
        if (build) {
            add(job, "netlist.build", build->circuit, build->start, build->end);
            add(job, "camo.defense_build", r.defense, build->end, attack_start);
        }
        add(job, "attack.run", r.attack, attack_start, end);
    }

    std::string json(const std::string& workload, std::uint64_t seed) const {
        JsonWriter w;
        w.begin_object();
        w.key("workload");
        w.value(workload);
        w.key("seed");
        w.value(seed);
        w.key("spans");
        w.begin_array();
        for (const Span& s : spans) {
            w.begin_object();
            w.key("id");
            w.value(static_cast<std::int64_t>(s.id));
            w.key("parent");
            w.value(static_cast<std::int64_t>(s.parent));
            w.key("name");
            w.value(s.name);
            w.key("label");
            w.value(s.label);
            w.key("start");
            w.value_full(s.start);
            w.key("end");
            w.value_full(s.end);
            w.end_object();
        }
        w.end_array();
        w.end_object();
        return w.str() + "\n";
    }
};

// ---- campaign repetitions ---------------------------------------------------

struct Rep {
    engine::CampaignResult result;
    double wall_s = 0.0;
    double cpu_s = 0.0;
    std::uint64_t digest = 0;
};

/// One whole CampaignRunner::run over the plan, timed; traced when `tracer`
/// is set. A journaled workload writes a fresh checkpoint journal into
/// `scratch` and checks it holds one record per clean job.
Rep run_campaign(const Workload& w, const engine::JobPlan& plan,
                 const std::string& scratch, Tracer* tracer) {
    engine::CampaignOptions options;
    options.threads = w.threads;
    options.campaign_seed = plan.campaign_seed;
    options.oracle_cache = w.cache;
    if (w.journal) {
        options.checkpoint_path = scratch + "/" + w.name + ".journal.jsonl";
        options.resume_from_checkpoint = false;
    }
    const int root = tracer ? tracer->add(0, "workload", w.name, tracer->now(), 0.0) : 0;
    if (tracer) {
        options.netlist_provider = tracer->provider();
        options.on_job_done = [tracer, root](const engine::JobResult& r) {
            tracer->on_job_done(root, r);
        };
    }

    Rep rep;
    const double cpu0 = cpu_seconds();
    Timer t;
    rep.result = engine::CampaignRunner(options).run(plan);
    rep.wall_s = t.seconds();
    rep.cpu_s = cpu_seconds() - cpu0;
    if (tracer) {
        const std::lock_guard<std::mutex> lock(tracer->mutex);
        tracer->spans[static_cast<std::size_t>(root - 1)].end = tracer->now();
    }
    if (w.journal) {
        const std::size_t records =
            engine::checkpoint::load_journal(options.checkpoint_path).size();
        std::remove(options.checkpoint_path.c_str());
        const std::size_t clean = rep.result.jobs.size() - rep.result.errored();
        if (!rep.result.checkpoint_error.empty())
            throw std::runtime_error("journal failed: " + rep.result.checkpoint_error);
        if (records != clean)
            throw std::runtime_error("journal holds " + std::to_string(records) +
                                     " records for " + std::to_string(clean) +
                                     " clean jobs");
    }
    rep.digest = perfbench::csv_digest(rep.result);
    return rep;
}

// ---- probes -----------------------------------------------------------------

struct ProbeTotals {
    double oracle_s = 0.0;
    std::uint64_t oracle_patterns = 0;
    double encode_s = 0.0;
    double solve_s = 0.0;
    std::uint64_t propagations = 0;
    std::uint64_t conflicts = 0;
};

constexpr std::uint64_t kProbeConflicts = 1000;

/// Timed 64-lane oracle queries (at least 4, for at least 20 ms) over one
/// defense instance.
void probe_oracle(engine::DefenseInstance& inst, const std::string& label,
                  Rng& rng, ProbeTotals& p, Tracer& tracer, int parent) {
    std::vector<std::uint64_t> words(inst.netlist->inputs().size());
    const double start = tracer.now();
    Timer t;
    int calls = 0;
    while (calls < 4 || t.seconds() < 0.02) {
        for (auto& word : words) word = rng();
        (void)inst.oracle->query(words);
        ++calls;
    }
    p.oracle_s += t.seconds();
    p.oracle_patterns += 64u * static_cast<std::uint64_t>(calls);
    tracer.add(parent, "probe.oracle", label, start, tracer.now());
}

/// The first-DIP miter of one instance: two encodings sharing the primary
/// inputs with independent keys, outputs constrained to differ, solved on
/// the default backend under a fixed conflict cap.
void probe_sat(const engine::DefenseInstance& inst, const std::string& label,
               ProbeTotals& p, Tracer& tracer, int parent) {
    const double start = tracer.now();
    Timer t;
    const std::unique_ptr<sat::SolverBackend> solver =
        sat::make_backend("internal");
    sat::CircuitEncoder encoder(*solver);
    const sat::Encoding a = encoder.encode(*inst.netlist);
    const sat::Encoding b = encoder.encode(*inst.netlist, a.pis);
    encoder.add_difference(a.outs, b.outs);
    p.encode_s += t.seconds();
    const double solve_start = tracer.now();
    tracer.add(parent, "probe.sat.encode", label, start, solve_start);
    sat::SolverBudget cap;
    cap.max_conflicts = kProbeConflicts;
    solver->set_budget(cap);
    t.reset();
    (void)solver->solve();
    p.solve_s += t.seconds();
    p.propagations += solver->stats().propagations;
    p.conflicts += solver->stats().conflicts;
    tracer.add(parent, "probe.sat.solve", label, solve_start, tracer.now());
}

ProbeTotals run_probes(const engine::JobPlan& plan, std::uint64_t seed,
                       Tracer& tracer) {
    ProbeTotals p;
    SetupTimes ignored;
    Rng rng(seed);
    const int root = tracer.add(0, "probes", "", tracer.now(), 0.0);
    for_each_instance(plan, ignored,
                      [&](engine::DefenseInstance& inst, const std::string& circuit) {
                          const std::string label = circuit + " " + inst.label;
                          probe_oracle(inst, label, rng, p, tracer, root);
                          probe_sat(inst, label, p, tracer, root);
                      });
    tracer.spans[static_cast<std::size_t>(root - 1)].end = tracer.now();
    return p;
}

// ---- reporting --------------------------------------------------------------

struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
    JsonWriter w;
    w.begin_object();
    w.key("correct");
    w.value(correct);
    w.key("attempted");
    w.value(attempted);
    w.key("failed");
    w.value(failed);
    w.key("metrics");
    w.begin_object();
    for (const Metric& m : metrics) {
        w.key(m.name);
        w.begin_object();
        w.key("value");
        w.value_full(std::isfinite(m.value) ? m.value : 0.0);
        w.key("unit");
        w.value(m.unit);
        w.end_object();
    }
    w.end_object();
    w.end_object();
    std::printf("%s\n", w.str().c_str());
    std::fflush(stdout);
}

/// Gate state across every campaign the run executed.
struct Gate {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::optional<std::uint64_t> digest;
    bool digest_mismatch = false;

    void check(const Rep& rep, const char* which) {
        for (const auto& j : rep.result.jobs) {
            ++attempted;
            const Outcome o = perfbench::classify(j);
            if (!perfbench::is_failed(o)) continue;
            ++failed;
            std::fprintf(stderr, "perfbench: FAILED job #%zu %s %s %s seed=%llu: %s %s\n",
                         j.index, j.circuit.c_str(), j.defense.c_str(),
                         j.attack.c_str(),
                         static_cast<unsigned long long>(j.spec_seed),
                         perfbench::outcome_name(o), j.error.c_str());
        }
        if (!digest) {
            digest = rep.digest;
        } else if (*digest != rep.digest) {
            digest_mismatch = true;
            std::fprintf(stderr,
                         "perfbench: FAILED determinism: %s campaign CSV digest "
                         "%016llx differs from the first campaign's %016llx\n",
                         which, static_cast<unsigned long long>(rep.digest),
                         static_cast<unsigned long long>(*digest));
        }
    }

    /// Compares the run's digest with the one an earlier run of the same
    /// code recorded in `path`, and records it when there is none yet.
    void check_recorded(const std::string& path) {
        if (path.empty() || !digest) return;
        char mine[17];
        std::snprintf(mine, sizeof mine, "%016llx",
                      static_cast<unsigned long long>(*digest));
        std::string recorded;
        if (std::ifstream in(path); in >> recorded) {
            if (recorded == mine) return;
            digest_mismatch = true;
            std::fprintf(stderr,
                         "perfbench: FAILED determinism: campaign CSV digest %s "
                         "differs from the %s an earlier run of this code "
                         "recorded in %s\n",
                         mine, recorded.c_str(), path.c_str());
            return;
        }
        write_text_file(path, std::string(mine) + "\n");
    }
    bool correct() const { return failed == 0 && !digest_mismatch; }
};

struct Args {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string scratch = ".";
    std::string spans;
    std::string digest_file;
};

[[noreturn]] void usage_error(const std::string& what) {
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--scratch DIR] [--spans PATH] "
                 "[--digest-file PATH]\n"
                 "workloads: table4_default superblue_first_dip shared_parallel\n",
                 what.c_str());
    std::exit(2);
}

Args parse_args(int argc, char** argv) {
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc) usage_error("missing value for " + flag);
        const std::string value = argv[++i];
        if (flag == "--workload") {
            a.workload = value;
        } else if (flag == "--seed") {
            const auto v = parse_u64(value);
            if (!v) usage_error("--seed needs an unsigned integer");
            a.seed = *v;
        } else if (flag == "--seconds") {
            const auto v = parse_double(value);
            if (!v || *v <= 0.0) usage_error("--seconds needs a positive number");
            a.seconds = *v;
        } else if (flag == "--trace") {
            if (value != "0" && value != "1") usage_error("--trace is 0 or 1");
            a.trace = value == "1";
        } else if (flag == "--scratch") {
            a.scratch = value;
        } else if (flag == "--spans") {
            a.spans = value;
        } else if (flag == "--digest-file") {
            a.digest_file = value;
        } else {
            usage_error("unknown flag " + flag);
        }
    }
    if (a.workload.empty()) usage_error("--workload is required");
    return a;
}

void summarize(const Rep& rep, const char* which) {
    std::map<std::string, int> counts;
    for (const auto& j : rep.result.jobs)
        ++counts[perfbench::outcome_name(perfbench::classify(j))];
    std::string line;
    for (const auto& [name, n] : counts)
        line += " " + name + "=" + std::to_string(n);
    std::fprintf(stderr, "perfbench: %s campaign %.3f s, cpu %.3f s, digest %016llx,%s\n",
                 which, rep.wall_s, rep.cpu_s,
                 static_cast<unsigned long long>(rep.digest), line.c_str());
}

}  // namespace

int main(int argc, char** argv) {
    const Args args = parse_args(argc, argv);
    const std::optional<Workload> found = make_workload(args.workload);
    if (!found) usage_error("unknown workload '" + args.workload + "'");
    const Workload& w = *found;
    const std::uint64_t campaign_seed = engine::CampaignOptions{}.campaign_seed;
    Timer run_timer;

    try {
        // Set-up is timed in windows of a fifteenth of the run each: one
        // before every campaign and one after the last. It takes
        // milliseconds on the small circuits while a shared host's speed
        // swings by a fifth over seconds, so setup_s is the median over many
        // repetitions spread across the run rather than over one burst.
        engine::JobPlan plan;
        std::vector<SetupTimes> setups;
        std::vector<std::size_t> window_ends;
        const double setup_window_s = args.seconds / 15.0;
        const auto set_up_for = [&](double seconds) {
            const Timer t;
            const std::size_t first = setups.size();
            while ((setups.size() - first < 3 || t.seconds() < seconds) &&
                   setups.size() - first < 5000)
                setups.push_back(run_setup(w, campaign_seed, plan));
            window_ends.push_back(setups.size());
        };
        set_up_for(setup_window_s);
        const auto setup_median = [&](double SetupTimes::*field) {
            std::vector<double> v;
            for (const auto& s : setups) v.push_back(s.*field);
            return perfbench::median(v);
        };
        std::fprintf(stderr, "perfbench: %s seed %llu: %zu jobs, %zu defense groups, "
                     "%d thread(s)\n",
                     w.name.c_str(), static_cast<unsigned long long>(args.seed),
                     plan.size(), plan.groups.size(), w.threads);

        Gate gate;
        if (!args.trace) {
            // Whole campaigns until the run's time is spent: another
            // campaign starts when its set-up windows and a third of it (by
            // the median so far) fit. At 30 s that is one campaign of the
            // small-circuit workloads and two of superblue_first_dip.
            std::vector<double> walls, cpus, job_seconds;
            // Peak RSS is read after the first campaign: later campaigns
            // start from a heap that earlier ones and a time-dependent number
            // of set-ups fragmented, which moved the peak by 20% between runs.
            double peak_rss = 0.0;
            while (walls.size() < 50) {
                if (!walls.empty()) {
                    if (args.seconds - run_timer.seconds() <
                        perfbench::median(walls) / 3.0 + 2.0 * setup_window_s)
                        break;
                    set_up_for(setup_window_s);
                }
                const Rep rep = run_campaign(w, plan, args.scratch, nullptr);
                summarize(rep, "untraced");
                gate.check(rep, "repeated");
                if (walls.empty()) peak_rss = peak_rss_mb();
                walls.push_back(rep.wall_s);
                cpus.push_back(rep.cpu_s);
                for (const auto& j : rep.result.jobs) job_seconds.push_back(j.job_seconds);
            }
            set_up_for(setup_window_s);
            std::string windows;
            for (std::size_t i = 0, from = 0; i < window_ends.size(); from = window_ends[i++]) {
                std::vector<double> v;
                for (std::size_t k = from; k < window_ends[i]; ++k) v.push_back(setups[k].total_s);
                char buf[64];
                std::snprintf(buf, sizeof buf, " %.3f ms (%zu)", 1e3 * perfbench::median(v),
                              v.size());
                windows += buf;
            }
            std::fprintf(stderr, "perfbench: set-up window medians:%s\n", windows.c_str());
            // The job timing reported is the geometric mean (README.md says
            // why not the median); the median, and a tail percentile when the
            // pooled sample supports one, go to stderr.
            const auto tail = perfbench::tail_percentile(job_seconds.size());
            std::fprintf(stderr,
                         "perfbench: %zu campaign(s); job times over %zu job samples; "
                         "setup_s over %zu set-ups\n",
                         walls.size(), job_seconds.size(), setups.size());
            gate.check_recorded(args.digest_file);
            std::fprintf(stderr, "perfbench: job p50 %.4f s\n", perfbench::median(job_seconds));
            if (tail)
                std::fprintf(stderr, "perfbench: job p%g %.4f s\n", *tail * 100.0,
                             perfbench::quantile(job_seconds, *tail));
            print_result(gate.correct(), gate.attempted, gate.failed,
                         {{"campaign_s", perfbench::median(walls), "s"},
                          {"setup_s", setup_median(&SetupTimes::total_s), "s"},
                          {"job_geomean_s", perfbench::geometric_mean(job_seconds), "s"},
                          {"cpu_s", perfbench::median(cpus), "s"},
                          {"peak_rss_mb", peak_rss, "MB"}});
            return gate.correct() ? 0 : 1;
        }

        // Traced run: one untraced campaign as the overhead baseline, one
        // traced campaign, then the probes.
        const Rep plain = run_campaign(w, plan, args.scratch, nullptr);
        summarize(plain, "untraced");
        gate.check(plain, "untraced");
        Tracer tracer;
        const Rep traced = run_campaign(w, plan, args.scratch, &tracer);
        summarize(traced, "traced");
        gate.check(traced, "traced");
        gate.check_recorded(args.digest_file);
        const ProbeTotals probes = run_probes(plan, args.seed, tracer);

        double job_sum = 0.0, attack_s = 0.0, oracle_s = 0.0;
        std::uint64_t dips = 0, calls = 0, patterns = 0, hits = 0, lookups = 0;
        std::uint64_t resolved = 0, failed = 0;
        sat::EncoderStats enc;
        std::uint64_t conflicts = 0, propagations = 0, decisions = 0;
        for (const auto& j : traced.result.jobs) {
            job_sum += j.job_seconds;
            attack_s += j.result.seconds;
            oracle_s += j.oracle_stats.seconds;
            dips += j.result.iterations;
            calls += j.oracle_stats.calls;
            patterns += j.oracle_stats.patterns;
            hits += j.oracle_cache.hits;
            lookups += j.oracle_cache.hits + j.oracle_cache.misses;
            sat::accumulate(enc, j.result.encoder_stats);
            conflicts += j.result.solver_stats.conflicts;
            propagations += j.result.solver_stats.propagations;
            decisions += j.result.solver_stats.decisions;
            const Outcome o = perfbench::classify(j);
            if (perfbench::is_resolved(o)) ++resolved;
            if (perfbench::is_failed(o)) ++failed;
        }
        const double n_jobs = static_cast<double>(traced.result.jobs.size());
        const auto count = [](std::uint64_t v) { return static_cast<double>(v); };
        print_result(
            gate.correct(), gate.attempted, gate.failed,
            {{"engine.plan_s", setup_median(&SetupTimes::plan_s), "s"},
             {"engine.job_overhead_s", perfbench::job_overhead_s(traced.result.jobs), "s"},
             {"engine.worker_idle_s",
              perfbench::worker_idle_s(traced.result.threads, traced.wall_s, job_sum), "s"},
             {"netlist.build_s", setup_median(&SetupTimes::netlist_s), "s"},
             {"netlist.plan_s", setup_median(&SetupTimes::prewarm_s), "s"},
             {"netlist.gates", count(setups.front().gates), "count"},
             {"camo.defense_build_s", setup_median(&SetupTimes::defense_s), "s"},
             {"camo.key_bits", count(setups.front().key_bits), "count"},
             {"attack.run_s", attack_s, "s"},
             {"attack.dips", count(dips), "count"},
             {"attack.dips_per_s", ratio(count(dips), attack_s), "1/s"},
             {"attack.resolved_frac", ratio(count(resolved), n_jobs), "ratio"},
             {"attack.failed_frac", ratio(count(failed), n_jobs), "ratio"},
             // A share, not seconds: the absolute time is exactly 0 on a
             // workload without DIPs, and a time that never varies reads as
             // a fabricated one.
             {"attack.oracle.query_frac", ratio(oracle_s, attack_s), "ratio"},
             {"attack.oracle.calls", count(calls), "count"},
             {"attack.oracle.patterns", count(patterns), "count"},
             {"attack.oracle.cache_hit_frac", ratio(count(hits), count(lookups)), "ratio"},
             {"attack.oracle.probe_patterns_per_s",
              ratio(count(probes.oracle_patterns), probes.oracle_s), "1/s"},
             {"sat.encoder.vars", count(enc.vars), "count"},
             {"sat.encoder.clauses", count(enc.clauses), "count"},
             {"sat.encoder.agreement_clauses", count(enc.agreement_clauses), "count"},
             {"sat.solver.conflicts", count(conflicts), "count"},
             {"sat.solver.propagations", count(propagations), "count"},
             {"sat.solver.decisions", count(decisions), "count"},
             {"sat.solver.props_per_s", ratio(count(propagations), attack_s - oracle_s), "1/s"},
             {"sat.probe.encode_s", probes.encode_s, "s"},
             {"sat.probe.solve_s", probes.solve_s, "s"},
             {"sat.probe.props_per_s", ratio(count(probes.propagations), probes.solve_s), "1/s"},
             {"sat.probe.conflicts_per_s", ratio(count(probes.conflicts), probes.solve_s), "1/s"},
             {"trace.overhead_frac", traced.wall_s / plain.wall_s - 1.0, "ratio"}});
        if (!args.spans.empty()) write_text_file(args.spans, tracer.json(w.name, args.seed));
        return gate.correct() ? 0 : 1;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s: %s\n", w.name.c_str(), e.what());
        return 1;
    }
}

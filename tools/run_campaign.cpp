// run_campaign — the campaign engine's CLI: plans a
// {circuit x defense x attack x seed} job matrix, executes this process's
// shard of it across a thread pool, and writes structured reports.
//
// The default matrix is 2 circuits x 3 defenses x 2 attacks x 2 seeds =
// 24 jobs. Attacks are budgeted with the deterministic conflict cap
// (--max-conflicts), not the wall clock, so the CSV report is byte-identical
// for any --threads value:
//
//   run_campaign --threads=1 --csv=a.csv
//   run_campaign --threads=8 --csv=b.csv
//   cmp a.csv b.csv          # identical
//
// Long campaigns are interruptible: --checkpoint journals every finished
// job, and --resume continues a killed run from the journal with the final
// CSV byte-identical to an uninterrupted campaign:
//
//   run_campaign --checkpoint=c.jsonl --csv=out.csv     # SIGKILL mid-run...
//   run_campaign --checkpoint=c.jsonl --resume --csv=out.csv
//
// And shardable across processes/machines: --shard=i/N executes only the
// plan indices j with j % N == i (preview the partition with --dry-run),
// each shard journaling to its own file; merge_campaign recombines the
// journals into the CSV an unsharded run would have produced:
//
//   run_campaign --shard=0/2 --checkpoint=s0.jsonl &
//   run_campaign --shard=1/2 --checkpoint=s1.jsonl &
//   wait && merge_campaign --csv=out.csv s0.jsonl s1.jsonl
//
// Examples:
//   run_campaign                                # default matrix, CSV to stdout
//   run_campaign --threads=0 --json=full.json   # all cores, full JSON record
//   run_campaign --circuits=ex1010 --defenses=stochastic --accuracy=0.9
//
// Every attack runs on the in-tree CDCL solver. Matrix values every job
// would fail on (unknown circuit, defense, library or attack names; a
// stochastic accuracy outside (0, 1]; more SARLock bits than a circuit has
// primary inputs; sequential corpus circuits) are usage errors, reported
// before planning.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "attack/attack.hpp"
#include "camo/cell_library.hpp"
#include "common/parse.hpp"
#include "common/report.hpp"
#include "engine/campaign.hpp"
#include "engine/checkpoint.hpp"
#include "engine/defense.hpp"
#include "engine/report.hpp"
#include "netlist/corpus.hpp"

using namespace gshe;
using namespace gshe::engine;

namespace {

std::vector<std::string> split(const std::string& s, char sep) {
    std::vector<std::string> out;
    std::size_t start = 0;
    while (start <= s.size()) {
        const std::size_t end = s.find(sep, start);
        if (end == std::string::npos) {
            out.push_back(s.substr(start));
            break;
        }
        out.push_back(s.substr(start, end - start));
        start = end + 1;
    }
    return out;
}

struct Cli {
    int threads = 1;
    std::vector<std::string> circuits = {"ex1010", "c7552"};
    std::vector<std::string> defenses = {"camo", "sarlock", "stochastic"};
    std::vector<std::string> attacks = {"sat", "double_dip"};
    int n_seeds = 2;
    double fraction = 0.05;
    std::string library = "gshe16";
    int sarlock_bits = 4;
    double accuracy = 0.95;
    std::uint64_t max_conflicts = 50000;
    double timeout_seconds = 3600.0;
    std::uint64_t campaign_seed = 0x6a0b5eed;
    std::optional<std::uint64_t> protect_seed;
    OracleCacheMode oracle_cache = OracleCacheMode::Auto;
    ShardSpec shard;
    std::string csv_path = "-";
    std::string json_path;
    std::string checkpoint_path;
    bool resume = false;
    bool dry_run = false;
    bool timing = false;
    bool quiet = false;
};

void usage() {
    std::puts(
        "usage: run_campaign [--key=value ...]\n"
        "  --threads=N        worker threads (default 1; 0 = all cores)\n"
        "  --circuits=a,b     Table III corpus circuits (default ex1010,c7552)\n"
        "  --defenses=k,...   defense kinds (default camo,sarlock,stochastic;\n"
        "                     also: delay_aware, dynamic)\n"
        "  --attacks=a,...    attacks (default sat,double_dip; also: appsat)\n"
        "  --seeds=N          replications with seeds 1..N (default 2)\n"
        "  --fraction=F       protected gate fraction (default 0.05)\n"
        "  --library=NAME     camouflage cell library (default gshe16; see\n"
        "                     --list)\n"
        "  --sarlock-bits=M   SARLock protected bits (default 4)\n"
        "  --accuracy=A       stochastic device accuracy (default 0.95)\n"
        "  --max-conflicts=N  deterministic solver budget (default 50000)\n"
        "  --timeout=S        wall-clock safety timeout per attack (default 3600)\n"
        "  --campaign-seed=N  campaign-level seed\n"
        "  --protect-seed=N   pin gate selection/camouflage application to one\n"
        "                     seed across all jobs (the Table IV methodology:\n"
        "                     'gates are randomly selected once ... and then\n"
        "                     reapplied across all techniques'). Jobs that then\n"
        "                     attack identical defense instances share one\n"
        "                     build and one oracle query memo, and the seed\n"
        "                     replicates of a seed-free attack (sat,\n"
        "                     double_dip) on one netlist share one attack\n"
        "                     run (on a dynamic instance only if that run\n"
        "                     never re-keyed): the CSV is unchanged\n"
        "  --oracle-cache=M   query-memo policy: on | off | auto (default\n"
        "                     auto = memo only defense-instance groups with\n"
        "                     more than one job). The deterministic CSV is\n"
        "                     byte-identical for every mode; only evaluation\n"
        "                     cost differs\n"
        "  --shard=i/N        execute only plan indices j with j % N == i\n"
        "                     (one process of an N-way sharded campaign;\n"
        "                     combine the shard journals with merge_campaign)\n"
        "  --dry-run          print the planned job table (index, circuit,\n"
        "                     defense, attack, seed, shard owner) and exit —\n"
        "                     the operator's sharding preview\n"
        "  --csv=PATH         CSV report destination ('-' = stdout, default)\n"
        "  --json=PATH        full JSON report: each job is its checkpoint\n"
        "                     journal result object (includes timing; not\n"
        "                     byte-reproducible)\n"
        "  --checkpoint=PATH  journal each finished job to PATH (JSONL,\n"
        "                     atomic write-then-rename) so an interrupted\n"
        "                     campaign can be resumed; one journal per shard\n"
        "  --resume           load PATH, skip already-completed jobs, and\n"
        "                     merge their cached results; the final CSV is\n"
        "                     byte-identical to an uninterrupted run\n"
        "  --timing           add wall-clock columns to the CSV (breaks the\n"
        "                     byte-identical guarantee)\n"
        "  --quiet            suppress per-job progress on stderr\n"
        "  --list             list circuits/defenses/libraries/attacks and exit\n"
        "Unknown circuit, defense, library or attack names, an accuracy outside\n"
        "(0, 1] for a stochastic defense, --sarlock-bits above a circuit's\n"
        "primary-input count, and sequential circuits (s38584) are usage\n"
        "errors: exit 2 before planning, --dry-run too.");
}

void list_choices() {
    std::printf("circuits (Table III corpus):\n");
    for (const auto& e : netlist::corpus_entries())
        std::printf("  %-14s %s\n", e.name.c_str(), e.suite.c_str());
    std::printf("defenses:\n");
    for (const auto& k : DefenseFactory::kinds())
        std::printf("  %s\n", k.c_str());
    std::printf("libraries (--library):\n");
    for (const auto& name : camo::library_names())
        std::printf("  %s\n", name.c_str());
    std::printf("attacks:\n");
    for (const auto& name : attack::attack_names()) {
        const attack::Attack& a = attack::attack_by_name(name);
        std::printf("  %-11s %s\n", name.c_str(), a.label().c_str());
    }
}

// ---- strict flag parsing ----------------------------------------------------
// Every numeric flag goes through parse_u64/parse_i64/parse_double: a value
// the helpers reject (or one outside the flag's documented range) is a
// usage error naming the flag and the offending text — never a silent 0
// the way atoi("abc") was.

[[noreturn]] void flag_error(const char* flag, const std::string& value,
                             const char* expected) {
    std::fprintf(stderr, "run_campaign: invalid value for %s: '%s' (%s)\n",
                 flag, value.c_str(), expected);
    std::exit(2);
}

int int_flag(const char* flag, const std::string& value, int min_value,
             int max_value) {
    const auto parsed = parse_i64(value);
    if (!parsed || *parsed < min_value || *parsed > max_value)
        flag_error(flag, value,
                   ("expected an integer in [" + std::to_string(min_value) +
                    ", " + std::to_string(max_value) + "]")
                       .c_str());
    return static_cast<int>(*parsed);
}

std::uint64_t u64_flag(const char* flag, const std::string& value) {
    const auto parsed = parse_u64(value);
    if (!parsed) flag_error(flag, value, "expected an unsigned integer");
    return *parsed;
}

double double_flag(const char* flag, const std::string& value,
                   double min_value, double max_value) {
    const auto parsed = parse_double(value);
    if (!parsed || *parsed < min_value || *parsed > max_value)
        flag_error(flag, value,
                   ("expected a number in [" + std::to_string(min_value) +
                    ", " + std::to_string(max_value) + "]")
                       .c_str());
    return *parsed;
}

OracleCacheMode cache_flag(const std::string& value) {
    if (value == "on") return OracleCacheMode::On;
    if (value == "off") return OracleCacheMode::Off;
    if (value == "auto") return OracleCacheMode::Auto;
    flag_error("--oracle-cache", value, "expected on, off or auto");
}

ShardSpec shard_flag(const std::string& value) {
    const std::size_t slash = value.find('/');
    const auto index = slash == std::string::npos
                           ? std::nullopt
                           : parse_u64(value.substr(0, slash));
    const auto total = slash == std::string::npos
                           ? std::nullopt
                           : parse_u64(value.substr(slash + 1));
    if (!index || !total || *total == 0 || *index >= *total)
        flag_error("--shard", value,
                   "expected i/N with 0 <= i < N, e.g. --shard=0/4");
    return ShardSpec{static_cast<std::size_t>(*index),
                     static_cast<std::size_t>(*total)};
}

bool parse(Cli& cli, int argc, char** argv, bool& exit_ok) {
    exit_ok = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto starts = [&](const char* p) {
            return arg.rfind(p, 0) == 0;
        };
        const auto val = [&] { return arg.substr(arg.find('=') + 1); };
        const auto unknown = [&] {
            std::fprintf(stderr, "run_campaign: unknown flag '%s'\n", arg.c_str());
            return false;
        };
        if (arg == "--help" || arg == "-h") {
            usage();
            exit_ok = true;
            return true;
        }
        if (arg == "--list") {
            list_choices();
            exit_ok = true;
            return true;
        }
        if (arg == "--timing") { cli.timing = true; continue; }
        if (arg == "--quiet") { cli.quiet = true; continue; }
        if (arg == "--resume") { cli.resume = true; continue; }
        if (arg == "--dry-run") { cli.dry_run = true; continue; }
        if (arg.find('=') == std::string::npos) return unknown();
        if (starts("--threads=")) cli.threads = int_flag("--threads", val(), 0, 4096);
        else if (starts("--circuits=")) cli.circuits = split(val(), ',');
        else if (starts("--defenses=")) cli.defenses = split(val(), ',');
        else if (starts("--attacks=")) cli.attacks = split(val(), ',');
        else if (starts("--seeds=")) cli.n_seeds = int_flag("--seeds", val(), 1, 1 << 20);
        else if (starts("--fraction=")) cli.fraction = double_flag("--fraction", val(), 0.0, 1.0);
        else if (starts("--library=")) cli.library = val();
        else if (starts("--sarlock-bits=")) cli.sarlock_bits = int_flag("--sarlock-bits", val(), 1, 64);
        else if (starts("--accuracy=")) cli.accuracy = double_flag("--accuracy", val(), 0.0, 1.0);
        else if (starts("--max-conflicts=")) cli.max_conflicts = u64_flag("--max-conflicts", val());
        else if (starts("--timeout=")) cli.timeout_seconds = double_flag("--timeout", val(), 0.0, 1e9);
        else if (starts("--campaign-seed=")) cli.campaign_seed = u64_flag("--campaign-seed", val());
        else if (starts("--protect-seed=")) cli.protect_seed = u64_flag("--protect-seed", val());
        else if (starts("--oracle-cache=")) cli.oracle_cache = cache_flag(val());
        else if (starts("--shard=")) cli.shard = shard_flag(val());
        else if (starts("--csv=")) cli.csv_path = val();
        else if (starts("--json=")) cli.json_path = val();
        else if (starts("--checkpoint=")) cli.checkpoint_path = val();
        else return unknown();
    }
    return true;
}

std::string joined(const std::vector<std::string>& names) {
    std::string out;
    for (const auto& name : names) out += (out.empty() ? "" : ", ") + name;
    return out;
}

/// The first matrix value every job using it would fail on, as a message
/// naming the value and the reason; empty when the matrix is runnable.
/// Checked before planning so a typo never reaches a job.
std::string matrix_error(const Cli& cli) {
    const auto& corpus = netlist::corpus_entries();
    for (const auto& name : cli.circuits) {
        const auto entry =
            std::find_if(corpus.begin(), corpus.end(),
                         [&](const netlist::CorpusEntry& e) { return e.name == name; });
        if (entry == corpus.end())
            return "unknown circuit '" + name + "' (see --list)";
        if (entry->cls == netlist::CorpusClass::Sequential)
            return "circuit '" + name +
                   "' is sequential; the attacks need a combinational "
                   "netlist (apply unroll_for_scan first)";
    }
    const auto& kinds = DefenseFactory::kinds();
    for (const auto& kind : cli.defenses)
        if (std::find(kinds.begin(), kinds.end(), kind) == kinds.end())
            return "unknown defense '" + kind + "' (known: " + joined(kinds) + ")";
    for (const auto& name : cli.attacks)
        if (attack::find_attack(name) == nullptr)
            return "unknown attack '" + name + "' (known: " +
                   joined(attack::attack_names()) + ")";
    // Every kind but sarlock builds its cells from --library; only the
    // stochastic oracle reads --accuracy.
    const auto has_defense = [&](auto&& pred) {
        return std::any_of(cli.defenses.begin(), cli.defenses.end(), pred);
    };
    const auto names = camo::library_names();
    if (has_defense([](const std::string& k) { return k != "sarlock"; }) &&
        std::find(names.begin(), names.end(), cli.library) == names.end())
        return "unknown library '" + cli.library + "' (known: " +
               joined(names) + ")";
    if (has_defense([](const std::string& k) { return k == "stochastic"; }) &&
        !(cli.accuracy > 0.0 && cli.accuracy <= 1.0)) {
        char buf[64];
        std::snprintf(buf, sizeof buf, "%g", cli.accuracy);
        return std::string("stochastic accuracy ") + buf +
               " (--accuracy) is outside (0, 1]";
    }
    // SARLock compares m primary inputs with m key bits. The generated
    // netlist's count decides (CorpusEntry::paper_inputs is the paper's:
    // c7552 has 207 there and 100 here), so the circuits are built, and
    // only when sarlock is in the matrix.
    if (has_defense([](const std::string& k) { return k == "sarlock"; }))
        for (const auto& name : cli.circuits) {
            const std::size_t inputs =
                netlist::build_benchmark(name).inputs().size();
            if (inputs < static_cast<std::size_t>(cli.sarlock_bits))
                return "circuit '" + name + "' has " + std::to_string(inputs) +
                       " primary inputs, fewer than the " +
                       std::to_string(cli.sarlock_bits) +
                       " SARLock compares (--sarlock-bits)";
        }
    return {};
}

/// --dry-run: the plan as the operator will shard it — one row per job with
/// the shard that owns it and the defense-instance group whose build (and
/// oracle query memo) it will share, '*' marking the rows this invocation
/// would run.
void print_plan(const JobPlan& plan, const ShardSpec& shard) {
    std::printf("%5s  %-10s %-28s %-11s %5s  %-6s %-5s\n", "index", "circuit",
                "defense", "attack", "seed", "shard", "group");
    for (const auto& job : plan.jobs) {
        const ShardSpec owner{job.index % shard.total, shard.total};
        std::printf("%5zu  %-10s %-28s %-11s %5llu  %-6s %-5zu%s\n", job.index,
                    job.spec.circuit.c_str(), job.spec.defense.label().c_str(),
                    job.spec.attack.c_str(),
                    static_cast<unsigned long long>(job.spec.seed),
                    owner.label().c_str(), job.group,
                    shard.contains(job.index) ? " *" : "");
    }
    // The sharing preview: which jobs will attack one shared defense
    // instance (and hence feed one query memo). Singleton groups are
    // summarized, not listed — with per-job build seeds nothing shares.
    std::size_t shared_groups = 0;
    for (const auto& g : plan.groups)
        if (g.members.size() > 1) ++shared_groups;
    std::printf("defense-instance groups: %zu (%zu shared, %zu private)\n",
                plan.groups.size(), shared_groups,
                plan.groups.size() - shared_groups);
    for (const auto& g : plan.groups) {
        if (g.members.size() < 2) continue;
        std::string members;
        for (const std::size_t m : g.members) {
            if (!members.empty()) members += ',';
            members += std::to_string(m);
        }
        std::printf("  group %-5zu %-28s jobs %s\n", g.id,
                    plan.jobs[g.id].spec.defense.label().c_str(),
                    members.c_str());
    }
    // The result-sharing preview over this shard's jobs: which seed
    // replicates copy one attack run. A conditional copy is made only if
    // its leader's re-keying oracle stays in epoch 0.
    const std::vector<std::size_t> mine = plan.shard_indices(shard);
    const std::vector<std::size_t> leader = result_leaders(plan, mine);
    std::vector<std::string> copied_by(mine.size());
    std::size_t runs = 0, copies = 0, conditional = 0;
    for (std::size_t pos = 0; pos < mine.size(); ++pos) {
        if (leader[pos] == pos) {
            ++runs;
            continue;
        }
        if (conditional_copy(plan.jobs[mine[pos]]))
            ++conditional;
        else
            ++copies;
        copied_by[leader[pos]] += ',' + std::to_string(mine[pos]);
    }
    std::printf("result groups: %zu attack runs for %zu jobs (%zu copies, %zu "
                "conditional copies)\n",
                runs, mine.size(), copies, conditional);
    for (std::size_t pos = 0; pos < mine.size(); ++pos) {
        if (copied_by[pos].empty()) continue;
        const PlannedJob& job = plan.jobs[mine[pos]];
        std::printf("  leader %-4zu %-28s %-11s jobs %zu%s%s\n", job.index,
                    job.spec.defense.label().c_str(), job.spec.attack.c_str(),
                    job.index, copied_by[pos].c_str(),
                    conditional_copy(job) ? " (conditional)" : "");
    }
    std::printf("plan: %zu jobs, fingerprint 0x%016llx; shard %s runs %zu\n",
                plan.size(),
                static_cast<unsigned long long>(plan.fingerprint),
                shard.label().c_str(), mine.size());
}

}  // namespace

int main(int argc, char** argv) {
    Cli cli;
    bool exit_ok = false;
    if (!parse(cli, argc, argv, exit_ok)) {
        usage();
        return 2;
    }
    if (exit_ok) return 0;
    if (cli.resume && cli.checkpoint_path.empty()) {
        std::fprintf(stderr, "--resume requires --checkpoint=PATH\n");
        return 2;
    }
    if (const std::string error = matrix_error(cli); !error.empty()) {
        std::fprintf(stderr, "run_campaign: %s\n", error.c_str());
        return 2;
    }

    // Build the job matrix.
    std::vector<DefenseConfig> defenses;
    for (const auto& kind : cli.defenses) {
        DefenseConfig d;
        d.kind = kind;
        d.library = cli.library;
        d.fraction = cli.fraction;
        d.sarlock_bits = cli.sarlock_bits;
        d.accuracy = cli.accuracy;
        d.protect_seed = cli.protect_seed;
        defenses.push_back(std::move(d));
    }
    std::vector<std::uint64_t> seeds;
    for (int s = 1; s <= cli.n_seeds; ++s)
        seeds.push_back(static_cast<std::uint64_t>(s));

    attack::AttackOptions attack_options;
    attack_options.timeout_seconds = cli.timeout_seconds;
    attack_options.max_conflicts = cli.max_conflicts;

    const std::vector<JobSpec> jobs = CampaignRunner::cross_product(
        cli.circuits, defenses, cli.attacks, seeds, attack_options);
    if (jobs.empty()) {
        std::fprintf(stderr, "empty job matrix\n");
        return 2;
    }

    const JobPlan plan = plan_jobs(jobs, cli.campaign_seed);
    if (cli.dry_run) {
        print_plan(plan, cli.shard);
        return 0;
    }
    // Progress denominator = jobs that will actually execute: on a resume,
    // key-matched error-free journal records satisfy their slots without
    // firing the progress hook, so count them out up front (same matching
    // rule the runner applies).
    std::size_t fresh_jobs = 0;
    if (!cli.quiet) {  // only the progress hook consumes the count
        std::unordered_set<std::uint64_t> completed;
        if (cli.resume)
            for (const auto& record :
                 engine::checkpoint::load_journal(cli.checkpoint_path))
                if (record.result.error.empty())
                    completed.insert(record.key);
        for (const std::size_t i : plan.shard_indices(cli.shard))
            if (!completed.count(plan.jobs[i].key)) ++fresh_jobs;
    }

    CampaignOptions options;
    options.threads = cli.threads;
    options.campaign_seed = cli.campaign_seed;
    options.shard = cli.shard;
    options.checkpoint_path = cli.checkpoint_path;
    options.resume_from_checkpoint = cli.resume;
    options.oracle_cache = cli.oracle_cache;
    std::size_t done = 0;  // progress counter; referenced only during run()
    if (!cli.quiet) {
        options.on_job_done = [&](const JobResult& j) {
            std::fprintf(stderr, "[%3zu/%zu] #%-3zu %-8s %-28s %-10s seed=%llu  %s\n",
                         ++done, fresh_jobs, j.index, j.circuit.c_str(),
                         j.defense.c_str(), j.attack.c_str(),
                         static_cast<unsigned long long>(j.spec_seed),
                         j.error.empty()
                             ? attack::AttackResult::status_name(j.result.status)
                                   .c_str()
                             : j.error.c_str());
        };
    }

    const CampaignRunner runner(options);
    CampaignResult result;
    try {
        result = runner.run(plan);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "campaign failed: %s\n", e.what());
        return 1;
    }

    const std::string csv = campaign_csv(result, cli.timing);
    try {
        if (cli.csv_path == "-") {
            std::fputs(csv.c_str(), stdout);
        } else if (!cli.csv_path.empty()) {
            write_text_file(cli.csv_path, csv);
        }
        if (!cli.json_path.empty())
            write_text_file(cli.json_path, campaign_json(result));
    } catch (const std::exception& e) {
        std::fprintf(stderr, "report write failed: %s\n", e.what());
        return 1;
    }

    std::fprintf(stderr, "%s\n", campaign_summary(result).c_str());
    return result.errored() == 0 ? 0 : 1;
}

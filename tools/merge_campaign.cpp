// merge_campaign — the gather step of a sharded campaign: reads the K
// per-shard checkpoint journals a `run_campaign --shard=i/N --checkpoint=...`
// fleet left behind, verifies they are slices of one plan (matching plan
// fingerprints, one journal per shard, every plan index covered exactly
// once), and emits the same byte-identical deterministic CSV an unsharded
// `run_campaign --threads=1` of that plan produces:
//
//   run_campaign --shard=0/2 --checkpoint=s0.jsonl --csv=/dev/null &
//   run_campaign --shard=1/2 --checkpoint=s1.jsonl --csv=/dev/null &
//   wait
//   merge_campaign --csv=out.csv s0.jsonl s1.jsonl
//
// Inconsistent inputs — journals from different campaigns, a missing or
// duplicated shard, records missing because a shard was interrupted or its
// jobs errored — fail with one diagnostic per problem, naming the offending
// journal, shard and job keys/indices. Exit codes: 0 merged, 1 merge
// refused (diagnostics on stderr), 2 usage.
#include <cstdio>
#include <string>
#include <vector>

#include "common/report.hpp"
#include "engine/merge.hpp"
#include "engine/report.hpp"

using namespace gshe;
using namespace gshe::engine;

namespace {

void usage() {
    std::puts(
        "usage: merge_campaign [--key=value ...] JOURNAL...\n"
        "  --csv=PATH   merged CSV destination ('-' = stdout, default)\n"
        "  --json=PATH  merged full JSON report: each job is its journal\n"
        "               result object, in plan order\n"
        "  --timing     add wall-clock columns to the CSV (journaled values;\n"
        "               comparable only within one shard's run)\n"
        "  JOURNAL...   one checkpoint journal per shard, any order\n"
        "\n"
        "Verifies plan fingerprints and completeness, then emits the same\n"
        "byte-identical CSV an unsharded run of the plan produces.");
}

}  // namespace

int main(int argc, char** argv) {
    std::string csv_path = "-";
    std::string json_path;
    bool timing = false;
    std::vector<std::string> journals;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto starts = [&](const char* p) { return arg.rfind(p, 0) == 0; };
        const auto val = [&] { return arg.substr(arg.find('=') + 1); };
        if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        }
        if (arg == "--timing") { timing = true; continue; }
        if (starts("--csv=")) csv_path = val();
        else if (starts("--json=")) json_path = val();
        else if (starts("--")) {
            std::fprintf(stderr, "merge_campaign: unknown flag %s\n",
                         arg.c_str());
            usage();
            return 2;
        } else journals.push_back(arg);
    }
    if (journals.empty()) {
        usage();
        return 2;
    }

    const MergeReport report = merge_journals(journals);
    if (!report.ok()) {
        std::fprintf(stderr, "merge_campaign: refusing to merge:\n");
        for (const auto& error : report.errors)
            std::fprintf(stderr, "  - %s\n", error.c_str());
        return 1;
    }

    try {
        const std::string csv = campaign_csv(report.result, timing);
        if (csv_path == "-") {
            std::fputs(csv.c_str(), stdout);
        } else if (!csv_path.empty()) {
            write_text_file(csv_path, csv);
        }
        if (!json_path.empty())
            write_text_file(json_path, campaign_json(report.result));
    } catch (const std::exception& e) {
        std::fprintf(stderr, "merge_campaign: report write failed: %s\n",
                     e.what());
        return 1;
    }

    std::fprintf(stderr,
                 "merged %zu journal(s): %zu jobs, plan 0x%016llx, "
                 "%zu success, %zu errors\n",
                 journals.size(), report.result.jobs.size(),
                 static_cast<unsigned long long>(
                     report.result.plan_fingerprint),
                 report.result.succeeded(), report.result.errored());
    return 0;
}

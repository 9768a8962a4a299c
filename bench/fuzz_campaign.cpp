// Byzantine schedule fuzzing campaign CLI (docs/fuzzing.md).
//
// Modes:
//   bench_fuzz_campaign --seeds 25 --seed-base 1      # fixed seed range
//   bench_fuzz_campaign --duration 300                # wall-clock budget (s)
//   bench_fuzz_campaign --replay repro/seed-7.sched   # re-run one repro file
//   bench_fuzz_campaign --replay F --trace-out t.json # ... and write its trace
//
// Every run emits one JSON line (consumed by tools/fuzz_triage.py). Failing
// seeds are delta-debugged down and written as replayable repro files under
// --repro-dir. Exit status: 0 all clean, 1 failures found, 2 usage/replay
// error.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include "fuzz/campaign.h"

using namespace sbft;
using namespace sbft::fuzz;

namespace {

void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--seeds N] [--seed-base S] [--duration SECONDS]\n"
               "          [--repro-dir DIR] [--no-minimize] [--quick]\n"
               "          [--replay FILE [--trace-out PATH]]\n",
               argv0);
}

}  // namespace

int main(int argc, char** argv) {
  CampaignOptions options;
  options.repro_dir = "fuzz-repros";
  std::string replay_path;
  std::string trace_out;

  for (int i = 1; i < argc; ++i) {
    auto need_value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", flag);
        usage(argv[0]);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--seeds") == 0) {
      options.num_seeds = std::strtoull(need_value("--seeds"), nullptr, 10);
    } else if (std::strcmp(argv[i], "--seed-base") == 0) {
      options.seed_base = std::strtoull(need_value("--seed-base"), nullptr, 10);
    } else if (std::strcmp(argv[i], "--duration") == 0) {
      options.wall_clock_budget_ms =
          1000 * std::strtoll(need_value("--duration"), nullptr, 10);
    } else if (std::strcmp(argv[i], "--repro-dir") == 0) {
      options.repro_dir = need_value("--repro-dir");
    } else if (std::strcmp(argv[i], "--no-minimize") == 0) {
      options.minimize = false;
    } else if (std::strcmp(argv[i], "--quick") == 0) {
      options.num_seeds = 5;
    } else if (std::strcmp(argv[i], "--replay") == 0) {
      replay_path = need_value("--replay");
    } else if (std::strcmp(argv[i], "--trace-out") == 0) {
      trace_out = need_value("--trace-out");
    } else {
      usage(argv[0]);
      return 2;
    }
  }

  if (!trace_out.empty() && replay_path.empty()) {
    std::fprintf(stderr, "--trace-out needs --replay\n");
    usage(argv[0]);
    return 2;
  }
  if (!replay_path.empty()) {
    FuzzResult result;
    std::string error;
    if (!replay_file(replay_path, &result, &error, trace_out)) {
      std::fprintf(stderr, "replay failed: %s\n", error.c_str());
      return 2;
    }
    std::printf("%s\n", result.summary().c_str());
    return result.ok() ? 0 : 1;
  }

  options.log = &std::cout;
  CampaignReport report = run_campaign(options);
  std::fprintf(stderr, "fuzz campaign: %llu run(s), %llu failure(s)\n",
               static_cast<unsigned long long>(report.runs),
               static_cast<unsigned long long>(report.failures));
  for (size_t i = 0; i < report.failing_seeds.size(); ++i) {
    std::fprintf(stderr, "  seed %llu%s%s\n",
                 static_cast<unsigned long long>(report.failing_seeds[i]),
                 i < report.repro_paths.size() ? " -> " : "",
                 i < report.repro_paths.size() ? report.repro_paths[i].c_str()
                                               : "");
  }
  return report.ok() ? 0 : 1;
}

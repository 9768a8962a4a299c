// Byzantine schedule fuzzing (docs/fuzzing.md): campaign driver.
//
// Runs a batch of seeds through generate -> run -> audit; on failure,
// delta-debugs the schedule down (fuzz/minimize.h) and writes a replayable
// repro file (the Schedule text format plus the violations as comments).
// Emits one JSON line per run for tools/fuzz_triage.py. The campaign is the
// engine behind bench_fuzz_campaign (CLI), the `ctest -L fuzz` smoke tests,
// and the scheduled CI long-run job.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "fuzz/runner.h"
#include "fuzz/schedule.h"

namespace sbft::fuzz {

struct CampaignOptions {
  uint64_t seed_base = 1;
  uint64_t num_seeds = 25;
  /// > 0: keep drawing seeds (from seed_base) until this much wall-clock time
  /// elapsed, ignoring num_seeds — the CI long-run mode.
  int64_t wall_clock_budget_ms = 0;
  /// Directory for repro files of failing seeds ("" = don't write any).
  std::string repro_dir;
  bool minimize = true;
  uint32_t minimize_budget = 48;
  FuzzLimits limits;
  /// One JSON line per run (and per failure) when set.
  std::ostream* log = nullptr;
};

struct CampaignReport {
  uint64_t runs = 0;
  uint64_t failures = 0;
  std::vector<uint64_t> failing_seeds;
  std::vector<std::string> repro_paths;  // parallel to failing_seeds when written

  bool ok() const { return failures == 0; }
};

/// Runs the campaign. Deterministic for a fixed (seed_base, num_seeds,
/// limits) when wall_clock_budget_ms == 0.
CampaignReport run_campaign(const CampaignOptions& options);

/// Serializes a failing run into the repro text: the minimized schedule with
/// the violations and the original event count recorded as comments.
std::string make_repro_text(const Schedule& minimized, const FuzzResult& result,
                            size_t original_events);

/// Loads a repro/schedule file and re-runs it. Returns false (with *error
/// set) if the file is missing or malformed; *result receives the re-run
/// outcome otherwise. A non-empty `trace_path` receives the run's trace
/// (run_schedule).
bool replay_file(const std::string& path, FuzzResult* result,
                 std::string* error, const std::string& trace_path = {});

}  // namespace sbft::fuzz

#include "fuzz/campaign.h"

#include <chrono>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <sstream>

#include "fuzz/minimize.h"

namespace sbft::fuzz {

namespace {

std::string json_escape(const std::string& in) {
  std::string out;
  for (char c : in) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

void log_run(std::ostream* log, uint64_t seed, const Schedule& schedule,
             const FuzzResult& result, const std::string& repro_path) {
  if (log == nullptr) return;
  *log << "{\"seed\":" << seed << ",\"ok\":" << (result.ok() ? "true" : "false")
       << ",\"completed\":" << (result.completed ? "true" : "false")
       << ",\"executed\":" << result.max_executed
       << ",\"view_changes\":" << result.view_changes
       << ",\"recoveries\":" << result.recoveries
       << ",\"trace\":\"" << result.trace_hex() << "\""
       << ",\"events\":" << schedule.events.size() << ",\"schedule\":\""
       << json_escape(schedule.summary()) << "\"";
  if (!result.ok()) {
    *log << ",\"violations\":[";
    for (size_t i = 0; i < result.violations.size(); ++i) {
      if (i > 0) *log << ",";
      *log << "\"" << json_escape(result.violations[i]) << "\"";
    }
    *log << "]";
    if (!repro_path.empty()) {
      *log << ",\"repro\":\"" << json_escape(repro_path) << "\"";
    }
  }
  *log << "}\n" << std::flush;
}

}  // namespace

std::string make_repro_text(const Schedule& minimized, const FuzzResult& result,
                            size_t original_events) {
  std::ostringstream out;
  out << "# fuzz repro: " << minimized.summary() << "\n";
  out << "# minimized from " << original_events << " to "
      << minimized.events.size() << " event(s)\n";
  for (const std::string& v : result.violations) {
    out << "# violation: " << v << "\n";
  }
  out << minimized.to_text();
  return out.str();
}

CampaignReport run_campaign(const CampaignOptions& options) {
  CampaignReport report;
  ScheduleFuzzer fuzzer(options.limits);
  const auto start = std::chrono::steady_clock::now();
  auto budget_left = [&] {
    if (options.wall_clock_budget_ms <= 0) return true;
    auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                       std::chrono::steady_clock::now() - start)
                       .count();
    return elapsed < options.wall_clock_budget_ms;
  };

  for (uint64_t i = 0;; ++i) {
    if (options.wall_clock_budget_ms > 0) {
      if (!budget_left()) break;
    } else if (i >= options.num_seeds) {
      break;
    }
    const uint64_t seed = options.seed_base + i;
    Schedule schedule = fuzzer.generate(seed);
    FuzzResult result = run_schedule(schedule);
    ++report.runs;

    std::string repro_path;
    if (!result.ok()) {
      ++report.failures;
      report.failing_seeds.push_back(seed);
      Schedule minimized = schedule;
      if (options.minimize && !schedule.events.empty()) {
        minimized = minimize_schedule(schedule, options.minimize_budget);
      }
      if (!options.repro_dir.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(options.repro_dir, ec);
        repro_path =
            options.repro_dir + "/seed-" + std::to_string(seed) + ".sched";
        std::ofstream out(repro_path);
        if (out) {
          out << make_repro_text(minimized, result, schedule.events.size());
          report.repro_paths.push_back(repro_path);
        } else {
          repro_path.clear();
        }
      }
    }
    log_run(options.log, seed, schedule, result, repro_path);
  }
  return report;
}

bool replay_file(const std::string& path, FuzzResult* result,
                 std::string* error, const std::string& trace_path) {
  std::ifstream in(path);
  if (!in) {
    if (error != nullptr) *error = "cannot open " + path;
    return false;
  }
  std::stringstream buf;
  buf << in.rdbuf();
  std::optional<Schedule> schedule = Schedule::from_text(buf.str());
  if (!schedule) {
    if (error != nullptr) *error = "malformed schedule in " + path;
    return false;
  }
  *result = run_schedule(*schedule, trace_path);
  return true;
}

}  // namespace sbft::fuzz

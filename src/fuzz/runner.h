// Byzantine schedule fuzzing (docs/fuzzing.md): the schedule runner.
//
// Executes one Schedule against a freshly built harness::Cluster: schedules
// every fault event on the simulator, heals *everything* at the fault
// horizon (link faults cleared, crashed replicas restarted), drives the
// client workload to completion, lets the cluster settle, and then runs the
// full oracle stack — committed-block agreement, trace-derived invariants
// (obs::TraceChecker), state-root convergence, reply-cache consistency, and
// the liveness bound. A run is a failure iff `violations` is non-empty.
//
// Fault application is *guarded*: an event that no longer makes sense in the
// current cluster state (restarting a live replica, crashing past the f+1
// budget, reconfiguring a degraded cluster) is skipped rather than applied.
// The guards make every sub-schedule of a valid schedule valid too, which is
// what lets delta-debugging minimization (fuzz/minimize.h) drop events
// freely without manufacturing liveness failures.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fuzz/schedule.h"

namespace sbft::fuzz {

struct FuzzResult {
  /// Oracle violations, each prefixed with the audit that found it
  /// ("liveness:", "agreement:", "trace:", "convergence:", "replycache:").
  std::vector<std::string> violations;
  bool completed = false;       // all clients finished before the deadline
  SeqNum max_executed = 0;
  uint64_t view_changes = 0;
  uint64_t recoveries = 0;
  int64_t sim_end_us = 0;
  /// First 8 bytes of SHA-256 over the run's Cluster::trace_json(): two runs
  /// with equal digests took the same path, event for event.
  uint64_t trace_digest = 0;

  bool ok() const { return violations.empty(); }
  /// trace_digest as 16 hex digits.
  std::string trace_hex() const;
  std::string summary() const;
};

/// Runs the schedule to completion and audits the outcome. Deterministic:
/// the same schedule always produces the same FuzzResult. A non-empty
/// `trace_path` also receives the run's Cluster::dump_trace (Chrome-trace
/// JSON); a write failure becomes a "trace-out:" violation.
FuzzResult run_schedule(const Schedule& schedule, const std::string& trace_path = {});

}  // namespace sbft::fuzz

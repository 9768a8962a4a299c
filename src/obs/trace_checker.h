// Trace-driven invariant checking (ISSUE 6, pillar 3b).
//
// Replays the per-replica event streams of a finished run and asserts
// cross-replica safety invariants directly from the trace — the queryable
// replacement for hand-written per-scenario assertion code, and the oracle
// the ROADMAP's schedule fuzzer will reuse:
//   1. Agreement: all replicas that executed sequence number s report the
//      same execution digest prefix.
//   2. No double execution: within one replica stream, executed sequence
//      numbers are strictly increasing (gaps are fine — state transfer jumps
//      a lagging replica forward — but re-execution is not).
//   3. Fast-path justification: every fast-committed slot has a collector
//      event showing a full fast quorum of sign-shares backing its proof —
//      the fast quorum of the membership epoch that orders the slot, so a
//      reconfiguration that changes f changes the bar from its boundary on.
//   4. State-transfer sessions terminate: every session span that was opened
//      is closed (adopt or stop) by the end of the run.
//   5. View monotonicity: within one incarnation of a replica, the views it
//      enters (newview.sent / view.entered / view.adopted) never decrease —
//      a replica sliding back to an older view could re-vote slots it
//      already voted under newer primaries.
//   6. Checkpoint-root agreement: every two replicas that stabilized a
//      checkpoint at the same sequence recorded the same state-root prefix.
// Invariants 3 and 4 need complete streams, so they are skipped (with a
// note) when any tracer reports dropped events.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/trace.h"

namespace sbft::obs {

struct CheckReport {
  std::vector<std::string> violations;
  std::vector<std::string> notes;  // non-fatal, e.g. skipped checks
  uint64_t events_checked = 0;

  bool ok() const { return violations.empty(); }
  std::string summary() const;
};

class TraceChecker {
 public:
  /// Number of sign-shares a fast-commit proof for slot `seq` needs: 3f+c+1
  /// of the membership epoch that orders the slot.
  using FastQuorum = std::function<uint32_t(uint64_t seq)>;

  /// Leave `fast_quorum` empty to skip invariant 3 (e.g. PBFT, no fast path).
  explicit TraceChecker(FastQuorum fast_quorum = {})
      : fast_quorum_(std::move(fast_quorum)) {}

  void add_replica(uint32_t replica, std::vector<TraceEvent> events,
                   uint64_t dropped = 0);

  CheckReport run() const;

  /// Occurrences of (category, name) across all added streams — lets tests
  /// assert that a fault left its detection events in the trace.
  uint64_t count(Category category, std::string_view name) const;

 private:
  struct Stream {
    uint32_t replica;
    std::vector<TraceEvent> events;
    uint64_t dropped;
  };

  FastQuorum fast_quorum_;
  std::vector<Stream> streams_;
};

}  // namespace sbft::obs

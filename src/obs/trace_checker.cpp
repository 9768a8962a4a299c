#include "obs/trace_checker.h"

#include <map>
#include <set>

namespace sbft::obs {

std::string CheckReport::summary() const {
  std::string out = "TraceChecker: " + std::to_string(events_checked) +
                    " events, " + std::to_string(violations.size()) +
                    " violation(s)";
  for (const auto& v : violations) out += "\n  violation: " + v;
  for (const auto& n : notes) out += "\n  note: " + n;
  return out;
}

void TraceChecker::add_replica(uint32_t replica, std::vector<TraceEvent> events,
                               uint64_t dropped) {
  streams_.push_back(Stream{replica, std::move(events), dropped});
}

uint64_t TraceChecker::count(Category category, std::string_view name) const {
  uint64_t n = 0;
  for (const auto& s : streams_) {
    for (const auto& e : s.events) {
      if (e.category == category && name == e.name) ++n;
    }
  }
  return n;
}

CheckReport TraceChecker::run() const {
  CheckReport report;
  bool truncated = false;
  for (const auto& s : streams_) {
    report.events_checked += s.events.size();
    if (s.dropped > 0) {
      truncated = true;
      report.notes.push_back("replica " + std::to_string(s.replica) +
                             " dropped " + std::to_string(s.dropped) +
                             " events (ring buffer full)");
    }
  }

  // Invariants 1 + 2: executed digests agree per slot; no re-execution.
  // first_digest maps seq -> (digest prefix, replica that set it).
  std::map<uint64_t, std::pair<uint64_t, uint32_t>> first_digest;
  for (const auto& s : streams_) {
    uint64_t last_seq = 0;
    bool any = false;
    for (const auto& e : s.events) {
      if (e.category != Category::kSlot) continue;
      if (std::string_view(ev::kReplicaRestarted) == e.name) {
        any = false;  // new incarnation: the execution cursor may move back
        continue;
      }
      if (std::string_view(ev::kExecute) != e.name) continue;
      if (any && e.seq <= last_seq) {
        report.violations.push_back(
            "replica " + std::to_string(s.replica) + ": executed seq " +
            std::to_string(e.seq) + " after seq " + std::to_string(last_seq) +
            " (double or out-of-order execution)");
      }
      last_seq = e.seq;
      any = true;
      auto [it, inserted] =
          first_digest.try_emplace(e.seq, std::make_pair(e.arg, s.replica));
      if (!inserted && it->second.first != e.arg) {
        report.violations.push_back(
            "seq " + std::to_string(e.seq) + ": replica " +
            std::to_string(s.replica) + " executed digest prefix " +
            std::to_string(e.arg) + " but replica " +
            std::to_string(it->second.second) + " executed " +
            std::to_string(it->second.first) + " (agreement broken)");
      }
    }
  }

  // Invariant 5: view monotonicity per incarnation. A restart marker resets
  // the cursor (a rebooted replica legitimately starts from its recovered
  // view and works forward).
  for (const auto& s : streams_) {
    uint64_t last_view = 0;
    for (const auto& e : s.events) {
      if (e.category == Category::kSlot &&
          std::string_view(ev::kReplicaRestarted) == e.name) {
        last_view = 0;
        continue;
      }
      if (e.category != Category::kViewChange) continue;
      bool enters_view = std::string_view(ev::kNewViewSent) == e.name ||
                         std::string_view(ev::kViewEntered) == e.name ||
                         std::string_view(ev::kViewAdopted) == e.name;
      if (!enters_view) continue;
      if (e.view < last_view) {
        report.violations.push_back(
            "replica " + std::to_string(s.replica) + ": entered view " +
            std::to_string(e.view) + " after view " +
            std::to_string(last_view) + " (view moved backwards)");
      }
      last_view = e.view;
    }
  }

  // Invariant 6: checkpoint-root agreement — two replicas stabilizing a
  // checkpoint at the same sequence must agree on its state root. Only
  // events that carry the digest argument participate (older traces predate
  // the arg).
  {
    std::map<uint64_t, std::pair<uint64_t, uint32_t>> first_root;
    for (const auto& s : streams_) {
      for (const auto& e : s.events) {
        if (e.category != Category::kCheckpoint ||
            std::string_view(ev::kCheckpointStable) != e.name ||
            e.arg_name == nullptr ||
            std::string_view("digest") != e.arg_name) {
          continue;
        }
        auto [it, inserted] =
            first_root.try_emplace(e.seq, std::make_pair(e.arg, s.replica));
        if (!inserted && it->second.first != e.arg) {
          report.violations.push_back(
              "checkpoint seq " + std::to_string(e.seq) + ": replica " +
              std::to_string(s.replica) + " stabilized state-root prefix " +
              std::to_string(e.arg) + " but replica " +
              std::to_string(it->second.second) + " stabilized " +
              std::to_string(it->second.first) +
              " (checkpoint agreement broken)");
        }
      }
    }
  }

  if (truncated) {
    report.notes.push_back(
        "streams truncated: fast-quorum and session-termination checks "
        "skipped");
    return report;
  }

  // Invariant 3: every fast-committed seq is backed by a collector proof
  // formed from >= fast_quorum(seq) sign-shares. The collector is the only
  // replica that sees the share count, so the proof event may come from a
  // different stream than the commit.
  if (fast_quorum_) {
    std::set<uint64_t> justified;
    for (const auto& s : streams_) {
      for (const auto& e : s.events) {
        if (e.category == Category::kSlot &&
            std::string_view(ev::kFastProofFormed) == e.name &&
            e.arg >= fast_quorum_(e.seq)) {
          justified.insert(e.seq);
        }
      }
    }
    std::set<uint64_t> flagged;
    for (const auto& s : streams_) {
      for (const auto& e : s.events) {
        if (e.category == Category::kSlot &&
            std::string_view(ev::kCommitFast) == e.name &&
            !justified.contains(e.seq) && flagged.insert(e.seq).second) {
          report.violations.push_back(
              "seq " + std::to_string(e.seq) +
              ": fast-committed without a collector proof of >= " +
              std::to_string(fast_quorum_(e.seq)) + " sign-shares");
        }
      }
    }
  }

  // Invariant 4: state-transfer sessions terminate — every opened session
  // span is closed within its replica's stream. A crash marker ends the
  // sessions of the incarnation it stops; the next one numbers its own.
  for (const auto& s : streams_) {
    std::set<uint64_t> open;
    for (const auto& e : s.events) {
      if (e.category == Category::kSlot &&
          std::string_view(ev::kReplicaCrashed) == e.name) {
        open.clear();
      }
      if (e.category != Category::kStateTransfer) continue;
      if (e.phase == EventPhase::kBegin) open.insert(e.span);
      if (e.phase == EventPhase::kEnd) open.erase(e.span);
    }
    for (uint64_t span : open) {
      report.violations.push_back(
          "replica " + std::to_string(s.replica) + ": state-transfer session " +
          std::to_string(span) + " never terminated");
    }
  }

  return report;
}

}  // namespace sbft::obs

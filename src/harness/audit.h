// Cluster-level end-of-run audits (the non-trace half of the fuzzer's
// invariant oracle; docs/fuzzing.md).
//
// The audits are pure functions over snapshots of replica state so the
// invariant checker itself is unit-testable — true-positive and true-negative
// cases in tests/fuzz_test.cpp construct views by hand. Cluster wraps them
// with accessors that collect the views from live replicas.
//
//   * State-root convergence: after every fault is healed and traffic has
//     settled, every live roster member that can fetch (a silent replica
//     never sends, so it cannot) must have executed at least up to the
//     cluster's highest stable checkpoint, and any two live members with the
//     same execution cursor must hold byte-identical service state roots.
//   * Reply-cache consistency: replicas agree on what they replied — two
//     caches holding the same client timestamp must hold the same (seq,
//     value), and a newer timestamp can never map to an older sequence.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "proto/types.h"
#include "runtime/reply_cache.h"

namespace sbft::harness {

/// Per-replica snapshot the convergence audit consumes.
struct ReplicaStateView {
  ReplicaId id = 0;
  bool live = false;    // node is up (not crashed)
  bool member = true;   // part of the active roster (a removed replica is not)
  bool silent = false;  // built silent: never sends, so it never fetches
  SeqNum executed = 0;  // last executed sequence number
  SeqNum stable = 0;    // last stable checkpoint sequence
  Digest state_root{};  // service state digest at `executed`
};

/// State-root convergence audit; one message per violation, empty when clean.
std::vector<std::string> audit_state_convergence(
    const std::vector<ReplicaStateView>& views);

/// Reply-cache consistency audit over (replica id, cache) pairs.
std::vector<std::string> audit_reply_caches(
    const std::vector<std::pair<ReplicaId, const runtime::ReplyCache*>>& caches);

}  // namespace sbft::harness

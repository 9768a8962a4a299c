// Marker-request executor interface (docs/sharding.md).
//
// Reconfiguration (PR 5) established the marker-request pattern: a reserved
// request ordered through the normal agreement path whose execution mutates a
// side-car state machine instead of the replicated service. The cross-shard
// transaction layer (src/shard) generalizes it: Prepare requests lock and
// validate keys in a deterministic lock table, decision markers apply or
// release them. This interface is the runtime-facing half of that contract —
// the runtime's one execution core (shared by live execution and recovery
// replay) routes claimed requests here, and includes the executor's
// serialized state in every checkpoint snapshot envelope so lock state
// survives state transfer exactly like the reply cache does.
//
// The ordering engines use the network-facing half: they forward cross-group
// transaction traffic into on_network(), drain outbound() sends, and order
// the marker requests the executor asks for (take_marker_requests) exactly
// like PR 5's reconfiguration blocks. All hooks are synchronous and the
// executor never touches the simulator — determinism stays with the caller.
#pragma once

#include <utility>
#include <vector>

#include "kv/service.h"
#include "proto/message.h"
#include "sim/cost_model.h"
#include "sim/simulator.h"

namespace sbft::runtime {

class IMarkerExecutor {
 public:
  virtual ~IMarkerExecutor() = default;

  // --- execution half (ReplicaRuntime: live execution and recovery replay) ---

  /// True when this executor owns `req` (reserved client id or magic-prefixed
  /// op). Claimed requests never reach IService::execute directly.
  virtual bool claims(const Request& req) const = 0;

  /// Executes a claimed request at sequence `s`. Must be deterministic given
  /// identical executor/service state — every replica of the group orders the
  /// same blocks, so lock outcomes agree. May mutate the service (applying a
  /// committed transaction's operations). Returns the reply value.
  virtual Bytes execute_marker(const Request& req, SeqNum s,
                               IService& service) = 0;

  /// Simulated CPU cost of the most recent execute_marker call.
  virtual int64_t last_execute_cost_us(const sim::CostModel&) const { return 0; }

  /// Serialized executor state for the checkpoint snapshot envelope, and its
  /// inverse (state transfer / recovery). Must round-trip byte-identically.
  virtual Bytes snapshot() const = 0;
  virtual bool restore(ByteSpan data) = 0;

  // --- network half (ordering engines) ---------------------------------------

  /// Cross-group transaction message (TxVoteMsg / TxDecisionMsg) delivered to
  /// this replica's node; may queue outbound sends and marker requests.
  virtual void on_network(NodeId /*from*/, const Message& /*msg*/,
                          sim::SimTime /*now*/) {}

  /// Periodic retry tick (vote re-sends, decision re-broadcasts, marker
  /// re-enqueues). 0 from tick_interval_us disables the timer.
  virtual void on_tick(sim::SimTime /*now*/) {}
  virtual int64_t tick_interval_us() const { return 0; }

  /// Sends queued by execution/network/tick hooks, pre-resolved to node ids
  /// (the executor owns the deployment directory; engines just send).
  virtual std::vector<std::pair<NodeId, MessagePtr>> take_outbound() {
    return {};
  }

  /// Marker requests awaiting ordering. The primary enqueues them into its
  /// batch queue (deduped by (client, timestamp)); backups drop them — the
  /// tick re-surfaces markers that never committed.
  virtual std::vector<Request> take_marker_requests() { return {}; }
};

}  // namespace sbft::runtime

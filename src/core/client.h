// SBFT client (§V-A): single-message acknowledgement in the common case,
// verified against the execution certificate (Merkle proof + pi threshold
// signature); falls back to PBFT-style f+1 matching replies on timeout.
// PBFT clusters run the same client: they never send execute-acks, so every
// request completes through the f+1 path.
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <vector>

#include "core/crypto_context.h"
#include "proto/config.h"
#include "proto/message.h"
#include "sim/network.h"

namespace sbft::core {

/// What a client must know about one replica group to talk to it.
struct GroupView {
  ProtocolConfig config;
  ReplicaCrypto crypto;  // verifier-only view of the group's keys
  // Per-epoch verifier material after reconfigurations (the operator updates
  // clients alongside replicas; docs/reconfiguration.md). Acks certified
  // under a later epoch's pi scheme verify against these.
  std::shared_ptr<const EpochKeyTable> epoch_keys;
  std::vector<NodeId> replica_nodes;  // replica r at replica_nodes[r - 1]
};

/// Pure acknowledgement check (§V-A): recomputes the execution leaf from the
/// client's identity/timestamp and the returned value, verifies the Merkle
/// path to ops_root, rebuilds the chained execution digest and verifies
/// pi(d_s). Exposed for direct (including adversarial) testing.
bool verify_execute_ack(const ReplicaCrypto& crypto, ClientId client,
                        const ExecuteAckMsg& ack);

/// Signs a client request: charges the client's RSA signature and attaches a
/// size-modelled one (RSA-2048, 256 bytes).
MessagePtr sign_request(Request req, sim::ActorContext& ctx);

/// One client's session with one replica group: the only code that sends a
/// request to a group, retries it, and decides whether the group's answer is
/// acceptable (§V-A) — one execute-ack, or f+1 matching reports each from the
/// replica that sent it.
class GroupSession {
 public:
  explicit GroupSession(GroupView view);

  int64_t retry_timeout_us() const { return config_.client_retry_timeout_us; }

  /// First attempt of a new request: forgets the previous request's reports
  /// and sends to the replica believed to reach the primary (any correct
  /// replica forwards, §V-A).
  void send(const MessagePtr& request, sim::ActorContext& ctx);
  /// Retry: rotates the relay away from a possibly dead node and broadcasts,
  /// so executed replicas answer from their reply caches.
  void retry(const MessagePtr& request, sim::ActorContext& ctx);

  /// Charges and checks an execute-ack under the group's genesis keys, then
  /// under every provisioned epoch's.
  bool verify_ack(ClientId client, const ExecuteAckMsg& ack,
                  sim::ActorContext& ctx) const;

  /// Channel authentication: `replica` is the group member at node `from`.
  bool sent_by(NodeId from, ReplicaId replica) const;
  /// A direct reply passes when its claimed replica is its sender; only then
  /// is its replica signature charged.
  bool admit(NodeId from, const ClientReplyMsg& reply, sim::ActorContext& ctx) const;
  /// Records `replica`'s report for the current request; a later report
  /// replaces an earlier one. Callers authenticate the sender first.
  void tally(ReplicaId replica, const Digest& value);
  /// The value f+1 distinct replicas reported, if any.
  std::optional<Digest> accepted() const;
  /// admit() and tally() of the reply's value; true once f+1 match.
  bool accept_reply(NodeId from, const ClientReplyMsg& reply,
                    sim::ActorContext& ctx);

 private:
  ProtocolConfig config_;
  ReplicaCrypto crypto_;
  std::shared_ptr<const EpochKeyTable> epoch_keys_;
  std::vector<NodeId> replica_nodes_;
  size_t relay_ = 0;  // index into replica_nodes_: believed primary relay
  std::map<ReplicaId, Digest> tally_;
};

struct ClientOptions {
  ClientId id = 0;  // must equal the client's simulator node id
  GroupView group;  // the group this client talks to
  /// Closed-loop request count (§IX: "each client sequentially sends 1000
  /// requests"); 0 means run until the simulation ends.
  uint64_t num_requests = 1000;
  /// Produces the next operation payload (request index for variety).
  std::function<Bytes(uint64_t, Rng&)> op_factory;
};

struct ClientRecord {
  sim::SimTime completed_at = 0;
  int64_t latency_us = 0;
  bool via_fast_ack = false;  // accepted from a single execute-ack
};

class SbftClient final : public sim::IActor {
 public:
  explicit SbftClient(ClientOptions options);

  void on_start(sim::ActorContext& ctx) override;
  void on_message(NodeId from, const Message& msg, sim::ActorContext& ctx) override;
  void on_timer(uint64_t id, sim::ActorContext& ctx) override;

  uint64_t completed() const { return records_.size(); }
  uint64_t retries() const { return retries_; }
  uint64_t rejected_acks() const { return rejected_acks_; }
  const std::vector<ClientRecord>& records() const { return records_; }
  bool done() const {
    return opts_.num_requests != 0 && completed() >= opts_.num_requests;
  }

 private:
  void send_next(sim::ActorContext& ctx);
  void complete(bool fast_ack, sim::ActorContext& ctx);

  ClientOptions opts_;
  GroupSession session_;
  uint64_t timestamp_ = 0;
  MessagePtr request_;  // the outstanding request, kept for retries
  bool outstanding_ = false;
  sim::SimTime sent_at_ = 0;
  uint64_t retries_ = 0;
  uint64_t rejected_acks_ = 0;
  uint64_t timer_gen_ = 0;

  std::vector<ClientRecord> records_;
};

}  // namespace sbft::core

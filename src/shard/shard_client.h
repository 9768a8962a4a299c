// Deployment-level client: multiplexes per-group sessions over the router.
//
// A ShardClient runs the closed-loop workload of a sharded deployment
// (docs/sharding.md). It talks to each group through one core::GroupSession,
// the same send, retry and acceptance code a cluster's SbftClient runs, so
// every report counts only from the replica that sent it. Each request is
// routed by key:
//
//   single-shard (the common case) — the request goes to exactly the owning
//   group and completes through that group's ordinary client protocol: SBFT
//   single execute-ack verified against the group's execution certificate,
//   or the f+1 matching-replies fallback. No 2PC, no cross-group traffic —
//   which is what makes aggregate throughput scale with the group count.
//
//   cross-shard — keys map to several groups: the client builds a ShardTx,
//   sends the same Prepare to every participant group (each orders it
//   independently), and completes once f+1 replicas of EVERY participant
//   group report the same TxResultMsg outcome. Replies to retransmitted
//   prepares that already carry the decision ("TX-COMMITTED"/"TX-ABORTED")
//   count toward the same tally, covering lost result messages.
//
// ClientId == NodeId globally across the deployment, exactly like in-group
// clients: reply caches and execution leaves key on the client id.
#pragma once

#include <memory>
#include <vector>

#include "core/client.h"
#include "shard/router.h"

namespace sbft::shard {

struct ShardClientOptions {
  ClientId id = 0;  // must equal the client's simulator node id
  uint64_t num_requests = 1000;
  std::shared_ptr<const Router> router;
  std::vector<core::GroupView> groups;  // index == group id
  /// Every Nth request (1-based) is a two-key cross-shard transfer;
  /// 0 disables cross-shard traffic entirely.
  uint32_t cross_shard_every = 0;
  /// Distinct keys the workload draws from (smaller => more lock conflicts).
  uint32_t keyspace = 100'000;
};

struct ShardClientRecord {
  sim::SimTime completed_at = 0;
  int64_t latency_us = 0;
  bool cross_shard = false;
  bool committed = true;  // false only for aborted cross-shard transactions
};

class ShardClient final : public sim::IActor {
 public:
  explicit ShardClient(ShardClientOptions options);

  void on_start(sim::ActorContext& ctx) override;
  void on_message(NodeId from, const Message& msg, sim::ActorContext& ctx) override;
  void on_timer(uint64_t id, sim::ActorContext& ctx) override;

  uint64_t completed() const { return records_.size(); }
  uint64_t retries() const { return retries_; }
  uint64_t cross_shard_commits() const { return cross_commits_; }
  uint64_t cross_shard_aborts() const { return cross_aborts_; }
  const std::vector<ShardClientRecord>& records() const { return records_; }
  bool done() const {
    return opts_.num_requests != 0 && completed() >= opts_.num_requests;
  }

 private:
  void send_next(sim::ActorContext& ctx);
  void complete(bool committed, sim::ActorContext& ctx);
  /// Records one participant replica's cross-shard outcome and completes
  /// once every participant group certified one.
  void tally_outcome(uint32_t group, ReplicaId replica, bool committed,
                     sim::ActorContext& ctx);

  ShardClientOptions opts_;
  std::vector<core::GroupSession> sessions_;  // index == group id
  uint64_t timestamp_ = 0;
  bool outstanding_ = false;
  sim::SimTime sent_at_ = 0;
  uint64_t retries_ = 0;
  uint64_t timer_gen_ = 0;

  // Current request (kept for retransmission).
  bool cross_shard_ = false;
  MessagePtr request_;
  uint64_t txid_ = 0;            // cross-shard: the transaction id
  std::vector<uint32_t> groups_;  // the owning group, or the participants

  uint64_t cross_commits_ = 0;
  uint64_t cross_aborts_ = 0;
  std::vector<ShardClientRecord> records_;
};

}  // namespace sbft::shard

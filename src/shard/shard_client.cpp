#include "shard/shard_client.h"

#include <algorithm>

#include "crypto/sha256.h"
#include "kv/kv_service.h"

namespace sbft::shard {

namespace {
const char* outcome_value(bool committed) {
  return committed ? "TX-COMMITTED" : "TX-ABORTED";
}
}  // namespace

ShardClient::ShardClient(ShardClientOptions options) : opts_(std::move(options)) {
  SBFT_CHECK(opts_.router != nullptr);
  SBFT_CHECK(opts_.groups.size() == opts_.router->num_groups());
  SBFT_CHECK(!opts_.groups.empty());
  for (core::GroupView& g : opts_.groups) sessions_.emplace_back(std::move(g));
}

void ShardClient::on_start(sim::ActorContext& ctx) { send_next(ctx); }

void ShardClient::send_next(sim::ActorContext& ctx) {
  if (done()) return;
  ++timestamp_;
  outstanding_ = true;
  sent_at_ = ctx.now();
  groups_.clear();

  const uint64_t index = completed();
  auto make_key = [&] {
    return to_bytes("key-" + std::to_string(ctx.rng().below(opts_.keyspace)));
  };
  Request req;
  cross_shard_ = opts_.cross_shard_every != 0 && sessions_.size() > 1 &&
                 (index + 1) % opts_.cross_shard_every == 0;
  if (cross_shard_) {
    // A two-key transfer across distinct groups; a bounded draw, falling back
    // to a single-shard request on the (vanishing) chance of no second group.
    Bytes k1 = make_key();
    const uint32_t g1 = opts_.router->group_of(as_span(k1));
    Bytes k2;
    uint32_t g2 = g1;
    for (int tries = 0; tries < 64 && g2 == g1; ++tries) {
      k2 = make_key();
      g2 = opts_.router->group_of(as_span(k2));
    }
    if (g2 == g1) {
      cross_shard_ = false;
    } else {
      const Bytes tag = to_bytes("t" + std::to_string(opts_.id) + "-" +
                                 std::to_string(index));
      std::map<uint32_t, std::vector<Bytes>> slices;
      slices[g1].push_back(kv::encode_put(as_span(k1), as_span(tag)));
      slices[g2].push_back(kv::encode_put(as_span(k2), as_span(tag)));
      ShardTx tx;
      tx.txid = (static_cast<uint64_t>(opts_.id) << 32) | timestamp_;
      for (auto& [g, ops] : slices) {  // std::map: groups come out ascending
        tx.shards.push_back({g, std::move(ops)});
        groups_.push_back(g);
      }
      tx.coordinator = tx.shards.front().group;
      txid_ = tx.txid;
      req = make_tx_prepare_request(tx, opts_.id, timestamp_);
    }
  }
  if (!cross_shard_) {
    Bytes key = make_key();
    groups_.push_back(opts_.router->group_of(as_span(key)));
    const Bytes value = to_bytes("v" + std::to_string(index));
    req = {opts_.id, timestamp_, kv::encode_put(as_span(key), as_span(value)), {}};
  }

  request_ = core::sign_request(std::move(req), ctx);
  // The owning group orders a single-shard request; every participant group
  // orders its own copy of a Prepare.
  for (uint32_t g : groups_) sessions_[g].send(request_, ctx);
  ctx.set_timer(sessions_[groups_.front()].retry_timeout_us(), ++timer_gen_);
}

void ShardClient::complete(bool committed, sim::ActorContext& ctx) {
  outstanding_ = false;
  ShardClientRecord rec;
  rec.completed_at = ctx.now();
  rec.latency_us = ctx.now() - sent_at_;
  rec.cross_shard = cross_shard_;
  rec.committed = committed;
  if (cross_shard_) committed ? ++cross_commits_ : ++cross_aborts_;
  records_.push_back(rec);
  send_next(ctx);
}

void ShardClient::tally_outcome(uint32_t group, ReplicaId replica,
                                bool committed, sim::ActorContext& ctx) {
  sessions_[group].tally(replica, crypto::sha256(outcome_value(committed)));
  bool all_committed = true;
  for (uint32_t g : groups_) {
    const std::optional<Digest> decided = sessions_[g].accepted();
    if (!decided) return;  // this group has not certified an outcome yet
    if (*decided != crypto::sha256(outcome_value(true))) all_committed = false;
  }
  complete(all_committed, ctx);
}

void ShardClient::on_message(NodeId from, const Message& msg,
                             sim::ActorContext& ctx) {
  if (!outstanding_) return;
  if (const auto* ack = std::get_if<ExecuteAckMsg>(&msg)) {
    if (cross_shard_) return;  // prepare acks do not decide a transaction
    if (ack->client != opts_.id || ack->timestamp != timestamp_) return;
    if (sessions_[groups_.front()].verify_ack(opts_.id, *ack, ctx)) {
      complete(/*committed=*/true, ctx);
    }
    return;
  }
  if (const auto* reply = std::get_if<ClientReplyMsg>(&msg)) {
    if (reply->client != opts_.id || reply->timestamp != timestamp_) return;
    if (!cross_shard_) {
      if (sessions_[groups_.front()].accept_reply(from, *reply, ctx)) {
        complete(/*committed=*/true, ctx);
      }
      return;
    }
    for (uint32_t g : groups_) {
      if (!sessions_[g].admit(from, *reply, ctx)) continue;
      // A retransmitted Prepare executed after the decision replies with the
      // outcome from the group's cache — as good as a TxResultMsg.
      if (reply->value == to_bytes(outcome_value(true))) {
        tally_outcome(g, reply->replica, true, ctx);
      } else if (reply->value == to_bytes(outcome_value(false))) {
        tally_outcome(g, reply->replica, false, ctx);
      }
      return;
    }
    return;
  }
  if (const auto* res = std::get_if<TxResultMsg>(&msg)) {
    if (!cross_shard_ || res->txid != txid_) return;
    if (std::find(groups_.begin(), groups_.end(), res->group) == groups_.end()) {
      return;
    }
    if (!sessions_[res->group].sent_by(from, res->replica)) return;
    tally_outcome(res->group, res->replica, res->committed, ctx);
  }
}

void ShardClient::on_timer(uint64_t id, sim::ActorContext& ctx) {
  if (!outstanding_ || id != timer_gen_) return;
  ++retries_;
  for (uint32_t g : groups_) sessions_[g].retry(request_, ctx);
  ctx.set_timer(sessions_[groups_.front()].retry_timeout_us(), ++timer_gen_);
}

}  // namespace sbft::shard

#include "core/client.h"

#include "crypto/sha256.h"

namespace sbft::core {

bool verify_execute_ack(const ReplicaCrypto& crypto, ClientId client,
                        const ExecuteAckMsg& ack) {
  Digest leaf = exec_leaf(client, ack.timestamp, crypto::sha256(as_span(ack.value)));
  if (!merkle::BlockMerkleTree::verify(ack.cert.ops_root, leaf, ack.proof))
    return false;
  return crypto.pi_verifier->verify(ack.cert.exec_digest(),
                                    as_span(ack.cert.pi_sig));
}

MessagePtr sign_request(Request req, sim::ActorContext& ctx) {
  ctx.charge(ctx.costs().rsa_sign_us);
  req.client_sig = Bytes(256, 0xab);
  return make_message(ClientRequestMsg{std::move(req)});
}

// ---------------------------------------------------------------------------
// GroupSession

GroupSession::GroupSession(GroupView view)
    : config_(std::move(view.config)),
      crypto_(std::move(view.crypto)),
      epoch_keys_(std::move(view.epoch_keys)),
      replica_nodes_(std::move(view.replica_nodes)) {
  SBFT_CHECK(replica_nodes_.size() == config_.n());
}

void GroupSession::send(const MessagePtr& request, sim::ActorContext& ctx) {
  tally_.clear();
  ctx.send(replica_nodes_[relay_], request);
}

void GroupSession::retry(const MessagePtr& request, sim::ActorContext& ctx) {
  relay_ = (relay_ + 1) % replica_nodes_.size();
  for (NodeId node : replica_nodes_) ctx.send(node, request);
}

bool GroupSession::verify_ack(ClientId client, const ExecuteAckMsg& ack,
                              sim::ActorContext& ctx) const {
  ctx.charge(ctx.costs().hash_us(512));
  ctx.charge(ctx.costs().bls_verify_combined_us);
  if (verify_execute_ack(crypto_, client, ack)) return true;
  // After a reconfiguration the certificate's pi signature belongs to a
  // later epoch's scheme — try every provisioned epoch's verifier.
  if (epoch_keys_) {
    for (const auto& [id, keys] : epoch_keys_->epochs()) {
      if (verify_execute_ack(ReplicaCrypto::verifier_only(keys), client, ack)) {
        return true;
      }
    }
  }
  return false;
}

bool GroupSession::sent_by(NodeId from, ReplicaId replica) const {
  return replica >= 1 && replica <= replica_nodes_.size() &&
         replica_nodes_[replica - 1] == from;
}

bool GroupSession::admit(NodeId from, const ClientReplyMsg& reply,
                         sim::ActorContext& ctx) const {
  if (!sent_by(from, reply.replica)) return false;
  // Each reply carries a replica signature the client must verify — the
  // f+1 acknowledgement cost that SBFT's ingredient 3 removes (§V-A).
  ctx.charge(ctx.costs().rsa_verify_us);
  return true;
}

void GroupSession::tally(ReplicaId replica, const Digest& value) {
  tally_[replica] = value;
}

std::optional<Digest> GroupSession::accepted() const {
  std::map<Digest, uint32_t> counts;
  for (const auto& [replica, value] : tally_) ++counts[value];
  for (const auto& [value, count] : counts) {
    if (count >= config_.f + 1) return value;
  }
  return std::nullopt;
}

bool GroupSession::accept_reply(NodeId from, const ClientReplyMsg& reply,
                                sim::ActorContext& ctx) {
  if (!admit(from, reply, ctx)) return false;
  tally(reply.replica, crypto::sha256(as_span(reply.value)));
  return accepted().has_value();
}

// ---------------------------------------------------------------------------
// SbftClient

SbftClient::SbftClient(ClientOptions options)
    : opts_(std::move(options)), session_(std::move(opts_.group)) {
  SBFT_CHECK(opts_.op_factory != nullptr);
}

void SbftClient::on_start(sim::ActorContext& ctx) { send_next(ctx); }

void SbftClient::send_next(sim::ActorContext& ctx) {
  if (done()) return;
  Bytes op = opts_.op_factory(completed(), ctx.rng());
  ++timestamp_;
  outstanding_ = true;
  sent_at_ = ctx.now();
  request_ = sign_request({opts_.id, timestamp_, std::move(op), {}}, ctx);
  session_.send(request_, ctx);
  ctx.set_timer(session_.retry_timeout_us(), ++timer_gen_);
}

void SbftClient::complete(bool fast_ack, sim::ActorContext& ctx) {
  outstanding_ = false;
  ClientRecord rec;
  rec.completed_at = ctx.now();
  rec.latency_us = ctx.now() - sent_at_;
  rec.via_fast_ack = fast_ack;
  records_.push_back(rec);
  send_next(ctx);
}

void SbftClient::on_message(NodeId from, const Message& msg,
                            sim::ActorContext& ctx) {
  if (!outstanding_) return;
  if (const auto* ack = std::get_if<ExecuteAckMsg>(&msg)) {
    if (ack->client != opts_.id || ack->timestamp != timestamp_) return;
    if (!session_.verify_ack(opts_.id, *ack, ctx)) {
      ++rejected_acks_;
      return;
    }
    complete(/*fast_ack=*/true, ctx);
    return;
  }
  if (const auto* reply = std::get_if<ClientReplyMsg>(&msg)) {
    if (reply->client != opts_.id || reply->timestamp != timestamp_) return;
    if (session_.accept_reply(from, *reply, ctx)) complete(/*fast_ack=*/false, ctx);
  }
}

void SbftClient::on_timer(uint64_t id, sim::ActorContext& ctx) {
  if (!outstanding_ || id != timer_gen_) return;
  ++retries_;
  session_.retry(request_, ctx);
  ctx.set_timer(session_.retry_timeout_us(), ++timer_gen_);
}

}  // namespace sbft::core

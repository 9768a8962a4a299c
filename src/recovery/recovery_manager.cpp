#include "recovery/recovery_manager.h"

#include <algorithm>

#include "crypto/sha256.h"
#include "merkle/merkle_tree.h"
#include "proto/message.h"
#include "runtime/snapshot.h"

namespace sbft::recovery {

std::optional<RecoveredState> RecoveryManager::recover(
    const std::function<std::unique_ptr<IService>()>& service_factory) const {
  WalState wal_state = wal_ ? wal_->load() : WalState{};
  SeqNum ledger_last = ledger_ ? ledger_->last_seq() : 0;
  if (wal_state.empty() && ledger_last == 0) return std::nullopt;  // fresh boot

  RecoveredState out;
  out.view = wal_state.view;
  out.service = service_factory();
  out.service->set_snapshot_chunk_hint(snapshot_align_);

  // 1. Restore the checkpoint snapshot envelope: the service part verified
  // against the certificate, plus the persisted per-client reply cache.
  if (wal_state.last_stable > 0) {
    auto decoded = runtime::decode_checkpoint_snapshot(as_span(wal_state.snapshot));
    if (!decoded) return std::nullopt;  // corrupt envelope (e.g. cache section)
    if (!out.service->restore(as_span(decoded->service_state))) return std::nullopt;
    if (!(out.service->state_digest() == wal_state.checkpoint.state_root))
      return std::nullopt;  // snapshot does not match the certified root
    out.reply_cache = std::move(decoded->replies);
    if (marker_executor_ != nullptr) {
      // Marker-executor (cross-shard lock/tx) state as of the checkpoint;
      // replay advances it alongside the service and reply cache.
      marker_executor_->restore(as_span(decoded->marker));
    }
    out.last_stable = wal_state.last_stable;
    out.checkpoint = wal_state.checkpoint;
    out.snapshot = wal_state.snapshot;
    out.exec_digests[out.last_stable] = wal_state.checkpoint.exec_digest();
    // Membership as of the stable checkpoint; anything staged there and
    // already past its boundary activated before the crash.
    out.membership.restore(as_span(decoded->membership));
    out.membership.activate_up_to(out.last_stable);
  } else {
    out.exec_digests[0] = genesis_exec_digest();
    // No checkpoint: the executor starts from scratch (its pre-crash state
    // was in volatile memory; replay below rebuilds it from the ledger).
    if (marker_executor_ != nullptr) marker_executor_->restore({});
  }
  out.last_executed = out.last_stable;

  // 2. Replay the contiguous ledger suffix past the checkpoint. Blocks are
  // persisted at execution time, so the ledger extends exactly to the
  // pre-crash last-executed sequence (modulo a torn tail, which load_index
  // already truncated away).
  for (SeqNum s = out.last_executed + 1; ledger_ && s <= ledger_last; ++s) {
    auto encoded = ledger_->read_block(s);
    if (!encoded) break;  // gap: everything beyond is unusable
    auto msg = decode_message(as_span(*encoded));
    if (!msg || !std::holds_alternative<PrePrepareMsg>(*msg)) break;
    const auto& pp = std::get<PrePrepareMsg>(*msg);

    ReplayedBlock rb;
    rb.seq = s;
    rb.view = pp.view;
    rb.block = pp.block;
    for (size_t l = 0; l < rb.block.requests().size(); ++l) {
      const Request& req = rb.block.requests()[l];
      Bytes value;
      if (auto delta = decode_reconfig_request(req)) {
        // Reconfiguration marker: re-staged, never executed on the service —
        // replay must mirror live execution byte-for-byte (the leaves and
        // re-captured envelopes feed certified state).
        bool staged = out.membership.stage(*delta, s, checkpoint_interval_);
        value = to_bytes(staged ? "RECONF" : "RECONF-REJECTED");
      } else if (req.client == kReconfigClient) {
        value = to_bytes("RECONF-REJECTED");
      } else if (req.client == kShardTxClient) {
        // Cross-shard decision marker: routed to the marker executor, which
        // dedups by txid (the reply cache never sees this reserved client).
        // Branch order mirrors ReplicaRuntime::execute_block exactly — the
        // values feed the re-derived leaves and exec digests.
        if (marker_executor_ != nullptr && marker_executor_->claims(req)) {
          value = marker_executor_->execute_marker(req, s, *out.service);
        } else {
          value = to_bytes("TX-REJECTED");
        }
      } else if (const runtime::CachedReply* cached =
                     out.reply_cache.find(req.client);
                 cached != nullptr && req.timestamp <= cached->timestamp) {
        // Duplicate of a request already executed — within the suffix or, via
        // the restored cache, before the checkpoint. Must not execute twice.
        value = cached->value;
      } else if (marker_executor_ != nullptr && marker_executor_->claims(req)) {
        // Transaction Prepare from a real client: executed by the marker
        // executor, cached like any client request.
        value = marker_executor_->execute_marker(req, s, *out.service);
        out.reply_cache.store(req.client, req.timestamp, s, l, value);
      } else {
        value = out.service->execute(as_span(req.op));
        out.reply_cache.store(req.client, req.timestamp, s, l, value);
      }
      rb.leaves.push_back(
          exec_leaf(req.client, req.timestamp, crypto::sha256(as_span(value))));
      rb.values.push_back(std::move(value));
    }
    rb.cert.seq = s;
    rb.cert.state_root = out.service->state_digest();
    rb.cert.ops_root = rb.leaves.empty() ? empty_ops_root()
                                         : merkle::BlockMerkleTree(rb.leaves).root();
    rb.cert.prev_exec_digest = out.exec_digests[s - 1];
    out.exec_digests[s] = rb.cert.exec_digest();
    out.last_executed = s;
    out.replayed_bytes += encoded->size();
    out.replayed.push_back(std::move(rb));
    if (checkpoint_interval_ > 0 && s % checkpoint_interval_ == 0) {
      out.snapshot_seq = s;
      Bytes marker =
          marker_executor_ != nullptr ? marker_executor_->snapshot() : Bytes{};
      out.snapshot_at = runtime::encode_checkpoint_snapshot(
          as_span(out.service->snapshot()), out.reply_cache, snapshot_align_,
          as_span(out.membership.encode()), as_span(marker));
    }
  }

  // 3. Surface votes for slots still in flight (not yet executed).
  for (const WalVote& v : wal_state.votes) {
    if (v.seq > out.last_executed) out.votes.push_back(v);
  }
  std::sort(out.votes.begin(), out.votes.end(),
            [](const WalVote& a, const WalVote& b) {
              return a.seq != b.seq ? a.seq < b.seq : a.view < b.view;
            });
  return out;
}

}  // namespace sbft::recovery

#include "pbft/pbft_replica.h"

#include <algorithm>
#include <set>

#include "common/serde.h"
#include "crypto/hmac.h"
#include "crypto/sha256.h"
#include "runtime/snapshot.h"

namespace sbft::pbft {

Bytes CheckpointAuth::sign(ReplicaId replica, SeqNum seq,
                          const Digest& state_root) const {
  Writer key;
  key.raw(as_span(secret_));
  key.u32(replica);
  Digest replica_key = crypto::sha256(as_span(key.data()));
  Writer msg;
  msg.str("pbft.checkpoint");
  msg.u64(seq);
  msg.digest(state_root);
  Digest mac = crypto::hmac_sha256(as_span(replica_key), as_span(msg.data()));
  return Bytes(mac.begin(), mac.end());
}

bool CheckpointAuth::verify(ReplicaId replica, SeqNum seq,
                            const Digest& state_root, ByteSpan sig) const {
  Bytes expect = sign(replica, seq, state_root);
  return sig.size() == expect.size() &&
         std::equal(sig.begin(), sig.end(), expect.begin());
}

PbftReplica::PbftReplica(PbftOptions options, std::unique_ptr<IService> service)
    : EngineShell(std::move(options), std::move(service)),
      fabricate_checkpoint_(options.fabricate_checkpoint),
      checkpoint_auth_(std::move(options.checkpoint_auth)) {
  SBFT_CHECK(opts_.config.c == 0);  // PBFT sizing: n = 3f + 1
}

PbftStats PbftReplica::stats() const {
  PbftStats merged = stats_;
  // The protocol-agnostic counters live in the runtime; the base subobject of
  // stats_ stays zero, so slicing the runtime's copy in is a plain overwrite.
  static_cast<runtime::RuntimeStats&>(merged) = runtime_.stats();
  merged.view_changes = view_changes_;
  merged.noop_fill_blocks = noop_fill_blocks_;
  return merged;
}

std::optional<Digest> PbftReplica::committed_digest_of(SeqNum s) const {
  auto it = slots_.find(s);
  if (it != slots_.end() && it->second.committed) return it->second.block_digest;
  if (const runtime::ExecutionRecord* rec = runtime_.record(s)) {
    return rec->block.digest();
  }
  return std::nullopt;
}

void PbftReplica::on_engine_message(const Message& msg, sim::ActorContext& ctx) {
  std::visit(
      [&](const auto& m) {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, PrePrepareMsg>) {
          handle_pre_prepare(m, ctx);
        } else if constexpr (std::is_same_v<T, PbftPrepareMsg>) {
          handle_prepare(m, ctx);
        } else if constexpr (std::is_same_v<T, PbftCommitMsg>) {
          handle_commit(m, ctx);
        } else if constexpr (std::is_same_v<T, PbftCheckpointMsg>) {
          handle_checkpoint(m, ctx);
        }
      },
      msg);
}

// ---------------------------------------------------------------------------
// Normal case

uint64_t PbftReplica::in_flight_requests() const {
  uint64_t requests = 0;
  for (auto it = slots_.upper_bound(le());
       it != slots_.end() && it->first < next_seq_; ++it) {
    if (it->second.block) requests += it->second.block->requests().size();
  }
  return requests;
}

void PbftReplica::propose_block(SeqNum s, SealedBlock block, sim::ActorContext& ctx) {
  ctx.charge(ctx.costs().hash_us(block.wire_size()) + ctx.costs().rsa_sign_us);
  broadcast_replicas(ctx, make_message(PrePrepareMsg{s, view_, std::move(block)}));
}

void PbftReplica::handle_pre_prepare(const PrePrepareMsg& m, sim::ActorContext& ctx) {
  if (in_view_change_ || m.view != view_ || retired_) return;
  if (m.seq <= ls() || m.seq > ls() + opts_.config.win) return;
  if (SeqNum gate = reconfig_gate(); gate > 0 && m.seq > gate) return;
  Slot& sl = slots_[m.seq];
  if (sl.has_pp && sl.pp_view >= m.view) return;
  // Verify the primary's signature and every client request signature on a
  // worker lane; acceptance (WAL vote, prepare broadcast) continues serially.
  // The entry guards re-run in the completion.
  int64_t cost = ctx.costs().rsa_verify_us *
                 static_cast<int64_t>(1 + m.block.requests().size());
  auto verified = [this, shared = ctx.share(m)](sim::ActorContext& c) {
    const PrePrepareMsg& m = *shared;
    if (in_view_change_ || m.view != view_ || retired_) return;
    if (m.seq <= ls() || m.seq > ls() + opts_.config.win) return;
    if (SeqNum gate = reconfig_gate(); gate > 0 && m.seq > gate) return;
    accept_pre_prepare(m.seq, m.view, m.block, c);
  };
  static_assert(sim::Handler::stores_inline<decltype(verified)>());
  ctx.offload(cost, std::move(verified));
}

void PbftReplica::accept_pre_prepare(SeqNum s, ViewNum v, SealedBlock block,
                                     sim::ActorContext& ctx) {
  if (retired_) return;
  // Only members of the slot's epoch vote (a joiner hears the enlarged
  // cluster's broadcasts before it has adopted the epoch that admits it).
  if (!epoch_for_seq(s).contains(opts_.id)) return;
  Slot& sl = slots_[s];
  Digest digest = block.digest();
  // Shadow of the activation boundary: slots beyond a marker-bearing block
  // wait until the marker executes and stages.
  note_reconfig_markers(s, *block);
  // Write-ahead contract: the vote is durable before the prepare leaves.
  if (!record_vote(s, v, digest)) return;
  sl.has_pp = true;
  sl.pp_view = v;
  sl.block_digest = digest;
  sl.h = slot_hash(s, v, sl.block_digest);
  sl.block = std::move(block);
  sl.pp_time = ctx.now();
  // Slot span id folds the view in: re-accepting the slot at a higher view
  // (after a view change) opens a fresh span rather than reusing the old id.
  trace_.begin(ctx.now(), obs::Category::kSlot, obs::ev::kSlot, (v << 32) | s,
               s, v);
  ctx.charge(ctx.costs().hash_us(64));

  if (!sl.sent_prepare) {
    sl.sent_prepare = true;
    sl.prepares.insert(opts_.id);
    ctx.charge(ctx.costs().rsa_sign_us);  // sign once, broadcast copies
    broadcast_replicas(ctx, make_message(PbftPrepareMsg{s, v, sl.h, opts_.id}));
  }
  arm_progress_timer(ctx);
  check_prepared(s, ctx);
}

void PbftReplica::handle_prepare(const PbftPrepareMsg& m, sim::ActorContext& ctx) {
  if (in_view_change_ || m.view != view_ || retired_) return;
  if (m.seq <= ls() || m.seq > ls() + opts_.config.win) return;
  if (!epoch_for_seq(m.seq).contains(m.replica)) return;
  // The all-to-all quadratic verification cost — the offload is what lets a
  // multi-core PBFT replica absorb 3f+1 prepares per slot in parallel.
  auto verified = [this, shared = ctx.share(m)](sim::ActorContext& c) {
    const PbftPrepareMsg& m = *shared;
    if (in_view_change_ || m.view != view_ || retired_) return;
    if (m.seq <= ls() || m.seq > ls() + opts_.config.win) return;
    Slot& sl = slots_[m.seq];
    if (sl.has_pp && !(m.h == sl.h)) return;
    sl.prepares.insert(m.replica);
    check_prepared(m.seq, c);
  };
  static_assert(sim::Handler::stores_inline<decltype(verified)>());
  ctx.offload(ctx.costs().rsa_verify_us, std::move(verified));
}

void PbftReplica::check_prepared(SeqNum s, sim::ActorContext& ctx) {
  Slot& sl = slots_[s];
  if (sl.prepared || !sl.has_pp) return;
  if (sl.prepares.size() < epoch_for_seq(s).slow_quorum()) return;  // 2f+1
  sl.prepared = true;
  // Runtime evidence layer (shared with SBFT): a PBFT view change re-ships
  // the prepared certificate's block, so the record carries it.
  runtime_.evidence().record_prepared(s, sl.pp_view, sl.h, /*sig=*/{},
                                      sl.block);
  trace_.instant(ctx.now(), obs::Category::kSlot, obs::ev::kPrepareFormed,
                 (sl.pp_view << 32) | s, s, sl.pp_view, "prepares",
                 sl.prepares.size());
  if (!sl.sent_commit) {
    sl.sent_commit = true;
    sl.commits.insert(opts_.id);
    ctx.charge(ctx.costs().rsa_sign_us);
    broadcast_replicas(ctx, make_message(PbftCommitMsg{s, sl.pp_view, sl.h, opts_.id}));
  }
  check_committed(s, ctx);
}

void PbftReplica::handle_commit(const PbftCommitMsg& m, sim::ActorContext& ctx) {
  if (in_view_change_ || m.view != view_ || retired_) return;
  if (m.seq <= ls() || m.seq > ls() + opts_.config.win) return;
  if (!epoch_for_seq(m.seq).contains(m.replica)) return;
  auto verified = [this, shared = ctx.share(m)](sim::ActorContext& c) {
    const PbftCommitMsg& m = *shared;
    if (in_view_change_ || m.view != view_ || retired_) return;
    if (m.seq <= ls() || m.seq > ls() + opts_.config.win) return;
    Slot& sl = slots_[m.seq];
    if (sl.has_pp && !(m.h == sl.h)) return;
    sl.commits.insert(m.replica);
    check_committed(m.seq, c);
  };
  static_assert(sim::Handler::stores_inline<decltype(verified)>());
  ctx.offload(ctx.costs().rsa_verify_us, std::move(verified));
}

void PbftReplica::check_committed(SeqNum s, sim::ActorContext& ctx) {
  Slot& sl = slots_[s];
  if (sl.committed || !sl.prepared) return;
  if (sl.commits.size() < epoch_for_seq(s).slow_quorum()) return;  // 2f+1
  sl.committed = true;
  sl.commit_time = ctx.now();
  if (sl.pp_time > 0) h_pp_to_commit_->record(ctx.now() - sl.pp_time);
  // PBFT's three-phase commit is the slow path by construction.
  trace_.instant(ctx.now(), obs::Category::kSlot, obs::ev::kCommitSlow,
                 (sl.pp_view << 32) | s, s, sl.pp_view, "digest",
                 obs::digest_prefix(sl.block_digest.data()));
  try_execute(ctx);
}

void PbftReplica::try_execute(sim::ActorContext& ctx) {
  for (;;) {
    SeqNum s = le() + 1;
    auto it = slots_.find(s);
    if (it == slots_.end() || !it->second.committed || !it->second.block) return;
    Slot& sl = it->second;
    // The runtime executes the block (dedup through the reply cache),
    // persists it, and captures the checkpoint snapshot at interval
    // multiples.
    runtime::ExecutionRecord& rec =
        runtime_.execute_block(s, sl.pp_view, *sl.block, ctx);
    if (sl.commit_time > 0) h_commit_to_exec_->record(ctx.now() - sl.commit_time);
    trace_.end(ctx.now(), obs::Category::kSlot, obs::ev::kSlot,
               (sl.pp_view << 32) | s, s, sl.pp_view);
    for (size_t l = 0; l < rec.block.requests().size(); ++l) {
      const Request& req = rec.block.requests()[l];
      ctx.charge(ctx.costs().rsa_sign_us / 4);  // replies signed, amortized batch
      send_reply(ctx, req.client, req.timestamp, s, rec.values[l]);
    }

    // Quadratic PBFT checkpoint protocol (§V-F contrasts against this). The
    // vote carries this replica's checkpoint signature — f+1 of them form
    // the weak certificate state transfer ships, and donors attach up to
    // 2f+1 when available (docs/reconfiguration.md).
    if (s % opts_.config.checkpoint_interval() == 0) {
      ctx.charge(ctx.costs().rsa_sign_us);
      PbftCheckpointMsg ckpt{s, rec.cert.state_root, opts_.id, {}};
      if (checkpoint_auth_) {
        ckpt.sig = checkpoint_auth_->sign(opts_.id, s, rec.cert.state_root);
      }
      broadcast_replicas(ctx, make_message(std::move(ckpt)));
    }
  }
}

/// A true execution gap: the replica cannot execute its next sequence from
/// the slots it holds, while evidence exists that the cluster moved past it.
///
/// Two shapes qualify. No pre-prepare for the next sequence while later
/// slots exist: those blocks were delivered while this replica was away and
/// will never be re-sent — only a newer checkpoint can close the gap. (A
/// merely *lagging* replica, whose next slot is present but not yet
/// committed, needs no state transfer.)
///
/// Or an *uncommitted pre-prepare from an older view* for the next sequence:
/// prepares and commits are matched against the current view, and a
/// new-view that re-chose the slot would have replaced pp_view via the
/// normal acceptance path, so a stale pp can never complete — it is as good
/// as missing, with no "later slots" requirement (the checkpoint evidence
/// that gates the state-transfer triggers is itself the proof that the
/// cluster moved on). Found by the schedule fuzzer (seed 91): the old
/// primary, stranded by a partition and then by a solo view change, kept
/// its own dead view-0 pre-prepare as its *only* slot past le(), which
/// defeated every checkpoint-evidence state-transfer trigger forever.
bool PbftReplica::execution_gap() const {
  if (slots_.empty()) return false;
  auto next = slots_.find(le() + 1);
  if (next != slots_.end() && next->second.has_pp) {
    return !next->second.committed && next->second.pp_view < view_;
  }
  return slots_.rbegin()->first > le() + 1;
}

void PbftReplica::handle_checkpoint(const PbftCheckpointMsg& m, sim::ActorContext& ctx) {
  // Votes for the *current* stable checkpoint keep accumulating (f+1 make it
  // stable and servable; donors still like to ship up to 2f+1 shares); only
  // strictly older ones are dropped.
  if (m.seq < ls()) return;
  if (!epoch_for_seq(m.seq).contains(m.replica)) return;
  auto verified = [this, shared = ctx.share(m)](sim::ActorContext& c) {
    handle_checkpoint_verified(*shared, c);
  };
  static_assert(sim::Handler::stores_inline<decltype(verified)>());
  ctx.offload(ctx.costs().rsa_verify_us, std::move(verified));
}

void PbftReplica::handle_checkpoint_verified(const PbftCheckpointMsg& m,
                                             sim::ActorContext& ctx) {
  if (m.seq < ls()) return;  // stability may have advanced mid-verification
  // A signature that fails verification never enters the vote set — the
  // checkpoint protocol itself is hardened, not just state transfer.
  if (checkpoint_auth_ &&
      !checkpoint_auth_->verify(m.replica, m.seq, m.state_digest,
                                     as_span(m.sig))) {
    return;
  }
  auto& votes = checkpoint_votes_[m.seq][m.state_digest];
  votes.emplace(m.replica, m.sig);
  if (m.seq == ls()) return;  // already stable: certificate material only
  if (votes.size() < epoch_for_seq(m.seq).exec_quorum()) return;  // f+1
  if (m.seq > le()) {
    // A stable checkpoint exists beyond what we executed. If we truly slept
    // through the missing blocks (restart, partition), catch up via state
    // transfer; if we merely lag with the slots in hand, just execute.
    // Three silent-sleep shapes need the extra triggers (schedule fuzzer,
    // seeds 5 and 91): an *empty* slot map (a replica that adopted a
    // checkpoint far behind the live frontier drops every current
    // pre-prepare as out-of-window); a stable checkpoint a full window past
    // le() — by then the quorum has garbage-collected the votes for our next
    // slot, so a pre-prepare we hold without its prepares will never
    // complete; and a *pending view change* — while it lasts this replica
    // drops prepares and commits, so the slots in hand cannot complete
    // either, and checkpoint evidence arriving now means a quorum is
    // executing in a view we left (a solo view change nobody joins wedges
    // forever otherwise).
    if (execution_gap() || slots_.empty() || in_view_change_ ||
        m.seq > le() + opts_.config.win) {
      request_state_transfer(ctx);
    }
    return;
  }
  // Advance through the runtime: promotes the snapshot captured when m.seq
  // executed, persists the checkpoint to the WAL, GCs execution records.
  if (const runtime::ExecutionRecord* rec = runtime_.record(m.seq)) {
    runtime_.advance_stable(rec->cert, ctx);
    maybe_refresh_epoch(ctx);
  }
  slots_.erase(slots_.begin(), slots_.lower_bound(ls() + 1));
  runtime_.evidence().gc_through(ls());
  checkpoint_votes_.erase(checkpoint_votes_.begin(),
                          checkpoint_votes_.lower_bound(ls()));
}

// ---------------------------------------------------------------------------
// Checkpoint certificates for state transfer, and the fabricated-checkpoint
// fault (the chunked protocol itself lives in runtime::EngineShell; spec in
// docs/state_transfer.md)

std::vector<CheckpointSigShare> PbftReplica::checkpoint_proof_for(
    const ExecCertificate& cert) const {
  std::vector<CheckpointSigShare> proof;
  if (!checkpoint_auth_) return proof;
  const runtime::MembershipEpoch& e = epoch_for_seq(cert.seq);
  // A weak certificate (f+1 distinct voters, PBFT §state transfer) is what a
  // fetcher needs; ship the full 2f+1 when available, but do not refuse to
  // serve below it — a checkpoint can legitimately stabilize inside a group
  // of exactly f+1 executors while the rest of the cluster is partitioned or
  // crashed, and then 2f+1 matching votes never exist at all (schedule
  // fuzzer, seed 91: frontier 16 was only ever executed by 4 of 7 replicas
  // with f=2, so donors holding 4 shares starved every fetcher forever).
  uint32_t floor = e.exec_quorum();
  uint32_t want = 2 * e.f + 1;
  auto seq_it = checkpoint_votes_.find(cert.seq);
  if (seq_it != checkpoint_votes_.end()) {
    if (auto digest_it = seq_it->second.find(cert.state_root);
        digest_it != seq_it->second.end() && digest_it->second.size() >= floor) {
      for (const auto& [replica, sig] : digest_it->second) {
        proof.push_back({replica, sig});
        if (proof.size() == want) break;
      }
      return proof;
    }
  }
  // No own votes (checkpoint adopted via state transfer): re-serve the proof
  // that vouched for it to us.
  if (cert.seq == adopted_proof_seq_ && cert.state_root == adopted_proof_root_) {
    return adopted_proof_;
  }
  return proof;
}

bool PbftReplica::verify_checkpoint_proof(
    const ExecCertificate& cert, const std::vector<CheckpointSigShare>& proof,
    sim::ActorContext& ctx) {
  if (!checkpoint_auth_) return true;  // unit setups without certificates
  const runtime::MembershipEpoch& e = epoch_for_seq(cert.seq);
  // PBFT's weak-certificate rule covers exactly this adoption decision: f+1
  // distinct shares contain at least one honest voucher, and that honest
  // replica only voted after executing the committed prefix the checkpoint
  // summarizes (the snapshot itself is still verified against the
  // certificate's state root chunk by chunk). Demanding the full 2f+1 here
  // is stronger than the stability rule the protocol itself runs on (f+1
  // votes advance ls()) and deadlocks in two fuzzer-found shapes: a wiped
  // fetcher whose boot roster outgrew the epoch that stabilized the
  // checkpoint (seed 5 — the old epoch's 2f+1 can be smaller than the boot
  // roster's), and a frontier only ever executed by an f+1-sized fragment
  // of the cluster, where 2f+1 matching votes never come to exist (seed 91).
  uint32_t need = e.exec_quorum();
  ctx.charge(ctx.costs().rsa_verify_us * static_cast<int64_t>(proof.size()));
  std::set<ReplicaId> valid;
  for (const CheckpointSigShare& s : proof) {
    if (!e.contains(s.replica) || valid.count(s.replica)) continue;
    if (checkpoint_auth_->verify(s.replica, cert.seq, cert.state_root,
                                      as_span(s.sig))) {
      valid.insert(s.replica);
      if (valid.size() >= need) {
        // Remember the newest verified proof: if this replica ends up
        // adopting the checkpoint it holds no votes of its own, and this is
        // what it re-serves as a donor (checkpoint_proof_for).
        if (cert.seq >= adopted_proof_seq_) {
          adopted_proof_seq_ = cert.seq;
          adopted_proof_root_ = cert.state_root;
          adopted_proof_ = proof;
        }
        return true;
      }
    }
  }
  ++stats_.checkpoint_certs_rejected;
  trace_.instant(ctx.now(), obs::Category::kStateTransfer,
                 obs::ev::kStCertRejected, st_session_, cert.seq, 0, "valid_sigs",
                 valid.size());
  return false;
}

std::optional<StateManifestMsg> PbftReplica::fabricate_manifest(
    const StateTransferRequestMsg& probe, sim::ActorContext& ctx) {
  // Build (once) a self-consistent but invented checkpoint: a fresh service
  // with a divergent history, its envelope, and a certificate whose state
  // root genuinely matches — the fabrication the quorum checkpoint
  // certificate exists to defeat. Advertised well ahead of the cluster so a
  // trusting fetcher always retargets onto it.
  uint64_t interval = opts_.config.checkpoint_interval();
  if (fake_envelope_.empty()) {
    auto evil = runtime_.service().clone_empty();
    evil->set_snapshot_chunk_hint(opts_.config.state_transfer_chunk_size);
    evil->execute(as_span(to_bytes("fabricated-history")));
    fake_cert_.seq = ((ls() + probe.have_seq) / interval + 64) * interval;
    fake_cert_.state_root = evil->state_digest();
    fake_cert_.ops_root = empty_ops_root();
    fake_cert_.prev_exec_digest = genesis_exec_digest();
    fake_envelope_ = runtime::encode_checkpoint_snapshot(
        as_span(evil->snapshot()), runtime::ReplyCache{},
        opts_.config.state_transfer_chunk_size,
        as_span(runtime_.membership().encode()));
    fake_chunks_ = std::make_unique<runtime::ChunkedSnapshot>(
        as_span(fake_envelope_), opts_.config.state_transfer_chunk_size);
    ctx.charge(ctx.costs().hash_us(fake_envelope_.size()));
  }
  if (fake_cert_.seq <= probe.have_seq) return std::nullopt;
  StateManifestMsg m;
  m.donor = opts_.id;
  m.seq = fake_cert_.seq;
  m.cert = fake_cert_;
  m.chunk_root = fake_chunks_->chunk_root();
  m.chunk_count = fake_chunks_->chunk_count();
  m.chunk_size = fake_chunks_->chunk_size();
  m.total_bytes = fake_chunks_->total_bytes();
  // The best forgery available: its own signature. 1 < f+1 (the
  // weak-certificate floor), which is the entire point of the certificate.
  if (checkpoint_auth_) {
    m.checkpoint_proof.push_back(
        {opts_.id, checkpoint_auth_->sign(opts_.id, fake_cert_.seq,
                                               fake_cert_.state_root)});
  }
  return m;
}

std::optional<std::vector<MessagePtr>> PbftReplica::forged_answers(
    const StateTransferRequestMsg& m, sim::ActorContext& ctx) {
  if (!fabricate_checkpoint_) return std::nullopt;
  std::vector<MessagePtr> forged;
  if (auto fake = fabricate_manifest(m, ctx)) {
    forged.push_back(make_message(std::move(*fake)));
  }
  return forged;
}

std::optional<std::vector<MessagePtr>> PbftReplica::forged_answers(
    const StateChunkRequestMsg& m, sim::ActorContext& ctx) {
  // The fabricating donor serves its invented envelope with perfectly valid
  // Merkle proofs — per-chunk verification cannot catch it; only the
  // checkpoint certificate (or the final state-root check) can.
  if (!fabricate_checkpoint_ || !fake_chunks_ ||
      !(m.chunk_root == fake_chunks_->transfer_root()) || m.seq != fake_cert_.seq) {
    return std::nullopt;
  }
  std::vector<MessagePtr> forged;
  size_t limit = std::min<size_t>(m.indices.size(),
                                  runtime::StateTransferManager::kMaxChunksPerRequest);
  for (size_t i = 0; i < limit; ++i) {
    uint32_t index = m.indices[i];
    if (index >= fake_chunks_->chunk_count()) continue;
    StateChunkMsg c;
    c.donor = opts_.id;
    c.seq = fake_cert_.seq;
    c.chunk_root = fake_chunks_->transfer_root();
    c.index = index;
    c.chunk_count = fake_chunks_->chunk_count();
    c.data = to_bytes(fake_chunks_->chunk(as_span(fake_envelope_), index));
    c.proof = fake_chunks_->proof(index);
    ctx.charge(ctx.costs().hash_us(c.data.size()));
    forged.push_back(make_message(std::move(c)));
  }
  return forged;
}

void PbftReplica::on_checkpoint_adopted(SeqNum seq) {
  slots_.erase(slots_.begin(), slots_.upper_bound(seq));
  runtime_.evidence().gc_through(seq);
  checkpoint_votes_.erase(checkpoint_votes_.begin(),
                          checkpoint_votes_.lower_bound(seq));
  progress_marker_ = le();
}

// ---------------------------------------------------------------------------
// View change

MessagePtr PbftReplica::make_view_change(ViewNum target, sim::ActorContext& ctx) {
  PbftViewChangeMsg msg;
  msg.sender = opts_.id;
  msg.next_view = target;
  msg.ls = ls();
  runtime_.evidence().for_each_in(
      ls(), ls() + opts_.config.win,
      [&msg](SeqNum s, const runtime::SlotEvidenceRecord& ev) {
        if (!ev.has_prepared || !ev.prepared_block) return;
        PbftPreparedCert cert;
        cert.seq = s;
        cert.view = ev.prepared_view;
        cert.h = ev.prepared_digest;
        cert.block = *ev.prepared_block;
        msg.prepared.push_back(std::move(cert));
      });
  ctx.charge(ctx.costs().rsa_sign_us);
  return make_message(std::move(msg));
}

bool PbftReplica::check_view_evidence(const Message& msg, sim::ActorContext& ctx) {
  if (std::holds_alternative<PbftViewChangeMsg>(msg)) {
    ctx.charge(ctx.costs().rsa_verify_us);
    return true;
  }
  const auto* nv = std::get_if<PbftNewViewMsg>(&msg);
  if (nv == nullptr) return false;
  ctx.charge(ctx.costs().rsa_verify_us * static_cast<int64_t>(nv->proofs.size()));
  return true;
}

MessagePtr PbftReplica::make_new_view(ViewNum v,
                                      const std::vector<const Message*>& quorum,
                                      sim::ActorContext& ctx) {
  PbftNewViewMsg nv;
  nv.view = v;
  for (const Message* vc : quorum) {
    nv.proofs.push_back(std::get<PbftViewChangeMsg>(*vc));
  }
  ctx.charge(ctx.costs().rsa_sign_us);
  return make_message(std::move(nv));
}

void PbftReplica::enter_new_view(const Message& new_view, sim::ActorContext& ctx) {
  const auto& m = std::get<PbftNewViewMsg>(new_view);
  // Re-propose the highest-view prepared certificate per slot; no-op gaps.
  SeqNum max_ls = ls();
  for (const auto& proof : m.proofs) max_ls = std::max(max_ls, proof.ls);
  std::map<SeqNum, const PbftPreparedCert*> adopted;
  SeqNum max_seq = max_ls;
  for (const auto& proof : m.proofs) {
    for (const auto& cert : proof.prepared) {
      if (cert.seq <= max_ls) continue;
      auto [it, inserted] = adopted.emplace(cert.seq, &cert);
      if (!inserted && cert.view > it->second->view) it->second = &cert;
      max_seq = std::max(max_seq, cert.seq);
    }
  }
  for (SeqNum s = max_ls + 1; s <= max_seq; ++s) {
    if (s <= le()) continue;
    auto it = adopted.find(s);
    SealedBlock block = it != adopted.end() ? it->second->block : SealedBlock{};
    slots_[s] = Slot{};  // reset votes from the old view
    accept_pre_prepare(s, m.view, std::move(block), ctx);
  }
  next_seq_ = std::max(next_seq_, max_seq + 1);
}

}  // namespace sbft::pbft

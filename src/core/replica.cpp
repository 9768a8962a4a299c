#include "core/replica.h"

#include <algorithm>
#include <array>

#include "core/share_set.h"
#include "crypto/sha256.h"

namespace sbft::core {

// ---------------------------------------------------------------------------
// Per-slot state

struct SbftReplica::Slot {
  // Accepted pre-prepare (highest view).
  bool has_pp = false;
  ViewNum pp_view = 0;
  Digest block_digest{};
  std::optional<SealedBlock> block;
  Digest h{};
  Bytes own_sigma_share;  // kept for the view-change fm vote

  // The slow-path prepare certificate and the fast/slow full proofs live in
  // runtime_.evidence() (runtime/evidence_store.h) — the view-change
  // evidence layer shared with PBFT.
  bool sent_commit_share = false;

  bool committed = false;
  Digest committed_digest{};
  sim::SimTime pp_time = -1;
  sim::SimTime commit_time = -1;

  // Post-view-change adoption waiting for the block payload.
  bool awaiting_block = false;
  Digest awaiting_digest{};
  bool awaiting_is_commit = false;  // true: commit on arrival; false: adopt

  // --- Collector state --------------------------------------------------------
  // Shares of one proof over one signed digest.
  struct Quorum {
    ShareSet shares;
    // A batch-verify + combine of this quorum is in flight on a worker lane;
    // cleared by the completion callback.
    bool verifying = false;
  };
  // Per proof, quorums keyed by the digest the shares sign: h for fast and
  // prepare (an equivocating primary splits the sign-shares by h), the commit
  // digest of coll_tau for slow, our own execution digest for exec. The
  // C-proofs (fast, prepare, slow) are valid for coll_view.
  std::array<std::map<Digest, Quorum>, kNumProofs> quorums;
  std::array<bool, kNumProofs> sent{};       // this collector sent the proof
  std::array<bool, kNumProofs> staggered{};  // the backup stagger timer is armed
  ViewNum coll_view = 0;
  bool coll_active = false;
  bool coll_fast_timer_set = false;
  std::map<Digest, Digest> coll_digest_of_h;  // h -> block digest
  Bytes coll_tau;            // tau(h) built or observed via Prepare
  Digest coll_block_digest{};
  std::vector<std::pair<ReplicaId, Bytes>> buffered_pi;  // pi shares, pre-execution
};

// ---------------------------------------------------------------------------
// Construction / lifecycle

SbftReplica::SbftReplica(ReplicaOptions options, std::unique_ptr<IService> service)
    : EngineShell(std::move(options), std::move(service)),
      crypto_(std::move(options.crypto)),
      behavior_(options.behavior),
      epoch_keys_(std::move(options.epoch_keys)),
      h_exec_to_ack_(&metrics_->histogram("stage.exec_to_ack_us")) {}

const ReplicaCrypto& SbftReplica::crypto_for_epoch(
    const runtime::MembershipEpoch& e) const {
  if (e.epoch == 0 || !epoch_keys_) return crypto_;
  auto it = epoch_crypto_.find(e.epoch);
  if (it != epoch_crypto_.end()) return it->second;
  const ClusterKeys* keys = epoch_keys_->find(e.epoch);
  SBFT_CHECK(keys != nullptr);  // epochs are provisioned before they activate
  ReplicaCrypto rc = ReplicaCrypto::verifier_only(*keys);
  if (int rank = e.rank_of(opts_.id); rank >= 0) {
    rc.sigma_signer = keys->sigma.signers.at(static_cast<size_t>(rank));
    rc.tau_signer = keys->tau.signers.at(static_cast<size_t>(rank));
    rc.pi_signer = keys->pi.signers.at(static_cast<size_t>(rank));
  }
  return epoch_crypto_.emplace(e.epoch, std::move(rc)).first->second;
}

bool SbftReplica::verify_cert_pi(const ExecCertificate& cert) const {
  Digest d = cert.exec_digest();
  if (crypto_for_seq(cert.seq).pi_verifier->verify(d, as_span(cert.pi_sig))) {
    return true;
  }
  // A joiner may hold a checkpoint certified under an epoch its membership
  // manager has not installed yet — but only *newer* provisioned epochs may
  // vouch. Falling back to older epochs would let f+1 shareholders of a
  // retired epoch mint certificates for arbitrary state (the single-source
  // checkpoint-trust hazard the PBFT quorum certificate exists to close).
  if (epoch_keys_) {
    uint64_t active_epoch = epoch().epoch;
    for (const auto& [id, keys] : epoch_keys_->epochs()) {
      if (id <= active_epoch) continue;
      if (keys.pi.verifier->verify(d, as_span(cert.pi_sig))) return true;
    }
  }
  return false;
}

ViewChangeVerifiers SbftReplica::view_change_verifiers() const {
  // Post-activation senders are the only ones whose messages can validate
  // under the new epoch; pre-activation stragglers re-send after they
  // activate (the checkpoint protocol drives everyone across the boundary).
  // Checkpoint certificates are the exception — sealed under the *previous*
  // epoch's pi scheme — so their verification is seq-aware.
  const ReplicaCrypto& crypto = crypto_for_epoch(epoch());
  ViewChangeVerifiers verifiers;
  verifiers.sigma = crypto.sigma_verifier.get();
  verifiers.tau = crypto.tau_verifier.get();
  verifiers.epoch = &epoch();
  verifiers.verify_checkpoint = [this](const ExecCertificate& cert) {
    return verify_cert_pi(cert);
  };
  return verifiers;
}

SbftReplica::~SbftReplica() = default;

ReplicaStats SbftReplica::stats() const {
  ReplicaStats merged = stats_;
  static_cast<runtime::RuntimeStats&>(merged) = runtime_.stats();
  merged.view_changes = view_changes_;
  merged.noop_fill_blocks = noop_fill_blocks_;
  return merged;
}

std::optional<Digest> SbftReplica::committed_digest_of(SeqNum s) const {
  auto it = slots_.find(s);
  if (it != slots_.end() && it->second.committed) return it->second.committed_digest;
  if (const runtime::ExecutionRecord* rec = runtime_.record(s)) {
    return rec->block.digest();
  }
  return std::nullopt;
}

SbftReplica::Slot& SbftReplica::slot(SeqNum s) { return slots_[s]; }

SbftReplica::Slot* SbftReplica::find_slot(SeqNum s) {
  auto it = slots_.find(s);
  return it == slots_.end() ? nullptr : &it->second;
}

Bytes SbftReplica::sign_share_maybe_corrupt(const crypto::IThresholdSigner& signer,
                                            const Digest& d) const {
  Bytes share = signer.sign_share(d);
  if (behavior_ == ReplicaBehavior::kCorruptShares && !share.empty()) {
    share[0] ^= 0xff;
  }
  return share;
}

// ---------------------------------------------------------------------------
// Dispatch

void SbftReplica::on_engine_message(const Message& msg, sim::ActorContext& ctx) {
  std::visit(
      [&](const auto& m) {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, PrePrepareMsg>) {
          handle_pre_prepare(m, ctx);
        } else if constexpr (std::is_same_v<T, SignShareMsg>) {
          handle_sign_share(m, ctx);
        } else if constexpr (std::is_same_v<T, FullCommitProofMsg>) {
          handle_full_commit_proof(m, ctx);
        } else if constexpr (std::is_same_v<T, PrepareMsg>) {
          handle_prepare(m, ctx);
        } else if constexpr (std::is_same_v<T, CommitShareMsg>) {
          handle_commit_share(m, ctx);
        } else if constexpr (std::is_same_v<T, FullCommitProofSlowMsg>) {
          handle_full_commit_proof_slow(m, ctx);
        } else if constexpr (std::is_same_v<T, SignStateMsg>) {
          handle_sign_state(m, ctx);
        } else if constexpr (std::is_same_v<T, FullExecuteProofMsg>) {
          handle_full_execute_proof(m, ctx);
        } else if constexpr (std::is_same_v<T, GetBlockRequestMsg>) {
          handle_get_block_request(m, ctx);
        } else if constexpr (std::is_same_v<T, GetBlockReplyMsg>) {
          handle_get_block_reply(m, ctx);
        }
        // PBFT baseline messages are ignored by SBFT replicas.
      },
      msg);
}

void SbftReplica::on_engine_timer(uint64_t kind, SeqNum s, sim::ActorContext& ctx) {
  if (kind >= kStagger && kind < kShareFallback) {
    // A backup collector's turn: it stays idle if a faster collector's
    // C-proof already reached it (an E-collector finds pi(d) in its record).
    auto p = static_cast<Proof>(kind - kStagger);
    Slot* sl = find_slot(s);
    const auto* ev = runtime_.evidence().find(s);
    bool proven = ev && (p == kFast      ? ev->has_fast_proof
                         : p == kPrepare ? ev->has_prepared
                                         : ev->has_slow_proof);
    if (p == kExec || (sl && sl->coll_active && !sl->committed && !proven)) {
      collect(s, p, ctx);
    }
    return;
  }
  switch (kind) {
    case kFastPathTimer: {  // no fast proof in time: fall back to tau(h) (§V-E)
      Slot* sl = find_slot(s);
      if (sl && !sl->committed && sl->coll_active) collect(s, kPrepare, ctx);
      break;
    }
    case kShareFallback: {
      Slot* sl = find_slot(s);
      if (!sl || sl->committed || !sl->has_pp || sl->pp_view != view_ ||
          in_view_change_ || retired_)
        break;
      SignShareMsg share;
      share.seq = s;
      share.view = sl->pp_view;
      share.block_digest = sl->block_digest;
      share.h = sl->h;
      share.replica = opts_.id;
      share.sigma_share = sl->own_sigma_share;
      share.tau_share =
          sign_share_maybe_corrupt(*crypto_for_seq(s).tau_signer, sl->h);
      ctx.charge(ctx.costs().bls_sign_share_us);
      send_to_replica(ctx, epoch().primary_of(view_),
                      make_message(std::move(share)));
      break;
    }
    case kStateFallback: {
      const runtime::ExecutionRecord* rec = runtime_.record(s);
      if (rec == nullptr || !rec->cert.pi_sig.empty() || in_view_change_ ||
          retired_ || crypto_for_seq(s).pi_signer == nullptr)
        break;
      SignStateMsg ss;
      ss.seq = s;
      ss.replica = opts_.id;
      ss.exec_digest = rec->cert.exec_digest();
      ss.pi_share = sign_share_maybe_corrupt(*crypto_for_seq(s).pi_signer,
                                             rec->cert.exec_digest());
      ctx.charge(ctx.costs().bls_sign_share_us);
      send_to_replica(ctx, epoch().primary_of(view_),
                      make_message(std::move(ss)));
      break;
    }
    default:
      break;
  }
}

// ---------------------------------------------------------------------------
// Primary proposal

uint64_t SbftReplica::proposal_window() const {
  uint64_t by_collectors = (epoch().n() - 1) / epoch().num_collectors();  // §VIII
  return std::min(by_collectors, opts_.config.win / 4);
}

uint64_t SbftReplica::in_flight_requests() const {
  uint64_t requests = 0;
  for (auto it = slots_.upper_bound(le());
       it != slots_.end() && it->first < next_seq_; ++it) {
    if (it->second.block) requests += it->second.block->requests().size();
  }
  return requests;
}

SeqNum SbftReplica::highest_slot() const {
  return slots_.empty() ? 0 : slots_.rbegin()->first;
}

void SbftReplica::propose_block(SeqNum s, SealedBlock block, sim::ActorContext& ctx) {
  ctx.charge(ctx.costs().hash_us(block.wire_size()));
  stats_.proposed_requests += block.requests().size();

  if (behavior_ == ReplicaBehavior::kEquivocate && block.requests().size() >= 2) {
    // Send conflicting blocks to the two halves of the cluster: same
    // sequence, different request order => different digests.
    Block alt = *block;
    std::swap(alt.requests.front(), alt.requests.back());
    auto msg_a = make_message(PrePrepareMsg{s, view_, std::move(block)});
    auto msg_b = make_message(PrePrepareMsg{s, view_, std::move(alt)});
    for (const ReplicaInfo& m : epoch().members) {
      ctx.send(m.node, (m.id % 2 == 0) ? msg_a : msg_b);
    }
    return;
  }

  broadcast_replicas(ctx, make_message(PrePrepareMsg{s, view_, std::move(block)}));
}

// ---------------------------------------------------------------------------
// Fast path (§V-C)

void SbftReplica::handle_pre_prepare(const PrePrepareMsg& m, sim::ActorContext& ctx) {
  if (in_view_change_ || m.view != view_ || retired_) return;
  if (m.seq <= ls() || m.seq > ls() + opts_.config.win) {
    if (m.seq > ls() + opts_.config.win) arm_progress_timer(ctx);
    return;
  }
  // Reconfiguration wedge: refuse slots beyond a pending activation boundary
  // (they belong to the next epoch's keys and quorums).
  if (SeqNum gate = reconfig_gate(); gate > 0 && m.seq > gate) return;
  Slot& sl = slot(m.seq);
  if (sl.has_pp && sl.pp_view >= m.view) return;  // one pre-prepare per view
  // Authenticate the batched client requests on a worker lane; acceptance
  // (state mutation, share signing) continues serially once they verify.
  // The guards re-run in the completion: a view change or checkpoint may
  // have advanced while verification was in flight.
  int64_t cost =
      static_cast<int64_t>(m.block.requests().size()) * ctx.costs().rsa_verify_us;
  ctx.offload(cost, [this, seq = m.seq, v = m.view,
                     block = m.block](sim::ActorContext& c) mutable {
    if (in_view_change_ || v != view_ || retired_) return;
    if (seq <= ls() || seq > ls() + opts_.config.win) return;
    if (SeqNum gate = reconfig_gate(); gate > 0 && seq > gate) return;
    accept_pre_prepare(seq, v, std::move(block), c);
  });
}

void SbftReplica::accept_pre_prepare(SeqNum s, ViewNum v, SealedBlock block,
                                     sim::ActorContext& ctx) {
  if (retired_) return;
  // Only members of the slot's epoch vote (a joiner hears the enlarged
  // cluster's broadcasts before it has adopted the epoch that admits it —
  // and holds no signer for any earlier scheme).
  if (!epoch_for_seq(s).contains(opts_.id)) return;
  Slot& sl = slot(s);
  if (sl.has_pp && sl.pp_view >= v) return;
  Digest digest = block.digest();
  // A block carrying a reconfiguration marker raises the pre-execution shadow
  // of the activation boundary.
  note_reconfig_markers(s, *block);
  if (!record_vote(s, v, digest)) return;
  sl.has_pp = true;
  sl.pp_view = v;
  sl.block_digest = digest;
  sl.block = std::move(block);
  sl.h = slot_hash(s, v, sl.block_digest);
  sl.awaiting_block = false;
  if (sl.pp_time < 0) sl.pp_time = ctx.now();
  // Slot span: accepted pre-prepare -> executed. The span id folds the view
  // in so a slot re-accepted after a view change opens a fresh span (the
  // superseded one stays dangling, which Perfetto renders as unfinished).
  trace_.begin(ctx.now(), obs::Category::kSlot, obs::ev::kSlot,
               (v << 32) | s, s, v);
  ctx.charge(ctx.costs().hash_us(64));

  // Sign both shares (sigma for the fast path, tau for Linear-PBFT, §V-E),
  // under the keys of the epoch that governs this slot.
  const ReplicaCrypto& crypto = crypto_for_seq(s);
  sl.own_sigma_share = sign_share_maybe_corrupt(*crypto.sigma_signer, sl.h);
  Bytes tau_share = sign_share_maybe_corrupt(*crypto.tau_signer, sl.h);
  ctx.charge(2 * ctx.costs().bls_sign_share_us);

  SignShareMsg share;
  share.seq = s;
  share.view = v;
  share.block_digest = sl.block_digest;
  share.h = sl.h;
  share.replica = opts_.id;
  share.sigma_share = sl.own_sigma_share;
  share.tau_share = tau_share;
  auto msg = make_message(std::move(share));
  for (ReplicaId collector : c_collectors(epoch_for_seq(s), s, v)) {
    send_to_replica(ctx, collector, msg);
  }
  // If the designated collectors stall (e.g. all c+1 are faulty), re-send the
  // shares to the primary — the always-last fallback collector (§V-E).
  ctx.set_timer(2 * kFastPathTimeoutUs, timer_id(kShareFallback, s));
  arm_progress_timer(ctx);

  if (sl.committed) try_execute(ctx);  // proof may have arrived before the block
}

void SbftReplica::handle_sign_share(const SignShareMsg& m, sim::ActorContext& ctx) {
  if (in_view_change_ || m.view != view_ || retired_) return;
  if (m.seq <= ls() || m.seq > ls() + opts_.config.win) return;
  if (signer_of(m.replica, m.seq) == 0) return;  // not a member of the epoch
  // The primary is the always-last fallback collector: replicas re-send
  // their shares to it only when a slot stalls (kShareFallback).
  auto collectors = commit_collectors(epoch_for_seq(m.seq), m.seq, m.view);
  int rank = collector_rank(collectors, opts_.id);
  if (rank < 0) return;
  if (m.h != slot_hash(m.seq, m.view, m.block_digest)) {
    ++stats_.invalid_shares_seen;
    return;
  }

  Slot& sl = slot(m.seq);
  if (sl.coll_view != m.view || !sl.coll_active) {
    sl.coll_view = m.view;
    sl.coll_active = true;
    for (Proof p : {kFast, kPrepare, kSlow}) {
      sl.quorums[p].clear();
      sl.sent[p] = false;
    }
  }
  sl.quorums[kFast][m.h].shares.add(m.replica, as_span(m.sigma_share));
  sl.quorums[kPrepare][m.h].shares.add(m.replica, as_span(m.tau_share));
  sl.coll_digest_of_h[m.h] = m.block_digest;

  // Arm the fast->slow fallback timer on first contact (§V-E trigger).
  if (!sl.coll_fast_timer_set) {
    sl.coll_fast_timer_set = true;
    if (opts_.config.fast_path_enabled) {
      ctx.set_timer(kFastPathTimeoutUs + rank * kCollectorStaggerUs,
                    timer_id(kFastPathTimer, m.seq));
    }
  }
  // Fast path disabled: prepare as soon as a slow quorum signed.
  maybe_collect(sl, m.seq, opts_.config.fast_path_enabled ? kFast : kPrepare, m.h,
                rank, ctx);
}

// ---------------------------------------------------------------------------
// Collectors (§V-B): one routine turns the shares of any proof into its
// threshold signature

uint32_t SbftReplica::quorum_of(const runtime::MembershipEpoch& e, Proof p) {
  return p == kFast ? e.fast_quorum() : p == kExec ? e.exec_quorum() : e.slow_quorum();
}

bool SbftReplica::proof_open(const Slot& sl, SeqNum s, Proof p) const {
  if (sl.sent[p]) return false;
  switch (p) {
    case kFast:
      return true;
    case kPrepare:
      return !sl.sent[kFast];
    case kSlow:
      return !sl.coll_tau.empty();
    default: {  // kExec: another E-collector may already have certified s
      const runtime::ExecutionRecord* rec = runtime_.record(s);
      return rec != nullptr && rec->cert.pi_sig.empty();
    }
  }
}

void SbftReplica::maybe_collect(Slot& sl, SeqNum s, Proof p, const Digest& digest,
                                int rank, sim::ActorContext& ctx) {
  if (sl.sent[p] ||
      sl.quorums[p][digest].shares.size() < quorum_of(epoch_for_seq(s), p)) {
    return;
  }
  if (rank == 0) {
    collect(s, p, ctx);
  } else if (!sl.staggered[p]) {
    // Staggered backups — the primary is always the last to activate
    // (§V-E); they act only if the faster collectors stayed silent.
    sl.staggered[p] = true;
    ctx.set_timer(rank * kCollectorStaggerUs, timer_id(kStagger + uint64_t{p}, s));
  }
}

void SbftReplica::collect(SeqNum s, Proof p, sim::ActorContext& ctx) {
  Slot* slp = find_slot(s);
  if (!slp) return;
  Slot& sl = *slp;
  const runtime::MembershipEpoch& e = epoch_for_seq(s);
  const uint32_t quorum = quorum_of(e, p);
  for (auto& [digest, q] : sl.quorums[p]) {
    if (!proof_open(sl, s, p)) break;  // an inline completion already proved s
    if (q.shares.size() < quorum || q.verifying) continue;
    std::vector<crypto::SignatureShare> shares;
    shares.reserve(q.shares.size());
    for (size_t i = 0; i < q.shares.size(); ++i) {
      shares.push_back(
          {signer_of(q.shares.replica(i), s), to_bytes(q.shares.share(i))});
    }
    // Batch-verify then combine, on a worker lane — combining slot s overlaps
    // collecting s+1..s+w. Group-signature mode (n-out-of-n) applies to the
    // fast proof when every replica contributed (§VIII).
    bool group_mode = p == kFast && shares.size() == e.n();
    int64_t cost = ctx.costs().batch_verify_us(shares.size()) +
                   ctx.costs().combine_us(quorum, group_mode);
    q.verifying = true;
    ctx.offload(cost, [this, s, p, digest, cv = sl.coll_view,
                       shares = std::move(shares)](sim::ActorContext& c) {
      Slot* sp = find_slot(s);
      if (!sp) return;  // checkpoint retired the slot mid-verification
      auto it = sp->quorums[p].find(digest);
      if (it != sp->quorums[p].end()) it->second.verifying = false;
      if (!proof_open(*sp, s, p)) return;
      if (p == kExec) {
        if (!(runtime_.record(s)->cert.exec_digest() == digest)) return;
      } else if (!sp->coll_active || sp->coll_view != cv) {
        return;  // a new view reset the C-proofs
      }
      const ReplicaCrypto& crypto = crypto_for_seq(s);
      const crypto::IThresholdVerifier& verifier =
          p == kFast ? *crypto.sigma_verifier
          : p == kExec ? *crypto.pi_verifier
                       : *crypto.tau_verifier;
      auto sig = verifier.combine(digest, shares);
      if (!sig) {
        ++stats_.invalid_shares_seen;
        // Shares that arrived while this combine was in flight were skipped
        // by the verifying guard; if the quorum grew, retry with the larger
        // set. (Inline completions run synchronously — the set cannot have
        // grown, so this never recurses at one lane.)
        if (it != sp->quorums[p].end() && it->second.shares.size() > shares.size())
          collect(s, p, c);
        return;  // invalid shares filtered; wait for more
      }
      sp->sent[p] = true;
      send_proof(*sp, s, p, digest, std::move(*sig), shares.size(), c);
    });
  }
}

void SbftReplica::send_proof(Slot& sl, SeqNum s, Proof p, const Digest& digest,
                             Bytes sig, size_t shares, sim::ActorContext& ctx) {
  switch (p) {
    case kFast: {
      trace_.instant(ctx.now(), obs::Category::kSlot, obs::ev::kFastProofFormed, 0,
                     s, sl.coll_view, "shares", shares);
      FullCommitProofMsg proof;
      proof.seq = s;
      proof.view = sl.coll_view;
      proof.block_digest = sl.coll_digest_of_h[digest];
      proof.sigma_sig = std::move(sig);
      broadcast_replicas(ctx, make_message(std::move(proof)));
      break;
    }
    case kPrepare: {
      trace_.instant(ctx.now(), obs::Category::kSlot, obs::ev::kPrepareFormed, 0,
                     s, sl.coll_view, "shares", shares);
      sl.coll_tau = sig;
      sl.coll_block_digest = sl.coll_digest_of_h[digest];
      PrepareMsg prep;
      prep.seq = s;
      prep.view = sl.coll_view;
      prep.block_digest = sl.coll_block_digest;
      prep.tau_sig = std::move(sig);
      broadcast_replicas(ctx, make_message(std::move(prep)));
      break;
    }
    case kSlow: {
      trace_.instant(ctx.now(), obs::Category::kSlot, obs::ev::kSlowProofFormed, 0,
                     s, sl.coll_view, "shares", shares);
      FullCommitProofSlowMsg proof;
      proof.seq = s;
      proof.view = sl.coll_view;
      proof.block_digest = sl.coll_block_digest;
      proof.tau_sig = sl.coll_tau;
      proof.tau_tau_sig = std::move(sig);
      broadcast_replicas(ctx, make_message(std::move(proof)));
      break;
    }
    default: {  // kExec
      runtime_.record(s)->cert.pi_sig = sig;
      FullExecuteProofMsg proof;
      proof.seq = s;
      proof.exec_digest = digest;
      proof.pi_sig = std::move(sig);
      broadcast_replicas(ctx, make_message(std::move(proof)));
      if (opts_.config.execution_collector) send_execute_acks(s, ctx);
      break;
    }
  }
}

// ---------------------------------------------------------------------------
// Linear-PBFT slow path (§V-E)

void SbftReplica::handle_prepare(const PrepareMsg& m, sim::ActorContext& ctx) {
  if (m.view < view_ || (in_view_change_ && m.view == view_) || retired_) return;
  if (m.seq <= ls() || m.seq > ls() + opts_.config.win) return;
  // Verify the combined tau on a worker lane; certificate adoption and the
  // commit share reply continue serially. The entry guards re-run in the
  // completion against state that moved during verification.
  ctx.offload(ctx.costs().bls_verify_combined_us, [this, m](sim::ActorContext& c) {
    if (m.view < view_ || (in_view_change_ && m.view == view_) || retired_) return;
    if (m.seq <= ls() || m.seq > ls() + opts_.config.win) return;
    Digest h = slot_hash(m.seq, m.view, m.block_digest);
    if (!crypto_for_seq(m.seq).tau_verifier->verify(h, as_span(m.tau_sig))) {
      ++stats_.invalid_shares_seen;
      return;
    }
    // A valid tau(h) for a future view proves a slow quorum operates there; a
    // lagging/recovered replica can fast-forward and process the prepare.
    adopt_verified_view(m.view, c);
    if (in_view_change_ || m.view != view_) return;
    Slot& sl = slot(m.seq);
    if (const auto* ev = runtime_.evidence().find(m.seq);
        ev && ev->has_prepared && ev->prepared_view < m.view) {
      // The commit round is bound to one certificate: a fresh tau(h) from a
      // later view starts a fresh round (without this, a slot whose slow
      // round stalled in view v can never commit in any later view).
      sl.sent_commit_share = false;
    }
    runtime_.evidence().record_prepared(m.seq, m.view, m.block_digest,
                                        m.tau_sig);
    // Fallback-stage collectors (the c+1 C-collectors plus the primary as the
    // last staggered collector, §V-E) remember the certificate so they can
    // aggregate commit shares.
    auto collectors = commit_collectors(epoch_for_seq(m.seq), m.seq, m.view);
    if (collector_rank(collectors, opts_.id) >= 0 && sl.coll_tau.empty()) {
      sl.coll_view = m.view;
      sl.coll_active = true;
      sl.coll_tau = m.tau_sig;
      sl.coll_block_digest = m.block_digest;
    }

    if (!sl.sent_commit_share && epoch_for_seq(m.seq).contains(opts_.id)) {
      sl.sent_commit_share = true;
      Digest d2 = commit_hash(crypto::sha256(as_span(m.tau_sig)));
      Bytes share = sign_share_maybe_corrupt(*crypto_for_seq(m.seq).tau_signer, d2);
      c.charge(c.costs().bls_sign_share_us);
      CommitShareMsg cs;
      cs.seq = m.seq;
      cs.view = m.view;
      cs.commit_digest = d2;
      cs.replica = opts_.id;
      cs.tau_share = std::move(share);
      auto msg = make_message(std::move(cs));
      for (ReplicaId collector : collectors) send_to_replica(c, collector, msg);
    }
  });
}

void SbftReplica::handle_commit_share(const CommitShareMsg& m, sim::ActorContext& ctx) {
  if (in_view_change_ || m.view != view_ || retired_) return;
  if (signer_of(m.replica, m.seq) == 0) return;
  auto collectors = commit_collectors(epoch_for_seq(m.seq), m.seq, m.view);
  int rank = collector_rank(collectors, opts_.id);
  if (rank < 0) return;
  Slot* slp = find_slot(m.seq);
  if (!slp || slp->coll_tau.empty() || slp->sent[kSlow]) return;
  // Only shares over the commit digest of our certificate count.
  Digest expected = commit_hash(crypto::sha256(as_span(slp->coll_tau)));
  if (!(m.commit_digest == expected)) return;
  slp->quorums[kSlow][expected].shares.add(m.replica, as_span(m.tau_share));
  maybe_collect(*slp, m.seq, kSlow, expected, rank, ctx);
}

// ---------------------------------------------------------------------------
// Commit triggers

void SbftReplica::handle_full_commit_proof(const FullCommitProofMsg& m,
                                           sim::ActorContext& ctx) {
  if (m.seq <= le()) return;
  // Combined-signature check on a worker lane; the commit itself (state
  // mutation, execution) stays serial in the completion.
  ctx.offload(ctx.costs().bls_verify_combined_us, [this, m](sim::ActorContext& c) {
    if (m.seq <= le()) return;
    Digest h = slot_hash(m.seq, m.view, m.block_digest);
    if (!crypto_for_seq(m.seq).sigma_verifier->verify(h, as_span(m.sigma_sig))) {
      ++stats_.invalid_shares_seen;
      return;
    }
    adopt_verified_view(m.view, c);
    runtime_.evidence().record_fast_proof(m.seq, m.view, m.block_digest,
                                          m.sigma_sig);
    commit(m.seq, m.block_digest, /*fast=*/true, c);
  });
}

void SbftReplica::handle_full_commit_proof_slow(const FullCommitProofSlowMsg& m,
                                                sim::ActorContext& ctx) {
  if (m.seq <= le()) return;
  ctx.offload(2 * ctx.costs().bls_verify_combined_us, [this, m](sim::ActorContext& c) {
    if (m.seq <= le()) return;
    Digest h = slot_hash(m.seq, m.view, m.block_digest);
    Digest d2 = commit_hash(crypto::sha256(as_span(m.tau_sig)));
    const ReplicaCrypto& crypto = crypto_for_seq(m.seq);
    if (!crypto.tau_verifier->verify(h, as_span(m.tau_sig)) ||
        !crypto.tau_verifier->verify(d2, as_span(m.tau_tau_sig))) {
      ++stats_.invalid_shares_seen;
      return;
    }
    adopt_verified_view(m.view, c);
    runtime_.evidence().record_slow_proof(m.seq, m.view, m.block_digest,
                                          m.tau_sig, m.tau_tau_sig);
    commit(m.seq, m.block_digest, /*fast=*/false, c);
  });
}

void SbftReplica::commit(SeqNum s, const Digest& block_digest, bool fast,
                         sim::ActorContext& ctx) {
  Slot& sl = slot(s);
  if (sl.committed) return;
  sl.committed = true;
  sl.committed_digest = block_digest;
  sl.commit_time = ctx.now();
  if (sl.pp_time >= 0) {
    h_pp_to_commit_->record(ctx.now() - sl.pp_time);
    ++stats_.timed_slots;
  }
  if (fast) {
    ++stats_.fast_commits;
  } else {
    ++stats_.slow_commits;
  }
  trace_.instant(ctx.now(), obs::Category::kSlot,
                 fast ? obs::ev::kCommitFast : obs::ev::kCommitSlow, 0, s,
                 sl.pp_view, "digest", obs::digest_prefix(block_digest.data()));
  if (!sl.block || !(sl.block_digest == block_digest)) {
    // Committed by proof without the payload: fetch it.
    if (!sl.has_pp) {
      // Proof-driven catch-up (never saw the pre-prepare): open the slot
      // span at the commit so the execute end has a begin to pair with.
      trace_.begin(ctx.now(), obs::Category::kSlot, obs::ev::kSlot,
                   (sl.pp_view << 32) | s, s, sl.pp_view);
    }
    sl.awaiting_block = true;
    sl.awaiting_digest = block_digest;
    sl.awaiting_is_commit = true;
    if (!silent()) {
      GetBlockRequestMsg req;
      req.requester = opts_.id;
      req.seq = s;
      req.block_digest = block_digest;
      broadcast_replicas(ctx, make_message(std::move(req)));
    }
    return;
  }
  try_execute(ctx);
}

// ---------------------------------------------------------------------------
// Execution and acknowledgement (§V-D)

void SbftReplica::try_execute(sim::ActorContext& ctx) {
  for (;;) {
    SeqNum s = le() + 1;
    Slot* sl = find_slot(s);
    if (!sl || !sl->committed) return;
    if (!sl->block || !(sl->block_digest == sl->committed_digest)) return;
    execute_block(s, ctx);
  }
}

void SbftReplica::execute_block(SeqNum s, sim::ActorContext& ctx) {
  Slot& sl = *find_slot(s);
  // The runtime executes the block (dedup through the reply cache), persists
  // it, extends the d_s chain, and captures the checkpoint snapshot.
  runtime::ExecutionRecord& rec =
      runtime_.execute_block(s, sl.pp_view, *sl.block, ctx);
  Digest d = rec.cert.exec_digest();

  if (sl.commit_time >= 0) {
    h_commit_to_exec_->record(ctx.now() - sl.commit_time);
  }
  trace_.end(ctx.now(), obs::Category::kSlot, obs::ev::kSlot,
             (sl.pp_view << 32) | s, s, sl.pp_view);

  // Without the execution collector (Linear-PBFT variants), every replica
  // replies to every client directly — the f+1-messages-per-client cost that
  // ingredient 3 removes.
  if (!opts_.config.execution_collector) {
    for (size_t l = 0; l < rec.block.requests().size(); ++l) {
      const Request& req = rec.block.requests()[l];
      send_reply(ctx, req.client, req.timestamp, s, rec.values[l]);
    }
  }

  auto buffered = std::move(slot(s).buffered_pi);

  // Sign the new state (pi threshold) and send to the E-collectors. A
  // non-member of the slot's epoch (joiner catching up) holds no pi signer
  // and contributes nothing — the members' f+1 shares suffice.
  if (epoch_for_seq(s).contains(opts_.id) && crypto_for_seq(s).pi_signer) {
    Bytes pi_share = sign_share_maybe_corrupt(*crypto_for_seq(s).pi_signer, d);
    ctx.charge(ctx.costs().bls_sign_share_us);
    SignStateMsg ss;
    ss.seq = s;
    ss.replica = opts_.id;
    ss.exec_digest = d;
    ss.pi_share = std::move(pi_share);
    auto msg = make_message(std::move(ss));
    for (ReplicaId collector : e_collectors(epoch_for_seq(s), s, view_)) {
      send_to_replica(ctx, collector, msg);
    }
    ctx.set_timer(2 * kFastPathTimeoutUs, timer_id(kStateFallback, s));
  }
  // Replay pi shares that arrived before we executed.
  for (auto& [replica, share] : buffered) {
    SignStateMsg replay;
    replay.seq = s;
    replay.replica = replica;
    replay.exec_digest = d;  // digest re-checked against the share itself
    replay.pi_share = std::move(share);
    handle_sign_state(replay, ctx);
  }
}

void SbftReplica::handle_sign_state(const SignStateMsg& m, sim::ActorContext& ctx) {
  // Outside the window no block will fill the slot: buffering its share
  // would hold the slot forever, and the stall timer would owe it progress.
  if (retired_ || m.seq <= ls() || m.seq > ls() + opts_.config.win) return;
  uint32_t signer = signer_of(m.replica, m.seq);
  if (signer == 0) return;  // not a member of the slot's epoch
  auto collectors = fallback_e_collectors(epoch_for_seq(m.seq), m.seq, view_);
  int rank = collector_rank(collectors, opts_.id);
  if (rank < 0) return;
  Slot& sl = slot(m.seq);
  if (m.seq > le()) {
    sl.buffered_pi.emplace_back(m.replica, m.pi_share);
    ++stats_.buffered_pi_shares;
    return;
  }
  const runtime::ExecutionRecord* rec = runtime_.record(m.seq);
  if (rec == nullptr || sl.sent[kExec]) return;
  Digest d = rec->cert.exec_digest();
  // Only shares over our own executed digest can combine (robust filtering;
  // the CPU cost is charged as a batch verification at combine time, §III).
  if (!crypto_for_seq(m.seq).pi_verifier->verify_share(signer, d,
                                                       as_span(m.pi_share))) {
    ++stats_.invalid_shares_seen;
    return;
  }
  sl.quorums[kExec][d].shares.add(m.replica, as_span(m.pi_share));
  maybe_collect(sl, m.seq, kExec, d, rank, ctx);
}

void SbftReplica::send_execute_acks(SeqNum s, sim::ActorContext& ctx) {
  if (silent()) return;
  const runtime::ExecutionRecord* rec_ptr = runtime_.record(s);
  if (rec_ptr == nullptr) return;
  const runtime::ExecutionRecord& rec = *rec_ptr;
  if (rec.leaves.empty()) return;
  h_exec_to_ack_->record(ctx.now() - rec.executed_at);
  ++stats_.acked_blocks;
  trace_.instant(ctx.now(), obs::Category::kSlot, obs::ev::kExecAcks, 0, s,
                 view_, "requests", rec.block.requests().size());
  merkle::BlockMerkleTree tree(rec.leaves);
  for (size_t l = 0; l < rec.block.requests().size(); ++l) {
    const Request& req = rec.block.requests()[l];
    ExecuteAckMsg ack;
    ack.client = req.client;
    ack.timestamp = req.timestamp;
    ack.index = l;
    ack.value = to_bytes(rec.values[l]);
    ack.cert = rec.cert;
    ack.proof = tree.prove(l);
    ctx.charge(ctx.costs().hash_us(256));  // proof assembly
    ctx.send(req.client, make_message(std::move(ack)));
  }
}

void SbftReplica::handle_full_execute_proof(const FullExecuteProofMsg& m,
                                            sim::ActorContext& ctx) {
  ctx.offload(ctx.costs().bls_verify_combined_us, [this, m](sim::ActorContext& c) {
    if (!crypto_for_seq(m.seq).pi_verifier->verify(m.exec_digest,
                                                   as_span(m.pi_sig))) {
      ++stats_.invalid_shares_seen;
      return;
    }
    runtime::ExecutionRecord* rec = runtime_.record(m.seq);
    if (rec != nullptr && rec->cert.exec_digest() == m.exec_digest) {
      if (rec->cert.pi_sig.empty()) rec->cert.pi_sig = m.pi_sig;
      advance_checkpoint(m.seq, c);
    } else if (m.seq > le() + opts_.config.win / 2) {
      // Far behind the cluster: catch up via state transfer.
      request_state_transfer(c);
    }
  });
}

void SbftReplica::advance_checkpoint(SeqNum s, sim::ActorContext& ctx) {
  if (s <= ls() || s % opts_.config.checkpoint_interval() != 0) return;
  const runtime::ExecutionRecord* rec = runtime_.record(s);
  if (rec == nullptr || rec->cert.pi_sig.empty()) return;
  // The runtime promotes the snapshot captured when s executed (it matches
  // the certificate's state root by construction), persists the checkpoint
  // to the WAL, and garbage-collects execution records.
  if (!runtime_.advance_stable(rec->cert, ctx)) return;
  slots_.erase(slots_.begin(), slots_.lower_bound(ls() + 1));
  runtime_.evidence().gc_through(ls());
  // A staged reconfiguration whose boundary just became stable activates here.
  maybe_refresh_epoch(ctx);
}

// ---------------------------------------------------------------------------
// Block fetch

void SbftReplica::handle_get_block_request(const GetBlockRequestMsg& m,
                                           sim::ActorContext& ctx) {
  if (silent()) return;
  const SealedBlock* found = nullptr;
  if (Slot* sl = find_slot(m.seq); sl && sl->block &&
                                   sl->block_digest == m.block_digest) {
    found = &*sl->block;
  } else if (const runtime::ExecutionRecord* rec = runtime_.record(m.seq);
             rec != nullptr && rec->block.digest() == m.block_digest) {
    found = &rec->block;
  }
  if (!found) return;
  GetBlockReplyMsg reply;
  reply.seq = m.seq;
  reply.block = *found;
  send_to_replica(ctx, m.requester, make_message(std::move(reply)));
}

void SbftReplica::handle_get_block_reply(const GetBlockReplyMsg& m,
                                         sim::ActorContext& ctx) {
  Slot* sl = find_slot(m.seq);
  if (!sl || !sl->awaiting_block) return;
  ctx.charge(ctx.costs().hash_us(m.block.wire_size()));
  if (!(m.block.digest() == sl->awaiting_digest)) return;
  sl->awaiting_block = false;
  if (sl->awaiting_is_commit) {
    sl->block = m.block;
    sl->block_digest = sl->awaiting_digest;
    try_execute(ctx);
  } else {
    accept_pre_prepare(m.seq, view_, m.block, ctx);
  }
}

// ---------------------------------------------------------------------------
// View change (§V-G)

void SbftReplica::adopt_verified_view(ViewNum v, sim::ActorContext& ctx) {
  // Only called after a combined threshold signature bound to view v checked
  // out, so a quorum of replicas demonstrably operates in v. A replica that
  // slept through the view change (crash/recovery, long partition) would
  // otherwise wait for a NewViewMsg that was broadcast while it was down and
  // will never be re-sent. Replicas that are mid-view-change keep the normal
  // NewViewMsg path (it adopts the in-flight slots).
  if (v <= view_ || in_view_change_) return;
  trace_.instant(ctx.now(), obs::Category::kViewChange, obs::ev::kViewAdopted,
                 0, 0, v);
  install_view(v);
  progress_marker_ = le();
  if (is_primary()) {
    ctx.set_timer(kBatchTimeoutUs, timer_id(kBatchTimer, 0));
  }
}

MessagePtr SbftReplica::make_view_change(ViewNum target, sim::ActorContext& /*ctx*/) {
  ViewChangeMsg msg;
  msg.sender = opts_.id;
  msg.next_view = target;
  msg.ls = ls();
  if (ls() > 0) msg.checkpoint = runtime_.checkpoints().stable_cert();
  for (const auto& [s, sl] : slots_) {
    if (s <= ls() || s > ls() + opts_.config.win) continue;
    SlotEvidence e;
    e.seq = s;
    const runtime::SlotEvidenceRecord* ev = runtime_.evidence().find(s);
    if (ev && ev->has_slow_proof) {
      e.lm_kind = SlowEvidence::kFullProof;
      e.lm_view = ev->slow_view;
      e.lm_block_digest = ev->slow_digest;
      e.lm_sig = ev->slow_sig;
      e.lm_inner_sig = ev->slow_inner_sig;
    } else if (ev && ev->has_prepared) {
      e.lm_kind = SlowEvidence::kPrepareCert;
      e.lm_view = ev->prepared_view;
      e.lm_block_digest = ev->prepared_digest;
      e.lm_sig = ev->prepared_sig;
    }
    if (ev && ev->has_fast_proof) {
      e.fm_kind = FastEvidence::kFullProof;
      e.fm_view = ev->fast_view;
      e.fm_block_digest = ev->fast_digest;
      e.fm_sig = ev->fast_sig;
    } else if (sl.has_pp && !sl.own_sigma_share.empty() &&
               sl.h == slot_hash(s, sl.pp_view, sl.block_digest)) {
      // The fm vote is only evidence if the retained share actually signs
      // (seq, pp_view, digest). A slot adopted through enter_new_view's
      // decided branch bumps pp_view without re-signing, so its stale (or,
      // after a wiped restart, absent) share would poison the whole
      // view-change message — receivers drop it, quorums never form, and
      // the decided slot's full proof above already carries the safety
      // evidence. Found by the schedule fuzzer (seed 65): two replicas
      // poisoned this way plus one silent byzantine left view changes
      // permanently unable to converge.
      e.fm_kind = FastEvidence::kVote;
      e.fm_view = sl.pp_view;
      e.fm_block_digest = sl.block_digest;
      e.fm_sig = sl.own_sigma_share;
    }
    if (e.lm_kind == SlowEvidence::kNone && e.fm_kind == FastEvidence::kNone) continue;
    if (sl.block) e.block = sl.block;
    msg.slots.push_back(std::move(e));
  }
  return make_message(std::move(msg));
}

bool SbftReplica::check_view_evidence(const Message& msg, sim::ActorContext& ctx) {
  ViewChangeVerifiers verifiers = view_change_verifiers();
  if (const auto* vc = std::get_if<ViewChangeMsg>(&msg)) {
    ctx.charge(ctx.costs().batch_verify_us(2 * vc->slots.size() + 1));
    return validate_view_change(cfg_, verifiers, *vc);
  }
  const auto* nv = std::get_if<NewViewMsg>(&msg);
  if (nv == nullptr) return false;
  size_t evidence = 0;
  for (const auto& p : nv->proofs) evidence += 2 * p.slots.size() + 1;
  ctx.charge(ctx.costs().batch_verify_us(evidence));
  return std::all_of(nv->proofs.begin(), nv->proofs.end(),
                     [&](const ViewChangeMsg& p) {
                       return validate_view_change(cfg_, verifiers, p);
                     });
}

MessagePtr SbftReplica::make_new_view(ViewNum v,
                                      const std::vector<const Message*>& quorum,
                                      sim::ActorContext& /*ctx*/) {
  NewViewMsg nv;
  nv.view = v;
  for (const Message* vc : quorum) nv.proofs.push_back(std::get<ViewChangeMsg>(*vc));
  return make_message(std::move(nv));
}

void SbftReplica::enter_new_view(const Message& new_view, sim::ActorContext& ctx) {
  const auto& m = std::get<NewViewMsg>(new_view);
  ViewChangeVerifiers verifiers = view_change_verifiers();
  SeqNum stable = select_stable_seq(cfg_, verifiers, m.proofs);
  if (stable > le()) request_state_transfer(ctx);

  SeqNum max_evidence = stable;
  for (const auto& p : m.proofs) {
    for (const auto& e : p.slots) max_evidence = std::max(max_evidence, e.seq);
  }

  for (SeqNum j = stable + 1; j <= max_evidence; ++j) {
    if (j <= le()) continue;  // already executed; safety ensures consistency
    SafeValue safe = compute_safe_value(cfg_, verifiers, j, m.proofs);
    ctx.charge(ctx.costs().batch_verify_us(4));
    Slot& sl = slot(j);
    switch (safe.kind) {
      case SafeValue::Kind::kDecided: {
        // Record the proof so future view changes re-propagate it.
        if (safe.decided_fast) {
          runtime_.evidence().record_fast_proof(j, safe.evidence_view,
                                                safe.block_digest,
                                                safe.decided_proof);
        } else {
          runtime_.evidence().record_slow_proof(j, safe.evidence_view,
                                                safe.block_digest,
                                                safe.decided_inner,
                                                safe.decided_proof);
        }
        if (safe.block && !(sl.has_pp && sl.block_digest == safe.block_digest)) {
          sl.has_pp = true;
          sl.pp_view = m.view;
          sl.block = safe.block;
          sl.block_digest = safe.block_digest;
          // Adopted from view-change evidence, not via accept_pre_prepare:
          // open the slot span here so its execute end has a begin to pair
          // with.
          trace_.begin(ctx.now(), obs::Category::kSlot, obs::ev::kSlot,
                       (m.view << 32) | j, j, m.view);
        }
        commit(j, safe.block_digest, safe.decided_fast, ctx);
        break;
      }
      case SafeValue::Kind::kAdopt: {
        if (safe.block) {
          accept_pre_prepare(j, m.view, *safe.block, ctx);
        } else {
          sl.awaiting_block = true;
          sl.awaiting_digest = safe.block_digest;
          sl.awaiting_is_commit = false;
          GetBlockRequestMsg req;
          req.requester = opts_.id;
          req.seq = j;
          req.block_digest = safe.block_digest;
          broadcast_replicas(ctx, make_message(std::move(req)));
        }
        break;
      }
      case SafeValue::Kind::kNoop: {
        accept_pre_prepare(j, m.view, null_block(), ctx);
        break;
      }
    }
  }

  next_seq_ = std::max<SeqNum>(max_evidence + 1, stable + 1);
}

// ---------------------------------------------------------------------------
// State-transfer hooks (the chunked protocol itself lives in
// runtime::EngineShell; spec in docs/state_transfer.md)

bool SbftReplica::verify_manifest_cert(const StateManifestMsg& m,
                                       sim::ActorContext& ctx) {
  ctx.charge(ctx.costs().bls_verify_combined_us);
  return verify_cert_pi(m.cert);
}

void SbftReplica::on_checkpoint_adopted(SeqNum seq) {
  slots_.erase(slots_.begin(), slots_.upper_bound(seq));
  runtime_.evidence().gc_through(seq);
}

}  // namespace sbft::core

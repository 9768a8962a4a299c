#include "core/replica.h"

#include <algorithm>

#include "crypto/sha256.h"

namespace sbft::core {

// ---------------------------------------------------------------------------
// Per-slot state

struct SbftReplica::Slot {
  // Accepted pre-prepare (highest view).
  bool has_pp = false;
  ViewNum pp_view = 0;
  Digest block_digest{};
  std::optional<Block> block;
  Digest h{};
  Bytes own_sigma_share;  // kept for the view-change fm vote

  // The slow-path prepare certificate and the fast/slow full proofs live in
  // runtime_.evidence() (runtime/evidence_store.h) — the view-change
  // evidence layer shared with PBFT.
  bool sent_commit_share = false;

  bool committed = false;
  bool committed_fast = false;
  Digest committed_digest{};
  sim::SimTime pp_time = -1;
  sim::SimTime commit_time = -1;

  // Post-view-change adoption waiting for the block payload.
  bool awaiting_block = false;
  Digest awaiting_digest{};
  bool awaiting_is_commit = false;  // true: commit on arrival; false: adopt

  // --- C-collector state (valid for coll_view) ------------------------------
  struct Shares {
    Bytes sigma;
    Bytes tau;
  };
  ViewNum coll_view = 0;
  bool coll_active = false;
  // sign-shares grouped by h (an equivocating primary splits the quorum).
  std::map<Digest, std::map<ReplicaId, Shares>> coll_shares;
  std::map<Digest, Digest> coll_digest_of_h;  // h -> block digest
  bool coll_fast_timer_set = false;
  bool coll_sent_fast = false;
  bool coll_sent_prepare = false;
  bool coll_sent_slow = false;
  bool coll_stagger_fast_set = false;
  bool coll_stagger_prepare_set = false;
  bool coll_stagger_slow_set = false;
  Bytes coll_tau;            // tau(h) built or observed via Prepare
  Digest coll_h{};           // h the certificate refers to
  Digest coll_block_digest{};
  std::map<ReplicaId, Bytes> coll_commit_shares;  // shares over d2
  // Batch-verify + combine offloads in flight on a worker lane, keyed by the
  // h being combined. Guards against re-offloading the same quorum while its
  // verification runs; cleared by the completion callback.
  std::set<Digest> coll_fast_verifying;
  std::set<Digest> coll_prepare_verifying;
  bool coll_slow_verifying = false;

  // --- E-collector state -----------------------------------------------------
  std::map<ReplicaId, Bytes> pi_shares;  // shares matching our own exec digest
  std::vector<std::pair<ReplicaId, Bytes>> buffered_pi;  // arrived pre-execution
  bool e_sent = false;
  bool e_stagger_set = false;
  bool e_verifying = false;
};

// ---------------------------------------------------------------------------
// Construction / lifecycle

SbftReplica::SbftReplica(ReplicaOptions options, std::unique_ptr<IService> service)
    : EngineShell(std::move(options), std::move(service)),
      crypto_(std::move(options.crypto)),
      behavior_(options.behavior),
      collector_stagger_us_(options.collector_stagger_us),
      epoch_keys_(std::move(options.epoch_keys)),
      h_pending_wait_(&metrics_->histogram("stage.pending_wait_us")),
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
  verifiers.pi = crypto.pi_verifier.get();
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

void SbftReplica::on_engine_message(NodeId from, const Message& msg,
                                    sim::ActorContext& ctx) {
  std::visit(
      [&](const auto& m) {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, PrePrepareMsg>) {
          handle_pre_prepare(from, m, ctx);
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
        } else if constexpr (std::is_same_v<T, ViewChangeMsg>) {
          handle_view_change(m, ctx);
        } else if constexpr (std::is_same_v<T, NewViewMsg>) {
          handle_new_view(m, ctx);
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
  switch (kind) {
    case kFastPathTimer: {
      Slot* sl = find_slot(s);
      if (!sl || sl->committed || !sl->coll_active) break;
      if (!sl->coll_sent_fast && !sl->coll_sent_prepare) collector_try_prepare(s, ctx);
      break;
    }
    case kStaggerFast: {
      Slot* sl = find_slot(s);
      const auto* ev = runtime_.evidence().find(s);
      if (sl && sl->coll_active && !(ev && ev->has_fast_proof) && !sl->committed)
        collector_try_fast(s, ctx, /*from_stagger=*/true);
      break;
    }
    case kStaggerPrepare: {
      Slot* sl = find_slot(s);
      const auto* ev = runtime_.evidence().find(s);
      if (sl && sl->coll_active && !(ev && ev->has_prepared) && !sl->committed &&
          !sl->coll_sent_prepare)
        collector_try_prepare(s, ctx);
      break;
    }
    case kStaggerSlow: {
      Slot* sl = find_slot(s);
      const auto* ev = runtime_.evidence().find(s);
      if (sl && sl->coll_active && !(ev && ev->has_slow_proof) && !sl->committed)
        collector_try_slow_proof(s, ctx);
      break;
    }
    case kStaggerExec: {
      ecollector_try_proof(s, ctx, /*from_stagger=*/true);
      break;
    }
    case kProgressTimer: {
      progress_timer_armed_ = false;
      bool outstanding = !pending_.empty() || forwarded_waiting_ ||
                         (!slots_.empty() && slots_.rbegin()->first > le()) ||
                         in_view_change_;
      if (le() > progress_marker_) {
        // Progress was made; assume forwarded requests were served (if not,
        // the client's retry re-raises the flag).
        progress_marker_ = le();
        forwarded_waiting_ = false;
        if (outstanding) arm_progress_timer(ctx);
        break;
      }
      if (outstanding) {
        start_view_change(std::max(view_, vc_target_) + 1, ctx);
      }
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

uint64_t SbftReplica::active_window() const {
  uint64_t by_collectors = (epoch().n() - 1) / epoch().num_collectors();  // §VIII
  return std::max<uint64_t>(1, std::min(by_collectors, opts_.config.win / 4));
}

uint32_t SbftReplica::adaptive_batch_size() const {
  if (!opts_.config.adaptive_batching) return opts_.config.max_batch;
  // §VIII: an adaptive controller keyed off outstanding demand. We track an
  // EWMA of the requests the primary currently owes (queued + proposed but
  // not yet executed — the closed-loop client population) and size blocks to
  // absorb it across a couple of concurrent blocks: small batches (low
  // latency) when idle, full batches (amortized fixed costs) under load.
  uint64_t size = static_cast<uint64_t>(avg_pending_ / 2.0) + 1;
  return static_cast<uint32_t>(
      std::clamp<uint64_t>(size, 1, opts_.config.max_batch));
}

void SbftReplica::try_propose(sim::ActorContext& ctx, bool flush_partial) {
  if (!is_primary() || in_view_change_ || retired_) return;
  // Demand sample: queued requests plus requests in unexecuted blocks. The
  // in-flight scan is bounded by the window and recomputed from the slots so
  // it self-corrects across view changes and state transfer.
  uint64_t in_flight_reqs = 0;
  for (auto it = slots_.upper_bound(le());
       it != slots_.end() && it->first < next_seq_; ++it) {
    if (it->second.block) in_flight_reqs += it->second.block->requests.size();
  }
  avg_pending_ = 0.8 * avg_pending_ +
                 0.2 * static_cast<double>(pending_.size() + in_flight_reqs);
  while (!pending_.empty()) {
    // Drop requests already executed (e.g. committed via an earlier view).
    const Request& head = pending_.front().first;
    if (runtime_.replies().is_duplicate(head.client, head.timestamp)) {
      pending_keys_.erase({head.client, head.timestamp});
      pending_.pop_front();
      continue;
    }
    uint64_t in_flight = next_seq_ - 1 - le();
    if (in_flight >= active_window()) return;
    if (next_seq_ > ls() + opts_.config.win) return;
    // Reconfiguration wedge: no slot beyond a pending activation boundary may
    // be ordered under the old epoch's keys/quorums — proposals resume from
    // the boundary once the checkpoint is stable and the epoch active.
    if (SeqNum gate = reconfig_gate(); gate > 0 && next_seq_ > gate) return;

    // The adaptive `batch` value is the *minimum* operations per block
    // (§VIII); partial blocks only leave on the batch timer.
    uint32_t want = adaptive_batch_size();
    if (pending_.size() < want && !flush_partial) return;

    Block block;
    while (!pending_.empty() && block.requests.size() < want) {
      auto [r, arrived] = std::move(pending_.front());
      pending_.pop_front();
      pending_keys_.erase({r.client, r.timestamp});
      h_pending_wait_->record(ctx.now() - arrived);
      ++stats_.proposed_requests;
      block.requests.push_back(std::move(r));
    }
    if (block.requests.empty()) return;
    propose_block(std::move(block), ctx);
  }

  // Primary-driven no-op fill (docs/reconfiguration.md): a staged
  // reconfiguration only activates when the checkpoint at its boundary
  // becomes stable, and checkpoints only form when slots commit. With no
  // client traffic the cluster would idle forever short of the boundary —
  // so on batch-timer ticks the primary fills the gap with empty blocks.
  if (flush_partial && pending_.empty()) {
    SeqNum gate = reconfig_gate();
    while (gate > 0 && next_seq_ <= gate &&
           next_seq_ - 1 - le() < active_window() &&
           next_seq_ <= ls() + opts_.config.win) {
      ++stats_.noop_fill_blocks;
      propose_block(null_block(), ctx);
    }
  }
}

void SbftReplica::propose_block(Block block, sim::ActorContext& ctx) {
  SeqNum s = next_seq_++;
  ctx.charge(ctx.costs().hash_us(block.wire_size()));

  if (behavior_ == ReplicaBehavior::kEquivocate && block.requests.size() >= 2) {
    // Send conflicting blocks to the two halves of the cluster: same
    // sequence, different request order => different digests.
    Block alt = block;
    std::swap(alt.requests.front(), alt.requests.back());
    auto msg_a = make_message(PrePrepareMsg{s, view_, block});
    auto msg_b = make_message(PrePrepareMsg{s, view_, alt});
    for (const ReplicaInfo& m : epoch().members) {
      ctx.send(m.node, (m.id % 2 == 0) ? msg_a : msg_b);
    }
    return;
  }

  broadcast_replicas(ctx, make_message(PrePrepareMsg{s, view_, std::move(block)}));
}

// ---------------------------------------------------------------------------
// Fast path (§V-C)

void SbftReplica::handle_pre_prepare(NodeId from, const PrePrepareMsg& m,
                                     sim::ActorContext& ctx) {
  if (in_view_change_ || m.view != view_ || retired_) return;
  // The proposer check is slot-scoped: the slot's epoch elects its primary
  // (equal to the live epoch for every seq the window+wedge guards admit,
  // but the routing must say so — lint:epoch_math).
  if (!from_replica(from, epoch_for_seq(m.seq).primary_of(m.view))) return;
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
      static_cast<int64_t>(m.block.requests.size()) * ctx.costs().rsa_verify_us;
  ctx.offload(cost, [this, seq = m.seq, v = m.view,
                     block = m.block](sim::ActorContext& c) mutable {
    if (in_view_change_ || v != view_ || retired_) return;
    if (seq <= ls() || seq > ls() + opts_.config.win) return;
    if (SeqNum gate = reconfig_gate(); gate > 0 && seq > gate) return;
    accept_pre_prepare(seq, v, std::move(block), c);
  });
}

void SbftReplica::accept_pre_prepare(SeqNum s, ViewNum v, Block block,
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
  note_reconfig_markers(s, block);
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
  ctx.set_timer(2 * opts_.config.fast_path_timeout_us, timer_id(kShareFallback, s));
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
    sl.coll_shares.clear();
    sl.coll_commit_shares.clear();
    sl.coll_sent_fast = sl.coll_sent_prepare = sl.coll_sent_slow = false;
  }
  sl.coll_shares[m.h].emplace(m.replica, Slot::Shares{m.sigma_share, m.tau_share});
  sl.coll_digest_of_h[m.h] = m.block_digest;

  // Arm the fast->slow fallback timer on first contact (§V-E trigger).
  if (!sl.coll_fast_timer_set) {
    sl.coll_fast_timer_set = true;
    int64_t delay = opts_.config.fast_path_enabled
                        ? opts_.config.fast_path_timeout_us +
                              rank * collector_stagger_us_
                        : 0;  // fast path disabled: prepare as soon as possible
    if (opts_.config.fast_path_enabled) {
      ctx.set_timer(delay, timer_id(kFastPathTimer, m.seq));
    }
  }

  size_t count = sl.coll_shares[m.h].size();
  if (opts_.config.fast_path_enabled &&
      count >= epoch_for_seq(m.seq).fast_quorum() &&
      !sl.coll_sent_fast) {
    if (rank == 0) {
      collector_try_fast(m.seq, ctx, false);
    } else if (!sl.coll_stagger_fast_set) {
      sl.coll_stagger_fast_set = true;
      ctx.set_timer(rank * collector_stagger_us_, timer_id(kStaggerFast, m.seq));
    }
  }
  if (!opts_.config.fast_path_enabled &&
      count >= epoch_for_seq(m.seq).slow_quorum() &&
      !sl.coll_sent_prepare) {
    if (rank == 0) {
      collector_try_prepare(m.seq, ctx);
    } else if (!sl.coll_stagger_prepare_set) {
      sl.coll_stagger_prepare_set = true;
      ctx.set_timer(rank * collector_stagger_us_,
                    timer_id(kStaggerPrepare, m.seq));
    }
  }
}

void SbftReplica::collector_try_fast(SeqNum s, sim::ActorContext& ctx,
                                     bool /*from_stagger*/) {
  Slot* slp = find_slot(s);
  if (!slp || slp->coll_sent_fast) return;
  Slot& sl = *slp;
  for (auto& [h, shares] : sl.coll_shares) {
    if (sl.coll_sent_fast) break;  // an inline completion already proved s
    if (shares.size() < epoch_for_seq(s).fast_quorum()) continue;
    if (sl.coll_fast_verifying.count(h)) continue;  // combine already queued
    std::vector<crypto::SignatureShare> sigma_shares;
    sigma_shares.reserve(shares.size());
    for (auto& [replica, pair] : shares)
      sigma_shares.push_back({signer_of(replica, s), pair.sigma});
    // Batch-verify then combine, on a worker lane — combining slot s overlaps
    // collecting s+1..s+w. Group-signature mode (n-out-of-n) applies when
    // every replica contributed (§VIII).
    bool group_mode = shares.size() == epoch_for_seq(s).n();
    int64_t cost = ctx.costs().batch_verify_us(sigma_shares.size()) +
                   ctx.costs().combine_us(epoch_for_seq(s).fast_quorum(), group_mode);
    sl.coll_fast_verifying.insert(h);
    ViewNum cv = sl.coll_view;
    ctx.offload(cost, [this, s, h, cv, sigma_shares = std::move(sigma_shares)](
                          sim::ActorContext& c) {
      Slot* sp = find_slot(s);
      if (!sp) return;  // checkpoint retired the slot mid-verification
      sp->coll_fast_verifying.erase(h);
      if (sp->coll_sent_fast || !sp->coll_active || sp->coll_view != cv) return;
      auto sig = crypto_for_seq(s).sigma_verifier->combine(h, sigma_shares);
      if (!sig) {
        ++stats_.invalid_shares_seen;
        // Shares that arrived while this combine was in flight were skipped
        // by the inflight guard; if the quorum grew, retry with the larger
        // set. (Inline completions run synchronously — the set cannot have
        // grown, so this never recurses at one lane.)
        auto it = sp->coll_shares.find(h);
        if (it != sp->coll_shares.end() && it->second.size() > sigma_shares.size())
          collector_try_fast(s, c, false);
        return;  // invalid shares filtered; wait for more
      }
      sp->coll_sent_fast = true;
      trace_.instant(c.now(), obs::Category::kSlot, obs::ev::kFastProofFormed,
                     0, s, sp->coll_view, "shares", sigma_shares.size());
      FullCommitProofMsg proof;
      proof.seq = s;
      proof.view = sp->coll_view;
      proof.block_digest = sp->coll_digest_of_h[h];
      proof.sigma_sig = std::move(*sig);
      broadcast_replicas(c, make_message(std::move(proof)));
    });
  }
}

// ---------------------------------------------------------------------------
// Linear-PBFT slow path (§V-E)

void SbftReplica::collector_try_prepare(SeqNum s, sim::ActorContext& ctx) {
  Slot* slp = find_slot(s);
  if (!slp || slp->coll_sent_prepare || slp->coll_sent_fast) return;
  Slot& sl = *slp;
  for (auto& [h, shares] : sl.coll_shares) {
    if (sl.coll_sent_prepare || sl.coll_sent_fast) break;
    if (shares.size() < epoch_for_seq(s).slow_quorum()) continue;
    if (sl.coll_prepare_verifying.count(h)) continue;
    std::vector<crypto::SignatureShare> tau_shares;
    tau_shares.reserve(shares.size());
    for (auto& [replica, pair] : shares)
      tau_shares.push_back({signer_of(replica, s), pair.tau});
    int64_t cost = ctx.costs().batch_verify_us(tau_shares.size()) +
                   ctx.costs().combine_us(epoch_for_seq(s).slow_quorum(), false);
    sl.coll_prepare_verifying.insert(h);
    ViewNum cv = sl.coll_view;
    ctx.offload(cost, [this, s, h, cv, tau_shares = std::move(tau_shares)](
                          sim::ActorContext& c) {
      Slot* sp = find_slot(s);
      if (!sp) return;
      sp->coll_prepare_verifying.erase(h);
      if (sp->coll_sent_prepare || sp->coll_sent_fast || !sp->coll_active ||
          sp->coll_view != cv) {
        return;
      }
      auto sig = crypto_for_seq(s).tau_verifier->combine(h, tau_shares);
      if (!sig) {
        ++stats_.invalid_shares_seen;
        auto it = sp->coll_shares.find(h);
        if (it != sp->coll_shares.end() && it->second.size() > tau_shares.size())
          collector_try_prepare(s, c);
        return;
      }
      sp->coll_sent_prepare = true;
      trace_.instant(c.now(), obs::Category::kSlot, obs::ev::kPrepareFormed, 0,
                     s, sp->coll_view, "shares", tau_shares.size());
      sp->coll_tau = *sig;
      sp->coll_h = h;
      sp->coll_block_digest = sp->coll_digest_of_h[h];
      PrepareMsg prep;
      prep.seq = s;
      prep.view = sp->coll_view;
      prep.block_digest = sp->coll_block_digest;
      prep.tau_sig = std::move(*sig);
      broadcast_replicas(c, make_message(std::move(prep)));
    });
  }
}

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
      sl.coll_h = h;
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
  if (!slp || slp->coll_tau.empty() || slp->coll_sent_slow) return;
  Slot& sl = *slp;
  // Only shares over the commit digest of our certificate count.
  Digest expected = commit_hash(crypto::sha256(as_span(sl.coll_tau)));
  if (!(m.commit_digest == expected)) return;
  sl.coll_commit_shares.emplace(m.replica, m.tau_share);

  if (sl.coll_commit_shares.size() >= epoch_for_seq(m.seq).slow_quorum()) {
    if (rank == 0) {
      collector_try_slow_proof(m.seq, ctx);
    } else if (!sl.coll_stagger_slow_set) {
      // Staggered backups — the primary is always the last to activate
      // (§V-E); they act only if the faster collectors stayed silent.
      sl.coll_stagger_slow_set = true;
      ctx.set_timer(rank * collector_stagger_us_, timer_id(kStaggerSlow, m.seq));
    }
  }
}

void SbftReplica::collector_try_slow_proof(SeqNum s, sim::ActorContext& ctx) {
  Slot* slp = find_slot(s);
  if (!slp || slp->coll_sent_slow || slp->coll_tau.empty()) return;
  Slot& sl = *slp;
  if (sl.coll_slow_verifying) return;
  if (sl.coll_commit_shares.size() < epoch_for_seq(s).slow_quorum()) return;
  Digest d2 = commit_hash(crypto::sha256(as_span(sl.coll_tau)));
  std::vector<crypto::SignatureShare> shares;
  shares.reserve(sl.coll_commit_shares.size());
  for (auto& [replica, share] : sl.coll_commit_shares)
    shares.push_back({signer_of(replica, s), share});
  int64_t cost = ctx.costs().batch_verify_us(shares.size()) +
                 ctx.costs().combine_us(epoch_for_seq(s).slow_quorum(), false);
  sl.coll_slow_verifying = true;
  ViewNum cv = sl.coll_view;
  ctx.offload(cost, [this, s, cv, d2,
                     shares = std::move(shares)](sim::ActorContext& c) {
    Slot* sp = find_slot(s);
    if (!sp) return;
    sp->coll_slow_verifying = false;
    if (sp->coll_sent_slow || sp->coll_view != cv || sp->coll_tau.empty()) return;
    auto sig = crypto_for_seq(s).tau_verifier->combine(d2, shares);
    if (!sig) {
      ++stats_.invalid_shares_seen;
      if (sp->coll_commit_shares.size() > shares.size())
        collector_try_slow_proof(s, c);
      return;
    }
    sp->coll_sent_slow = true;
    trace_.instant(c.now(), obs::Category::kSlot, obs::ev::kSlowProofFormed, 0,
                   s, sp->coll_view, "shares", shares.size());
    FullCommitProofSlowMsg proof;
    proof.seq = s;
    proof.view = sp->coll_view;
    proof.block_digest = sp->coll_block_digest;
    proof.tau_sig = sp->coll_tau;
    proof.tau_tau_sig = std::move(*sig);
    broadcast_replicas(c, make_message(std::move(proof)));
  });
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
  sl.committed_fast = fast;
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
  if (!opts_.config.execution_collector && !silent()) {
    for (size_t l = 0; l < rec.block.requests.size(); ++l) {
      const Request& req = rec.block.requests[l];
      ClientReplyMsg reply;
      reply.replica = opts_.id;
      reply.client = req.client;
      reply.timestamp = req.timestamp;
      reply.seq = s;
      reply.value = rec.values[l];
      ctx.send(req.client, make_message(std::move(reply)));
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
    ctx.set_timer(2 * opts_.config.fast_path_timeout_us,
                  timer_id(kStateFallback, s));
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
  if (retired_) return;
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
  if (rec == nullptr || sl.e_sent) return;
  Digest d = rec->cert.exec_digest();
  // Only shares over our own executed digest can combine (robust filtering;
  // the CPU cost is charged as a batch verification at combine time, §III).
  if (!crypto_for_seq(m.seq).pi_verifier->verify_share(signer, d,
                                                       as_span(m.pi_share))) {
    ++stats_.invalid_shares_seen;
    return;
  }
  sl.pi_shares.emplace(m.replica, m.pi_share);
  if (sl.pi_shares.size() >= epoch_for_seq(m.seq).exec_quorum()) {
    if (rank == 0) {
      ecollector_try_proof(m.seq, ctx, false);
    } else if (!sl.e_stagger_set) {
      sl.e_stagger_set = true;
      ctx.set_timer(rank * collector_stagger_us_, timer_id(kStaggerExec, m.seq));
    }
  }
}

void SbftReplica::ecollector_try_proof(SeqNum s, sim::ActorContext& ctx,
                                       bool /*from_stagger*/) {
  Slot* slp = find_slot(s);
  runtime::ExecutionRecord* rec = runtime_.record(s);
  if (!slp || rec == nullptr || slp->e_sent) return;
  // Another collector already certified this sequence?
  if (!rec->cert.pi_sig.empty()) return;
  Slot& sl = *slp;
  if (sl.e_verifying) return;
  if (sl.pi_shares.size() < epoch_for_seq(s).exec_quorum()) return;
  Digest d = rec->cert.exec_digest();
  std::vector<crypto::SignatureShare> shares;
  shares.reserve(sl.pi_shares.size());
  for (auto& [replica, share] : sl.pi_shares)
    shares.push_back({signer_of(replica, s), share});
  int64_t cost = ctx.costs().batch_verify_us(shares.size()) +
                 ctx.costs().combine_us(epoch_for_seq(s).exec_quorum(), false);
  sl.e_verifying = true;
  ctx.offload(cost, [this, s, d, shares = std::move(shares)](sim::ActorContext& c) {
    Slot* sp = find_slot(s);
    if (!sp) return;
    sp->e_verifying = false;
    runtime::ExecutionRecord* rec2 = runtime_.record(s);
    if (rec2 == nullptr || sp->e_sent || !rec2->cert.pi_sig.empty()) return;
    if (!(rec2->cert.exec_digest() == d)) return;  // re-executed differently
    auto sig = crypto_for_seq(s).pi_verifier->combine(d, shares);
    if (!sig) {
      ++stats_.invalid_shares_seen;
      if (sp->pi_shares.size() > shares.size())
        ecollector_try_proof(s, c, false);
      return;
    }
    sp->e_sent = true;
    rec2->cert.pi_sig = *sig;
    FullExecuteProofMsg proof;
    proof.seq = s;
    proof.exec_digest = d;
    proof.pi_sig = std::move(*sig);
    broadcast_replicas(c, make_message(std::move(proof)));
    if (opts_.config.execution_collector) send_execute_acks(s, c);
  });
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
                 view_, "requests", rec.block.requests.size());
  merkle::BlockMerkleTree tree(rec.leaves);
  for (size_t l = 0; l < rec.block.requests.size(); ++l) {
    const Request& req = rec.block.requests[l];
    ExecuteAckMsg ack;
    ack.client = req.client;
    ack.timestamp = req.timestamp;
    ack.index = l;
    ack.value = rec.values[l];
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
  const Block* found = nullptr;
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
  view_ = v;
  trace_.instant(ctx.now(), obs::Category::kViewChange, obs::ev::kViewAdopted,
                 0, 0, v);
  vc_target_ = v;
  vc_attempts_ = 0;
  new_view_sent_ = false;
  vc_msgs_.erase(vc_msgs_.begin(), vc_msgs_.upper_bound(v));
  progress_marker_ = le();
  runtime_.wal_record_view(v);
  if (is_primary()) {
    ctx.set_timer(opts_.config.batch_timeout_us, timer_id(kBatchTimer, 0));
  }
}

void SbftReplica::start_view_change(ViewNum target, sim::ActorContext& ctx) {
  if (target <= view_ || retired_) return;
  if (in_view_change_ && target <= vc_target_) return;
  in_view_change_ = true;
  vc_target_ = target;
  ++vc_attempts_;
  ++stats_.view_changes;
  // One session span per target view; escalating to a higher target closes
  // the superseded session and opens the next.
  if (vc_span_ != 0 && vc_span_ != target) {
    trace_.end(ctx.now(), obs::Category::kViewChange, obs::ev::kViewChange,
               vc_span_, 0, vc_span_, "superseded", 1);
  }
  if (vc_span_ != target) {
    vc_span_ = target;
    trace_.begin(ctx.now(), obs::Category::kViewChange, obs::ev::kViewChange,
                 target, 0, target);
  }

  ViewChangeMsg msg = build_view_change(target);
  vc_msgs_[target][opts_.id] = msg;
  broadcast_replicas(ctx, make_message(ViewChangeMsg(msg)));
  arm_progress_timer(ctx);  // exponential backoff to target+1 if this stalls
  if (epoch().primary_of(target) == opts_.id) maybe_send_new_view(target, ctx);
}

ViewChangeMsg SbftReplica::build_view_change(ViewNum target) const {
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
  return msg;
}

void SbftReplica::handle_view_change(const ViewChangeMsg& m, sim::ActorContext& ctx) {
  if (m.next_view <= view_ || retired_) return;
  ViewChangeVerifiers verifiers = view_change_verifiers();
  ctx.charge(ctx.costs().batch_verify_us(2 * m.slots.size() + 1));
  if (!validate_view_change(cfg_, verifiers, m)) return;
  vc_msgs_[m.next_view][m.sender] = m;

  // Join rule (§VII): f+1 distinct replicas ahead of us force our hand.
  if (m.next_view > vc_target_ || !in_view_change_) {
    size_t ahead = 0;
    for (const auto& [target, senders] : vc_msgs_) {
      if (target > view_) ahead = std::max(ahead, senders.size());
    }
    if (ahead >= cfg_.f + 1) {
      ViewNum best = view_;
      for (const auto& [target, senders] : vc_msgs_) {
        if (senders.size() >= cfg_.f + 1) best = std::max(best, target);
      }
      if (best > view_) start_view_change(best, ctx);
    }
  }
  if (epoch().primary_of(m.next_view) == opts_.id)
    maybe_send_new_view(m.next_view, ctx);
}

void SbftReplica::maybe_send_new_view(ViewNum target, sim::ActorContext& ctx) {
  if (new_view_sent_ && vc_target_ >= target) return;
  auto it = vc_msgs_.find(target);
  if (it == vc_msgs_.end() || it->second.size() < cfg_.view_change_quorum())
    return;
  NewViewMsg nv;
  nv.view = target;
  for (const auto& [sender, msg] : it->second) {
    nv.proofs.push_back(msg);
    if (nv.proofs.size() == cfg_.view_change_quorum()) break;
  }
  new_view_sent_ = true;
  trace_.instant(ctx.now(), obs::Category::kViewChange, obs::ev::kNewViewSent,
                 0, 0, target);
  broadcast_replicas(ctx, make_message(NewViewMsg(nv)));
  enter_new_view(nv, ctx);
}

void SbftReplica::handle_new_view(const NewViewMsg& m, sim::ActorContext& ctx) {
  if (m.view <= view_ || retired_) return;
  ViewChangeVerifiers verifiers = view_change_verifiers();
  size_t evidence = 0;
  for (const auto& p : m.proofs) evidence += 2 * p.slots.size() + 1;
  ctx.charge(ctx.costs().batch_verify_us(evidence));
  if (!validate_new_view(cfg_, verifiers, m)) return;
  enter_new_view(m, ctx);
}

void SbftReplica::enter_new_view(const NewViewMsg& m, sim::ActorContext& ctx) {
  if (m.view < view_ || (m.view == view_ && !in_view_change_) || retired_) return;
  ViewChangeVerifiers verifiers = view_change_verifiers();

  view_ = m.view;
  in_view_change_ = false;
  if (vc_span_ != 0) {
    trace_.end(ctx.now(), obs::Category::kViewChange, obs::ev::kViewChange,
               vc_span_, 0, vc_span_, "entered_view", m.view);
    vc_span_ = 0;
  } else {
    // Entered on the strength of a NewView alone (never locally timed out).
    trace_.instant(ctx.now(), obs::Category::kViewChange, obs::ev::kViewEntered,
                   0, 0, m.view);
  }
  vc_target_ = m.view;
  vc_attempts_ = 0;
  new_view_sent_ = false;
  vc_msgs_.erase(vc_msgs_.begin(), vc_msgs_.upper_bound(m.view));
  runtime_.wal_record_view(m.view);

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
  progress_marker_ = le();
  if (is_primary()) {
    ctx.set_timer(opts_.config.batch_timeout_us, timer_id(kBatchTimer, 0));
    try_propose(ctx);
  }
  arm_progress_timer(ctx);
}

// ---------------------------------------------------------------------------
// State-transfer hooks (the chunked protocol itself lives in
// runtime::EngineShell; spec in docs/state_transfer.md)

bool SbftReplica::state_transfer_behind() const {
  // A committed-but-unfetchable slot or delivered traffic far past le() means
  // blocks this replica will never see again; a wiped/restarted boot that has
  // recovered nothing yet must also keep probing (its first probe may race
  // ahead of any checkpoint existing). A joiner — bootstrapped with a roster
  // that does not contain it — keeps probing until the epoch admitting it
  // arrives via a fetched checkpoint (docs/reconfiguration.md).
  const Slot* next = nullptr;
  if (auto it = slots_.find(le() + 1); it != slots_.end()) next = &it->second;
  return (!slots_.empty() && slots_.rbegin()->first > le() + opts_.config.win) ||
         (next && next->committed && !next->block) ||
         (opts_.recovering && le() == 0 && ls() == 0) ||
         (!retired_ && !runtime_.membership().is_member(opts_.id));
}

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

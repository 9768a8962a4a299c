#include "runtime/engine_shell.h"

#include <algorithm>

namespace sbft::runtime {

RuntimeOptions make_runtime_options(const EngineOptions& opts) {
  RuntimeOptions ro;
  ro.checkpoint_interval = opts.config.checkpoint_interval();
  ro.ledger = opts.ledger;
  ro.wal = opts.wal;
  ro.state_transfer_chunk_size = opts.config.state_transfer_chunk_size;
  ro.state_transfer_max_chunks_per_request =
      opts.config.state_transfer_max_chunks_per_request;
  ro.state_transfer_donor_chunks_per_tick =
      opts.config.state_transfer_donor_chunks_per_tick;
  ro.state_transfer_delta_history = opts.config.state_transfer_delta_history;
  ro.self = opts.id;
  ro.tracer = opts.tracer;
  ro.marker_executor = opts.marker_executor;
  if (!opts.roster.empty()) {
    ro.membership_f = opts.roster_f > 0 ? opts.roster_f : opts.config.f;
    ro.membership_c = opts.roster_f > 0 ? opts.roster_c : opts.config.c;
    ro.bootstrap_members = opts.roster;
  } else {
    ro.membership_f = opts.config.f;
    ro.membership_c = opts.config.c;
    for (ReplicaId r = 1; r <= opts.config.n(); ++r) {
      ro.bootstrap_members.push_back({r, r - 1});
    }
  }
  return ro;
}

// ---------------------------------------------------------------------------
// Construction / lifecycle

EngineShell::EngineShell(EngineOptions options, std::unique_ptr<IService> service)
    : opts_(std::move(options)),
      runtime_(make_runtime_options(opts_), std::move(service)),
      trace_(opts_.tracer ? *opts_.tracer : obs::Tracer::nop()),
      metrics_(opts_.metrics ? opts_.metrics
                             : std::make_shared<obs::MetricsRegistry>()),
      h_pp_to_commit_(&metrics_->histogram("stage.pp_to_commit_us")),
      h_commit_to_exec_(&metrics_->histogram("stage.commit_to_exec_us")),
      cfg_(opts_.config) {
  opts_.config.validate();
  // With an explicit roster the id may exceed the genesis n (a joiner added
  // by a later epoch); the genesis mapping requires id in 1..n.
  SBFT_CHECK(opts_.id >= 1 &&
             (!opts_.roster.empty() || opts_.id <= opts_.config.n()));
  recover_from_storage();
  // Recovery may have reinstalled a later epoch; fold it into the derived
  // config and retirement state (no context: timers re-arm in on_start).
  // A non-member is a *joiner* only when nothing local says otherwise; a
  // restarted removed member — whose recovered WAL carries the epoch that
  // excluded it — re-retires instead of probing for an admission that will
  // never come. (A wiped removed member boots as a joiner and retires the
  // moment it adopts a checkpoint whose epoch excludes it.)
  cfg_ = epoch().derive_config(opts_.config);
  runtime_.take_epoch_change();
  retired_ = !runtime_.membership().is_member(opts_.id) &&
             (!opts_.recovering || runtime_.stats().recoveries > 0);
}

void EngineShell::recover_from_storage() {
  auto recovered = runtime_.recover();
  if (!recovered) return;  // fresh storage, or snapshot failed verification

  view_ = recovered->view;
  vc_target_ = view_;
  progress_marker_ = le();
  next_seq_ = recovered->install_votes(wal_votes_, le() + 1);
  recovered_replay_bytes_ = recovered->replayed_bytes;
}

void EngineShell::on_start(sim::ActorContext& ctx) {
  // Boot-time replay cost: reading the ledger suffix back and re-executing it
  // is charged like the sequential I/O that produced it.
  if (recovered_replay_bytes_ > 0) {
    ctx.charge(ctx.costs().persist_us(recovered_replay_bytes_));
  }
  if (is_primary()) {
    ctx.set_timer(opts_.config.batch_timeout_us, timer_id(kBatchTimer, 0));
  }
  if (opts_.marker_executor != nullptr &&
      opts_.marker_executor->tick_interval_us() > 0) {
    ctx.set_timer(opts_.marker_executor->tick_interval_us(),
                  timer_id(kShardTickTimer, 0));
  }
  // Recovery replay may have re-run shard decisions whose results the
  // outside world never saw (crash between execute and send): flush them.
  pump_marker_executor(ctx);
  // A restarted replica may have slept through checkpoints (or lost its disk
  // entirely): probe for a newer stable checkpoint right away instead of
  // waiting to notice the gap from protocol traffic.
  if (opts_.recovering) request_state_transfer(ctx);
}

// ---------------------------------------------------------------------------
// Dispatch

void EngineShell::on_message(NodeId from, const Message& msg, sim::ActorContext& ctx) {
  bool handled = std::visit(
      [&](const auto& m) {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, ClientRequestMsg>) {
          handle_client_request(from, m, ctx);
        } else if constexpr (std::is_same_v<T, StateTransferRequestMsg>) {
          handle_state_transfer_request(from, m, ctx);
        } else if constexpr (std::is_same_v<T, StateManifestMsg>) {
          handle_state_manifest(from, m, ctx);
        } else if constexpr (std::is_same_v<T, StateChunkRequestMsg>) {
          handle_state_chunk_request(from, m, ctx);
        } else if constexpr (std::is_same_v<T, StateChunkMsg>) {
          handle_state_chunk(from, m, ctx);
        } else if constexpr (std::is_same_v<T, ReconfigBlockMsg>) {
          handle_reconfig_block(m, ctx);
        } else if constexpr (std::is_same_v<T, TxVoteMsg> ||
                             std::is_same_v<T, TxDecisionMsg>) {
          // Cross-shard 2PC traffic belongs to the marker executor; the pump
          // below relays its responses and stages decision markers.
          if (opts_.marker_executor != nullptr) {
            opts_.marker_executor->on_network(from, msg, ctx.now());
          }
        } else {
          return false;
        }
        return true;
      },
      msg);
  if (!handled) on_engine_message(from, msg, ctx);
  pump_marker_executor(ctx);
}

void EngineShell::on_timer(uint64_t id, sim::ActorContext& ctx) {
  uint64_t kind = id >> 48;
  switch (kind) {
    case kBatchTimer:
      // Flush partial batches so low load never waits forever (§V-C "or
      // reaching a timeout").
      if (is_primary() && !in_view_change_) try_propose(ctx, /*flush_partial=*/true);
      if (is_primary()) {
        ctx.set_timer(opts_.config.batch_timeout_us, timer_id(kBatchTimer, 0));
      }
      break;
    case kStateTransferTimer:
      on_state_transfer_tick(ctx);
      break;
    case kDonorTickTimer:
      on_donor_tick(ctx);
      break;
    case kShardTickTimer:
      if (opts_.marker_executor != nullptr) {
        opts_.marker_executor->on_tick(ctx.now());
        ctx.set_timer(opts_.marker_executor->tick_interval_us(),
                      timer_id(kShardTickTimer, 0));
      }
      break;
    default:
      on_engine_timer(kind, id & 0xffffffffffffull, ctx);
      break;
  }
  pump_marker_executor(ctx);
}

// ---------------------------------------------------------------------------
// Membership epochs

NodeId EngineShell::node_of(ReplicaId r) const {
  // Resolve through the membership history (a state-transfer requester may be
  // a joiner known only from a staged delta; a donor may be a member of an
  // epoch this replica already left behind). Genesis fallback r-1 covers the
  // unconfigured unit-test paths.
  const MembershipManager& m = runtime_.membership();
  if (!m.configured()) return r - 1;
  for (auto it = m.history().rbegin(); it != m.history().rend(); ++it) {
    if (int rank = it->rank_of(r); rank >= 0) {
      return it->members[static_cast<size_t>(rank)].node;
    }
  }
  if (m.pending()) {
    for (const ReplicaInfo& add : m.pending()->delta.adds) {
      if (add.id == r) return add.node;
    }
  }
  return r - 1;
}

SeqNum EngineShell::reconfig_gate() const {
  if (SeqNum staged = runtime_.membership().pending_activation(); staged > 0) {
    return staged;
  }
  return shadow_gate_ > le() ? shadow_gate_ : 0;
}

void EngineShell::maybe_refresh_epoch(sim::ActorContext& ctx) {
  if (!runtime_.take_epoch_change()) return;
  cfg_ = epoch().derive_config(opts_.config);
  shadow_gate_ = 0;
  if (!runtime_.membership().is_member(opts_.id)) {
    // Removed: drain. Keep serving state transfer and cached replies; never
    // vote, propose, or start view changes again.
    retired_ = true;
    trace_.instant(ctx.now(), obs::Category::kReconfig, obs::ev::kEpochRetired,
                   0, 0, 0, "epoch", epoch().epoch);
    in_view_change_ = false;
    pending_.clear();
    pending_keys_.clear();
    return;
  }
  // A replica that just joined needs nothing special — the slots above its
  // adopted checkpoint arrive through the normal protocol paths.
  retired_ = false;
  if (is_primary()) {
    ctx.set_timer(opts_.config.batch_timeout_us, timer_id(kBatchTimer, 0));
    try_propose(ctx);
  }
}

void EngineShell::note_reconfig_markers(SeqNum s, const Block& block) {
  // Later slots are refused until the marker executes (when the runtime's
  // staged boundary takes over) or the slot is superseded. Without this,
  // pre-boundary keys could sign post-boundary slots in the window between
  // ordering and executing the marker.
  for (const Request& req : block.requests) {
    if (decode_reconfig_request(req)) {
      uint64_t interval = opts_.config.checkpoint_interval();
      SeqNum boundary = (s + interval - 1) / interval * interval;
      shadow_gate_ = std::max(shadow_gate_, boundary);
    }
  }
}

// ---------------------------------------------------------------------------
// Helpers

bool EngineShell::record_vote(SeqNum s, ViewNum v, const Digest& digest) {
  if (auto wv = wal_votes_.find(s); wv != wal_votes_.end() &&
                                    wv->second.first >= v &&
                                    !(wv->second.second == digest)) {
    return false;
  }
  runtime_.wal_record_vote(s, v, digest);
  return true;
}

void EngineShell::send_to_replica(sim::ActorContext& ctx, ReplicaId r, MessagePtr msg) {
  if (silent()) return;
  ctx.send(node_of(r), std::move(msg));
}

void EngineShell::broadcast_replicas(sim::ActorContext& ctx, MessagePtr msg) {
  if (silent()) return;
  for (const ReplicaInfo& m : epoch().members) ctx.send(m.node, msg);
}

void EngineShell::arm_progress_timer(sim::ActorContext& ctx) {
  if (progress_timer_armed_) return;
  progress_timer_armed_ = true;
  int64_t backoff = opts_.config.view_change_timeout_us
                    << std::min<uint32_t>(vc_attempts_, 6);
  ctx.set_timer(backoff, timer_id(kProgressTimer, 0));
}

// ---------------------------------------------------------------------------
// Admission

void EngineShell::handle_client_request(NodeId from, const ClientRequestMsg& m,
                                        sim::ActorContext& ctx) {
  const Request& req = m.request;
  // The reconfiguration marker id is reserved for blocks the primary builds
  // from ReconfigBlockMsg; a "client" claiming it is forging. Same for the
  // shard 2PC decision marker id (decisions enter via the marker executor).
  if (req.client == kReconfigClient || req.client == kShardTxClient) return;
  // Client request signature ([31]): verified on a worker lane when the node
  // has one; admission continues in the completion.
  ctx.offload(ctx.costs().rsa_verify_us,
              [this, from, req](sim::ActorContext& c) {
                admit_client_request(from, req, c);
              });
}

void EngineShell::admit_client_request(NodeId from, const Request& req,
                                       sim::ActorContext& ctx) {
  if (const CachedReply* cached = runtime_.cached_reply(req.client, req.timestamp)) {
    // Already executed: serve the cached reply (client retry path, §V-A).
    ClientReplyMsg reply;
    reply.replica = opts_.id;
    reply.client = req.client;
    reply.timestamp = cached->timestamp;
    reply.seq = cached->seq;
    reply.value = cached->value;
    if (!silent()) ctx.send(req.client, make_message(std::move(reply)));
    trace_.instant(ctx.now(), obs::Category::kSlot, obs::ev::kReplyCached, 0,
                   cached->seq, cached_reply_trace_view(), "client", req.client);
    return;
  }
  if (retired_) return;  // drained: serves caches only, never orders
  if (censors(req)) return;
  if (is_primary() && !in_view_change_) {
    auto key = std::make_pair(req.client, req.timestamp);
    if (pending_keys_.insert(key).second) {
      pending_.emplace_back(req, ctx.now());
      trace_.instant(ctx.now(), obs::Category::kSlot, obs::ev::kRequestAdmitted,
                     0, 0, view_, "client", req.client);
    }
    try_propose(ctx);
  } else if (from == req.client) {
    // Forward to the current primary; remember that we owe progress — if the
    // primary never commits this request the timer forces a view change.
    send_to_replica(ctx, epoch().primary_of(view_),
                    make_message(ClientRequestMsg{req}));
    forwarded_waiting_ = true;
    arm_progress_timer(ctx);
  }
}

void EngineShell::handle_reconfig_block(const ReconfigBlockMsg& m,
                                        sim::ActorContext& ctx) {
  // Administrative channel (docs/reconfiguration.md): the operator submits
  // the delta to every replica; the primary orders it as a marker request.
  // Validation is repeated deterministically at execution, so a stale or
  // inconsistent delta becomes an ordered no-op.
  if (retired_ || silent() || !is_primary() || in_view_change_) return;
  auto key = std::make_pair(kReconfigClient, m.nonce);
  if (pending_keys_.insert(key).second) {
    pending_.emplace_back(make_reconfig_request(m.delta, m.nonce), ctx.now());
  }
  try_propose(ctx, /*flush_partial=*/true);
}

void EngineShell::pump_marker_executor(sim::ActorContext& ctx) {
  IMarkerExecutor* ex = opts_.marker_executor;
  if (ex == nullptr) return;
  // Relay whatever the executor queued while handling ordered markers or
  // cross-group messages (votes, decision broadcasts, client results).
  for (auto& [node, msg] : ex->take_outbound()) {
    if (!silent()) ctx.send(node, std::move(msg));
  }
  // Decision markers the executor wants ordered go through the primary's
  // pending queue like reconfiguration blocks; on a backup they are dropped
  // here and re-staged by the executor's tick (possibly under a new primary).
  if (retired_ || silent() || !is_primary() || in_view_change_) {
    ex->take_marker_requests();
    return;
  }
  bool queued = false;
  for (Request& req : ex->take_marker_requests()) {
    auto key = std::make_pair(req.client, req.timestamp);
    if (pending_keys_.insert(key).second) {
      pending_.emplace_back(std::move(req), ctx.now());
      queued = true;
    }
  }
  if (queued) try_propose(ctx, /*flush_partial=*/true);
}

// ---------------------------------------------------------------------------
// Chunked state transfer (§VIII; protocol spec in docs/state_transfer.md)

void EngineShell::request_state_transfer(sim::ActorContext& ctx) {
  // A retired (removed) replica drains: it serves its retained checkpoint
  // but never fetches newer state — adopting one would advance its
  // execution past the drain point.
  if (silent() || retired_) return;
  if (runtime_.state_transfer().active()) return;  // a fetch round is running
  ++runtime_.stats().state_transfers;
  if (!st_span_open_) {
    st_span_open_ = true;
    trace_.begin(ctx.now(), obs::Category::kStateTransfer, obs::ev::kStateTransfer,
                 ++st_session_, le());
  }
  broadcast_state_probe(ctx);
  if (!st_inflight_) {
    st_inflight_ = true;  // retry timer armed
    ctx.set_timer(opts_.config.state_transfer_retry_us,
                  timer_id(kStateTransferTimer, 0));
  }
}

void EngineShell::on_state_transfer_tick(sim::ActorContext& ctx) {
  // Single retry loop; the stop/probe decisions live in the manager.
  auto tick = runtime_.state_transfer().on_retry_tick(le(), state_transfer_behind(),
                                                      runtime_.stats());
  if (tick.stop) {
    st_inflight_ = false;
    if (st_span_open_ && !state_transfer_behind()) {
      st_span_open_ = false;
      trace_.end(ctx.now(), obs::Category::kStateTransfer, obs::ev::kStateTransfer,
                 st_session_, le());
    }
    // The fetch that just ended may have become moot for its *target* while
    // the replica fell behind a newer checkpoint (the cluster moved on
    // mid-fetch): start over.
    if (state_transfer_behind()) request_state_transfer(ctx);
    return;
  }
  if (tick.probe) {
    broadcast_state_probe(ctx);
  } else {
    trace_.instant(ctx.now(), obs::Category::kStateTransfer, obs::ev::kStResume,
                   st_session_, le());
  }
  send_chunk_requests(ctx);
  ctx.set_timer(opts_.config.state_transfer_retry_us,
                timer_id(kStateTransferTimer, 0));
}

void EngineShell::handle_state_transfer_request(NodeId from,
                                                const StateTransferRequestMsg& m,
                                                sim::ActorContext& ctx) {
  if (silent() || fabricated_manifest(from, m, ctx)) return;
  // Ship the consistent (certificate, snapshot) pair — never the bare stable
  // checkpoint, whose snapshot may not have been captured. Replies go to the
  // requesting *node*: a joining replica is not in any epoch the donor holds
  // yet, so its id resolves through no roster.
  StateTransferManager& st = runtime_.state_transfer();
  const CheckpointManager& cp = runtime_.checkpoints();
  // Building the chunk tree hashes the whole envelope — charged only when the
  // cache is cold for this checkpoint, not on every repeated probe
  // (note_checkpoint keeps it warm in steady state).
  bool cold = st.donor_cached_seq() != cp.snapshot_cert().seq;
  auto manifest = st.make_manifest(cp, m, opts_.id);
  if (!manifest || !prepare_manifest(*manifest)) return;
  if (cold) ctx.charge(ctx.costs().hash_us(cp.snapshot().size()));
  ctx.send(from, make_message(std::move(*manifest)));
}

void EngineShell::handle_state_manifest(NodeId from, const StateManifestMsg& m,
                                        sim::ActorContext& ctx) {
  StateTransferManager& st = runtime_.state_transfer();
  if (silent() || !st.active() || m.seq <= le()) return;
  // The donor field must match the authenticated channel's sender: donor
  // identity drives registration and (on an invalid chunk) exclusion, so a
  // Byzantine replica must not be able to impersonate honest donors. All
  // cheap structural checks run before the certificate is verified — an
  // excluded donor spamming manifests must not cost a verification each.
  if (!from_replica(from, m.donor)) return;
  if (m.cert.seq != m.seq || st.donor_excluded(m.donor)) return;
  // The certificate must verify before the manifest can target the fetch;
  // the chunk root itself is bound end-to-end by the final state-root check
  // in adopt_checkpoint (a lying manifest sender is excluded there).
  if (!verify_manifest_cert(m, ctx)) return;
  if (!st.on_manifest(m, le(), runtime_.checkpoints(), runtime_.stats())) return;
  trace_.instant(ctx.now(), obs::Category::kStateTransfer, obs::ev::kStManifest,
                 st_session_, m.seq, 0, "donor", m.donor);
  // A delta manifest may have seeded every chunk from the local base — the
  // fetch can be complete without a single wire chunk.
  if (st.fetch_complete()) {
    complete_chunked_transfer(ctx);
  } else {
    send_chunk_requests(ctx);
  }
}

void EngineShell::handle_state_chunk_request(NodeId from,
                                             const StateChunkRequestMsg& m,
                                             sim::ActorContext& ctx) {
  if (silent() || fabricated_chunks(from, m, ctx)) return;
  std::vector<StateChunkMsg> chunks = runtime_.state_transfer().make_chunks(
      runtime_.checkpoints(), m, opts_.id, runtime_.stats(), from);
  for (StateChunkMsg& c : chunks) {
    ctx.charge(ctx.costs().hash_us(c.data.size()));
    if (opts_.corrupt_state_chunks && !c.data.empty()) c.data[0] ^= 0xff;
    ctx.send(from, make_message(std::move(c)));  // joiners resolve by node only
  }
  arm_donor_tick(ctx);
}

void EngineShell::on_donor_tick(sim::ActorContext& ctx) {
  donor_tick_armed_ = false;
  for (auto& [node, chunk] : runtime_.state_transfer().on_donor_tick(
           runtime_.checkpoints(), opts_.id, runtime_.stats())) {
    ctx.charge(ctx.costs().hash_us(chunk.data.size()));
    if (opts_.corrupt_state_chunks && !chunk.data.empty()) chunk.data[0] ^= 0xff;
    if (!silent()) ctx.send(node, make_message(std::move(chunk)));
  }
  arm_donor_tick(ctx);
}

void EngineShell::broadcast_state_probe(sim::ActorContext& ctx) {
  StateTransferManager& st = runtime_.state_transfer();
  const CheckpointManager& cp = runtime_.checkpoints();
  // The probe advertises this replica's retained checkpoint as the delta
  // base; computing its transfer root chunk-hashes the local snapshot when
  // the donor cache is cold (mirrors the manifest-side cold charge).
  bool cold = cp.has_shippable() && st.donor_cached_seq() != cp.snapshot_cert().seq;
  StateTransferRequestMsg probe = st.make_probe(cp, opts_.id, le());
  if (cold && probe.base_seq > 0) {
    ctx.charge(ctx.costs().hash_us(cp.snapshot().size()));
  }
  trace_.instant(ctx.now(), obs::Category::kStateTransfer, obs::ev::kStProbe,
                 st_session_, le());
  broadcast_replicas(ctx, make_message(std::move(probe)));
}

void EngineShell::arm_donor_tick(sim::ActorContext& ctx) {
  if (donor_tick_armed_ || !runtime_.state_transfer().donor_tick_needed()) return;
  donor_tick_armed_ = true;
  ctx.set_timer(opts_.config.state_transfer_donor_tick_us,
                timer_id(kDonorTickTimer, 0));
}

void EngineShell::handle_state_chunk(NodeId from, const StateChunkMsg& m,
                                     sim::ActorContext& ctx) {
  if (silent()) return;
  // Spoofed donor ids could exclude honest donors (see handle_state_manifest).
  if (!from_replica(from, m.donor)) return;
  StateTransferManager& st = runtime_.state_transfer();
  ctx.charge(ctx.costs().hash_us(m.data.size()));  // leaf hash + proof path
  using Verdict = StateTransferManager::ChunkVerdict;
  switch (Verdict verdict = st.on_chunk(m, runtime_.stats()); verdict) {
    case Verdict::kCompleted:
      trace_.instant(ctx.now(), obs::Category::kStateTransfer,
                     obs::ev::kStChunkStored, st_session_, m.seq, 0, "index",
                     m.index);
      complete_chunked_transfer(ctx);
      break;
    case Verdict::kStored:
    case Verdict::kInvalid:
      trace_.instant(ctx.now(), obs::Category::kStateTransfer,
                     verdict == Verdict::kStored ? obs::ev::kStChunkStored
                                                 : obs::ev::kStChunkInvalid,
                     st_session_, m.seq, 0,
                     verdict == Verdict::kStored ? "index" : "donor",
                     verdict == Verdict::kStored ? m.index : m.donor);
      // Keep the pipeline full; an invalid chunk also re-plans the indices
      // that were outstanding at the now-excluded donor.
      send_chunk_requests(ctx);
      break;
    case Verdict::kDuplicate:
    case Verdict::kRejected:
      break;
  }
}

void EngineShell::send_chunk_requests(sim::ActorContext& ctx) {
  for (auto& [donor, req] : runtime_.state_transfer().plan_requests(opts_.id)) {
    send_to_replica(ctx, donor, make_message(std::move(req)));
  }
}

void EngineShell::complete_chunked_transfer(sim::ActorContext& ctx) {
  StateTransferManager& st = runtime_.state_transfer();
  ExecCertificate cert = st.target_cert();
  Bytes envelope = st.take_envelope();
  bool adopted = runtime_.adopt_checkpoint(cert, as_span(envelope), ctx);
  // The stale-target vs lying-manifest distinction lives in the manager.
  if (st.on_adopt_result(adopted, le())) broadcast_state_probe(ctx);
  if (!adopted) {
    // Session stays open: the retry tick re-probes or stops it.
    trace_.instant(ctx.now(), obs::Category::kStateTransfer,
                   obs::ev::kStAdoptFailed, st_session_, cert.seq);
    return;
  }
  trace_.instant(ctx.now(), obs::Category::kStateTransfer, obs::ev::kStAdopt,
                 st_session_, cert.seq, 0, "digest",
                 obs::digest_prefix(cert.exec_digest().data()));
  if (st_span_open_) {
    st_span_open_ = false;
    trace_.end(ctx.now(), obs::Category::kStateTransfer, obs::ev::kStateTransfer,
               st_session_, cert.seq);
  }
  on_checkpoint_adopted(cert.seq);
  maybe_refresh_epoch(ctx);  // the adopted envelope may carry a newer epoch
  try_execute(ctx);
}

}  // namespace sbft::runtime

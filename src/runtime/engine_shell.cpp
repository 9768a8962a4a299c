#include "runtime/engine_shell.h"

#include <algorithm>
#include <set>
#include <type_traits>

namespace sbft::runtime {

RuntimeOptions make_runtime_options(const EngineOptions& opts) {
  RuntimeOptions ro;
  ro.checkpoint_interval = opts.config.checkpoint_interval();
  ro.ledger = opts.ledger;
  ro.wal = opts.wal;
  ro.state_transfer_chunk_size = opts.config.state_transfer_chunk_size;
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
      cfg_(opts_.config),
      h_pending_wait_(&metrics_->histogram("stage.pending_wait_us")) {
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
    ctx.set_timer(kBatchTimeoutUs, timer_id(kBatchTimer, 0));
  }
  if (opts_.marker_executor != nullptr &&
      opts_.marker_executor->tick_interval_us() > 0) {
    ctx.set_timer(opts_.marker_executor->tick_interval_us(),
                  timer_id(kShardTickTimer, 0));
  }
  status_marker_ = le();
  ctx.set_timer(opts_.config.view_change_timeout_us, timer_id(kStatusTimer, 0));
  // Recovery replay may have re-run shard decisions whose results the
  // outside world never saw (crash between execute and send): flush them.
  pump_marker_executor(ctx);
  // A restarted replica may have slept through checkpoints (or lost its disk
  // entirely): probe for a newer stable checkpoint right away instead of
  // waiting to notice the gap from protocol traffic.
  if (opts_.recovering) request_state_transfer(ctx);
}

// ---------------------------------------------------------------------------
// View-change quorum (§V-G, §VII), one copy for both engines' wire types

template <typename ViewChange>
void EngineShell::receive_view_change(const ViewChange& m, const Message& msg,
                                      sim::ActorContext& ctx) {
  if (m.next_view <= view_ || retired_ || !epoch().contains(m.sender)) return;
  if (!check_view_evidence(msg, ctx)) return;
  vc_by_target_[m.next_view][m.sender] = ctx.share(msg);

  // Join rule (§VII): f+1 members asking for a view past this one include an
  // honest replica that timed out; join the highest view that many ask for.
  if (m.next_view > vc_target_ || !in_view_change_) {
    ViewNum best = view_;
    for (const auto& [target, senders] : vc_by_target_) {
      if (target > best && senders.size() >= cfg_.f + 1) best = target;
    }
    if (best > view_) start_view_change(best, ctx);
  }
  if (epoch().primary_of(m.next_view) == opts_.id) try_new_view(m.next_view, ctx);
}

template <typename NewView>
void EngineShell::receive_new_view(const NewView& m, const Message& msg,
                                   sim::ActorContext& ctx) {
  if (m.view <= view_ || retired_) return;
  // The proofs must be view changes to this view from a quorum of distinct
  // members: else a Byzantine primary could repeat its own and leave out the
  // evidence the new view must carry forward.
  std::set<ReplicaId> senders;
  for (const auto& p : m.proofs) {
    if (p.next_view != m.view || !epoch().contains(p.sender) ||
        !senders.insert(p.sender).second) {
      return;
    }
  }
  if (senders.size() < cfg_.view_change_quorum()) return;
  if (!check_view_evidence(msg, ctx)) return;
  enter_view(m.view, msg, ctx);
}

// ---------------------------------------------------------------------------
// Dispatch

template <typename T, typename... Ts>
constexpr bool is_one_of = (std::is_same_v<T, Ts> || ...);

template <typename Msg>
std::optional<ReplicaId> EngineShell::claimed_sender(const Msg& m) const {
  // Exempt: full proofs (their threshold signatures vouch for them) and
  // fetched blocks (checked against the digest asked for); client and
  // operator traffic; other shard groups' traffic, whose replicas no roster
  // here names; state-transfer requests, which a joiner sends before any
  // roster names it.
  if constexpr (is_one_of<Msg, FullCommitProofMsg, PrepareMsg, FullCommitProofSlowMsg,
                          FullExecuteProofMsg, GetBlockReplyMsg, ClientRequestMsg,
                          ExecuteAckMsg, ClientReplyMsg, ReconfigBlockMsg, TxVoteMsg,
                          TxDecisionMsg, TxResultMsg, StateTransferRequestMsg,
                          StateChunkRequestMsg>) {
    return std::nullopt;
  } else if constexpr (std::is_same_v<Msg, PrePrepareMsg>) {
    return epoch_for_seq(m.seq).primary_of(m.view);  // the slot's epoch elects it
  } else if constexpr (is_one_of<Msg, NewViewMsg, PbftNewViewMsg>) {
    return epoch().primary_of(m.view);
  } else if constexpr (requires { m.replica; }) {
    return m.replica;
  } else if constexpr (requires { m.sender; }) {
    return m.sender;
  } else if constexpr (requires { m.donor; }) {
    return m.donor;
  } else {
    return m.requester;  // a type that claims no replica is exempt above
  }
}

void EngineShell::on_message(NodeId from, const Message& msg, sim::ActorContext& ctx) {
  bool handled = std::visit(
      [&](const auto& m) {
        using T = std::decay_t<decltype(m)>;
        // Sender binding: no handler sees a message from a node other than
        // the one of the replica it claims.
        if (std::optional<ReplicaId> r = claimed_sender(m); r && node_of(*r) != from) {
          return true;
        }
        if constexpr (std::is_same_v<T, ClientRequestMsg>) {
          handle_client_request(from, m, ctx);
        } else if constexpr (std::is_same_v<T, StateTransferRequestMsg>) {
          handle_state_transfer_request(from, m, ctx);
        } else if constexpr (std::is_same_v<T, StateManifestMsg>) {
          handle_state_manifest(m, ctx);
        } else if constexpr (std::is_same_v<T, StateChunkRequestMsg>) {
          handle_state_chunk_request(from, m, ctx);
        } else if constexpr (std::is_same_v<T, StateChunkMsg>) {
          handle_state_chunk(m, ctx);
        } else if constexpr (std::is_same_v<T, ReconfigBlockMsg>) {
          handle_reconfig_block(m, ctx);
        } else if constexpr (is_one_of<T, ViewChangeMsg, PbftViewChangeMsg>) {
          receive_view_change(m, msg, ctx);
        } else if constexpr (is_one_of<T, NewViewMsg, PbftNewViewMsg>) {
          receive_new_view(m, msg, ctx);
        } else if constexpr (std::is_same_v<T, PrePrepareMsg>) {
          return hold_pre_prepare(m, msg, ctx);  // false: the engine's
        } else if constexpr (is_one_of<T, TxVoteMsg, TxDecisionMsg>) {
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
  if (!handled) on_engine_message(msg, ctx);
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
        ctx.set_timer(kBatchTimeoutUs, timer_id(kBatchTimer, 0));
      }
      break;
    case kProgressTimer:
      on_progress_timer(ctx);
      break;
    case kStatusTimer:
      on_status_tick(ctx);
      break;
    case kStateTransferTimer:
      on_state_transfer_tick(ctx);
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
    ctx.set_timer(kBatchTimeoutUs, timer_id(kBatchTimer, 0));
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

void EngineShell::send_reply(sim::ActorContext& ctx, ClientId client,
                             uint64_t timestamp, SeqNum seq, ByteSpan value) {
  if (silent()) return;
  ClientReplyMsg reply;
  reply.replica = opts_.id;
  reply.client = client;
  reply.timestamp = timestamp;
  reply.seq = seq;
  reply.value = to_bytes(value);
  ctx.send(client, make_message(std::move(reply)));
}

// ---------------------------------------------------------------------------
// Proposals (§VIII)

uint32_t EngineShell::adaptive_batch_size() const {
  if (!opts_.config.adaptive_batching) return opts_.config.max_batch;
  // §VIII: an adaptive controller keyed off outstanding demand. avg_pending_
  // tracks the requests the primary currently owes (queued + proposed but
  // not yet executed — the closed-loop client population); blocks absorb it
  // across demand_split() concurrent blocks: small batches (low latency)
  // when idle, full batches (amortized fixed costs) under load.
  uint64_t size = static_cast<uint64_t>(avg_pending_ / demand_split()) + 1;
  return static_cast<uint32_t>(
      std::clamp<uint64_t>(size, 1, opts_.config.max_batch));
}

void EngineShell::try_propose(sim::ActorContext& ctx, bool flush_partial) {
  if (!is_primary() || in_view_change_ || retired_) return;
  // Demand sample: queued requests plus requests in unexecuted blocks,
  // recounted from the engine's slots so it self-corrects across view
  // changes and state transfer.
  avg_pending_ = 0.8 * avg_pending_ +
                 0.2 * static_cast<double>(pending_.size() + in_flight_requests());
  const uint64_t window = std::max<uint64_t>(1, proposal_window());
  while (!pending_.empty()) {
    // Drop requests already executed (e.g. committed via an earlier view).
    const Request& head = pending_.front().first;
    if (runtime_.replies().is_duplicate(head.client, head.timestamp)) {
      pending_keys_.erase({head.client, head.timestamp});
      pending_.pop_front();
      continue;
    }
    if (next_seq_ - 1 - le() >= window) return;
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
      block.requests.push_back(std::move(r));
    }
    propose_block(next_seq_++, std::move(block), ctx);
  }

  // Primary-driven no-op fill (docs/reconfiguration.md): a staged
  // reconfiguration only activates when the checkpoint at its boundary
  // becomes stable, and checkpoints only form when slots commit. With no
  // client traffic the cluster would idle forever short of the boundary —
  // so on batch-timer ticks the primary fills the gap with empty blocks.
  if (flush_partial && pending_.empty()) {
    SeqNum gate = reconfig_gate();
    while (gate > 0 && next_seq_ <= gate && next_seq_ - 1 - le() < window &&
           next_seq_ <= ls() + opts_.config.win) {
      ++noop_fill_blocks_;
      propose_block(next_seq_++, Block{}, ctx);
    }
  }
}

// ---------------------------------------------------------------------------
// Stall policy and view-change session (§V-G)

void EngineShell::on_progress_timer(sim::ActorContext& ctx) {
  progress_timer_armed_ = false;
  bool outstanding = !pending_.empty() || forwarded_waiting_ ||
                     highest_slot() > le() || in_view_change_;
  if (le() > progress_marker_) {
    // Progress was made; assume forwarded requests were served (if not, the
    // client's retry re-raises the flag).
    progress_marker_ = le();
    forwarded_waiting_ = false;
    if (outstanding) arm_progress_timer(ctx);
    return;
  }
  if (!outstanding) return;
  start_view_change(std::max(view_, vc_target_) + 1, ctx);
}

void EngineShell::on_status_tick(sim::ActorContext& ctx) {
  // An idle cluster sends a replica that missed a checkpoint nothing, and
  // with nothing outstanding its progress timer never fires: ask the peers.
  if (le() == status_marker_ && !silent() && !retired_ &&
      !runtime_.state_transfer().active()) {
    broadcast_state_probe(ctx);
  }
  status_marker_ = le();
  ctx.set_timer(opts_.config.view_change_timeout_us, timer_id(kStatusTimer, 0));
}

void EngineShell::start_view_change(ViewNum target, sim::ActorContext& ctx) {
  if (target <= view_ || retired_) return;
  if (in_view_change_ && target <= vc_target_) return;
  in_view_change_ = true;
  vc_target_ = target;
  ++vc_attempts_;
  ++view_changes_;
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
  MessagePtr msg = make_view_change(target, ctx);
  vc_by_target_[target][opts_.id] = msg;
  broadcast_replicas(ctx, std::move(msg));
  arm_progress_timer(ctx);  // exponential backoff to target+1 if this stalls
  if (epoch().primary_of(target) == opts_.id) try_new_view(target, ctx);
}

void EngineShell::install_view(ViewNum v) {
  view_ = v;
  vc_target_ = v;
  vc_attempts_ = 0;
  vc_by_target_.erase(vc_by_target_.begin(), vc_by_target_.upper_bound(v));
  std::erase_if(held_pre_prepares_, [v](const auto& entry) {
    return std::get<PrePrepareMsg>(*entry.second).view != v;
  });
  runtime_.wal_record_view(v);
}

bool EngineShell::hold_pre_prepare(const PrePrepareMsg& m, const Message& msg,
                                   sim::ActorContext& ctx) {
  if (!in_view_change_ || retired_ || m.view != vc_target_) return false;
  if (m.seq <= ls() || m.seq > ls() + opts_.config.win) return false;
  // One per slot: a later one (an escalated target's) replaces it.
  held_pre_prepares_[m.seq] = ctx.share(msg);
  return true;
}

void EngineShell::try_new_view(ViewNum target, sim::ActorContext& ctx) {
  const uint32_t quorum = cfg_.view_change_quorum();
  auto it = vc_by_target_.find(target);
  if (it == vc_by_target_.end() || it->second.size() < quorum) return;
  std::vector<const Message*> chosen;
  for (const auto& [sender, vc] : it->second) {
    chosen.push_back(vc.get());
    if (chosen.size() == quorum) break;
  }
  trace_.instant(ctx.now(), obs::Category::kViewChange, obs::ev::kNewViewSent,
                 vc_span_, 0, target);
  MessagePtr nv = make_new_view(target, chosen, ctx);
  broadcast_replicas(ctx, nv);
  enter_view(target, *nv, ctx);
}

void EngineShell::enter_view(ViewNum v, const Message& new_view,
                             sim::ActorContext& ctx) {
  in_view_change_ = false;
  if (vc_span_ != 0) {
    trace_.end(ctx.now(), obs::Category::kViewChange, obs::ev::kViewChange,
               vc_span_, 0, vc_span_, "entered_view", v);
    vc_span_ = 0;
  } else {
    // Entered on the strength of a new view alone (never locally timed out).
    trace_.instant(ctx.now(), obs::Category::kViewChange, obs::ev::kViewEntered,
                   0, 0, v);
  }
  install_view(v);
  enter_new_view(new_view, ctx);
  // The new primary's first proposals may have overtaken its new view; the
  // engine takes the ones held for v now, in slot order.
  auto held = std::move(held_pre_prepares_);
  held_pre_prepares_.clear();
  for (const auto& [seq, pre_prepare] : held) on_engine_message(*pre_prepare, ctx);
  progress_marker_ = le();
  if (is_primary()) {
    ctx.set_timer(kBatchTimeoutUs, timer_id(kBatchTimer, 0));
    try_propose(ctx);
  }
  arm_progress_timer(ctx);
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
  // has one; admission continues in the completion. Of `from`, admission
  // needs only whether the client sent the request itself; that is the
  // completion's type rather than a capture, so the completion fits in
  // place in a Handler.
  auto verify_then_admit = [&](auto from_client) {
    auto verified = [this, shared = ctx.share(m)](sim::ActorContext& c) {
      admit_client_request(decltype(from_client)::value, shared->request, c);
    };
    static_assert(sim::Handler::stores_inline<decltype(verified)>());
    ctx.offload(ctx.costs().rsa_verify_us, std::move(verified));
  };
  if (from == req.client) {
    verify_then_admit(std::true_type{});
  } else {
    verify_then_admit(std::false_type{});
  }
}

void EngineShell::admit_client_request(bool from_client, const Request& req,
                                       sim::ActorContext& ctx) {
  if (const CachedReply* cached = runtime_.cached_reply(req.client, req.timestamp)) {
    // Already executed: serve the cached reply (client retry path, §V-A).
    send_reply(ctx, req.client, cached->timestamp, cached->seq,
               as_span(cached->value));
    trace_.instant(ctx.now(), obs::Category::kSlot, obs::ev::kReplyCached, 0,
                   cached->seq, view_, "client", req.client);
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
  } else if (from_client) {
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
  open_fetch_round(ctx);
  broadcast_state_probe(ctx);
}

void EngineShell::open_fetch_round(sim::ActorContext& ctx) {
  runtime_.state_transfer().open_round();
  ++runtime_.stats().state_transfers;
  if (!st_span_open_) {
    st_span_open_ = true;
    trace_.begin(ctx.now(), obs::Category::kStateTransfer, obs::ev::kStateTransfer,
                 ++st_session_, le());
  }
  if (!st_inflight_) {
    st_inflight_ = true;  // retry timer armed
    ctx.set_timer(opts_.config.state_transfer_retry_us,
                  timer_id(kStateTransferTimer, 0));
  }
}

void EngineShell::on_state_transfer_tick(sim::ActorContext& ctx) {
  // Single retry loop; the stop/probe decisions live in the manager. A round
  // that drew no manifest ends here (the status tick asks again) unless the
  // replica has nothing to run from: a recovering boot that holds nothing
  // yet, or a joiner the epoch has not admitted.
  bool behind = (opts_.recovering && le() == 0 && ls() == 0) ||
                (!retired_ && !runtime_.membership().is_member(opts_.id));
  auto tick = runtime_.state_transfer().on_retry_tick(le(), behind, runtime_.stats());
  if (tick.stop) {
    st_inflight_ = false;
    if (st_span_open_ && !behind) {
      st_span_open_ = false;
      trace_.end(ctx.now(), obs::Category::kStateTransfer, obs::ev::kStateTransfer,
                 st_session_, le());
    }
    // The fetch that just ended may have become moot for its *target* while
    // the replica still holds nothing it can run from: start over.
    if (behind) request_state_transfer(ctx);
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

template <typename Request>
bool EngineShell::send_forged_answers(NodeId to, const Request& request,
                                      sim::ActorContext& ctx) {
  std::optional<std::vector<MessagePtr>> forged = forged_answers(request, ctx);
  if (!forged) return false;
  for (MessagePtr& answer : *forged) ctx.send(to, std::move(answer));
  return true;
}

void EngineShell::handle_state_transfer_request(NodeId from,
                                                const StateTransferRequestMsg& m,
                                                sim::ActorContext& ctx) {
  if (silent() || send_forged_answers(from, m, ctx)) return;
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

void EngineShell::handle_state_manifest(const StateManifestMsg& m,
                                        sim::ActorContext& ctx) {
  StateTransferManager& st = runtime_.state_transfer();
  // Retired replicas never fetch (request_state_transfer). All cheap
  // structural checks run before the certificate is verified — an excluded
  // donor spamming manifests must not cost a verification each.
  if (silent() || retired_ || m.seq <= le()) return;
  if (m.cert.seq != m.seq || st.donor_excluded(m.donor)) return;
  // The certificate must verify before the manifest can target the fetch;
  // the chunk root itself is bound end-to-end by the final state-root check
  // in adopt_checkpoint (a lying manifest sender is excluded there).
  if (!verify_manifest_cert(m, ctx)) return;
  // A certified checkpoint past le() proves this replica is behind: open a
  // round if none runs (the answer to a status probe).
  if (!st.active()) open_fetch_round(ctx);
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
  if (silent() || send_forged_answers(from, m, ctx)) return;
  std::vector<StateChunkMsg> chunks = runtime_.state_transfer().make_chunks(
      runtime_.checkpoints(), m, opts_.id, runtime_.stats());
  for (StateChunkMsg& c : chunks) {
    ctx.charge(ctx.costs().hash_us(c.data.size()));
    if (opts_.corrupt_state_chunks && !c.data.empty()) c.data[0] ^= 0xff;
    ctx.send(from, make_message(std::move(c)));  // joiners resolve by node only
  }
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
  if (st.active()) {
    trace_.instant(ctx.now(), obs::Category::kStateTransfer, obs::ev::kStProbe,
                   st_session_, le());
  }
  broadcast_replicas(ctx, make_message(std::move(probe)));
}

void EngineShell::handle_state_chunk(const StateChunkMsg& m, sim::ActorContext& ctx) {
  if (silent()) return;
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
  bool adopted = runtime_.adopt_checkpoint(
      cert, std::make_shared<const Bytes>(st.take_envelope()), ctx);
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

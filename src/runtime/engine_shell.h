// Protocol-agnostic replica shell shared by both ordering engines.
//
// SBFT (src/core/replica.h) and the PBFT baseline (src/pbft/pbft_replica.h)
// differ in how a block gets ordered: their slots, commit paths, view-change
// evidence and checkpoint certificates. Everything around that is the same
// replica plumbing, and lives here exactly once:
//   * construction and lifecycle: the ReplicaRuntime, boot-time recovery, the
//     epoch/retirement tail of the constructor, on_start;
//   * membership: node_of, the reconfiguration gate, epoch refresh;
//   * sender binding: a message reaches a handler only from the node of the
//     replica it claims (claimed_sender; docs/architecture.md);
//   * admission: client requests, reconfiguration blocks and cross-shard
//     marker requests feed the primary's pending queue;
//   * the proposal pipeline: the demand estimate, the adaptive minimum batch,
//     the window, watermark and reconfiguration guards, and the no-op fill;
//   * the stall policy: the progress timer that escalates to a view change;
//   * the status tick: a replica that executed nothing for a tick re-sends
//     the state-transfer probe, so one that missed a checkpoint while the
//     cluster went idle still learns it is behind;
//   * the view-change session and quorum: opening and escalating it, its
//     trace span and backoff, the view changes filed per target view
//     (members only), the f+1 join rule, the next primary's
//     new-view send, the check of a received new view, and entering it,
//     with the target view's pre-prepares that arrived before its new view;
//   * direct client replies, cached or fresh;
//   * chunked state transfer, fetcher and donor side (docs/state_transfer.md);
//   * the batch, progress, status, state-transfer and shard-tick
//     timers.
//
// An engine derives from EngineShell and supplies the hooks below: its
// proposal window and demand split, its in-flight slots, how a proposal goes
// out, its view-change evidence (building and checking view changes and new
// views, filling a new view's slots), how a manifest's checkpoint
// certificate is checked and prepared, what to drop once a checkpoint is
// adopted, how to execute, and whether it is silent. Messages and timers the
// shell does not own reach the engine through on_engine_message /
// on_engine_timer.
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string_view>
#include <vector>

#include "kv/service.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "proto/config.h"
#include "proto/message.h"
#include "recovery/wal.h"
#include "runtime/replica_runtime.h"
#include "sim/network.h"
#include "storage/ledger_storage.h"

namespace sbft::runtime {

/// Options both engines take; ReplicaOptions (SBFT) and PbftOptions extend it.
struct EngineOptions {
  ProtocolConfig config;
  ReplicaId id = 1;  // 1..n under the genesis roster
  std::shared_ptr<storage::ILedgerStorage> ledger;  // optional persistence
  // Optional write-ahead log for consensus metadata (view, checkpoints,
  // in-flight votes). When ledger and/or wal hold state at construction, the
  // replica rebuilds itself from them (crash recovery, §VIII).
  std::shared_ptr<recovery::IReplicaWal> wal;
  // Set when the replica is restarted into an already-running cluster: it
  // probes state transfer on boot in case its local log fell behind the
  // cluster's stable checkpoint (or the disk was lost entirely).
  bool recovering = false;
  // Fault injection: as a state-transfer donor, flip a byte in every chunk
  // payload served (the proof still matches the honest chunk, so fetchers
  // must detect the corruption by Merkle verification and move on).
  bool corrupt_state_chunks = false;
  // Group reconfiguration (docs/reconfiguration.md): the bootstrap roster the
  // replica starts from. Empty derives the genesis roster from the config
  // (ids 1..n at nodes 0..n-1). A joining replica is handed the current
  // epoch's roster — which does not contain it — and learns the epoch that
  // admits it from state transfer.
  std::vector<ReplicaInfo> roster;
  uint32_t roster_f = 0;  // fault parameters of the bootstrap roster (0: config)
  uint32_t roster_c = 0;
  // Observability (docs/observability.md). A null tracer binds to the shared
  // disabled instance; a null registry gets an engine-private one, so both
  // are optional for direct-construction unit tests.
  std::shared_ptr<obs::Tracer> tracer;
  std::shared_ptr<obs::MetricsRegistry> metrics;
  // Cross-shard marker executor (docs/sharding.md). Not owned — the harness
  // keeps it alive across replica incarnations, like the ledger. Null for
  // single-group deployments.
  IMarkerExecutor* marker_executor = nullptr;
};

/// Runtime options for an engine: the state-transfer knobs of the config and
/// the bootstrap roster (the explicit one when given, else the genesis
/// mapping ids 1..n at nodes 0..n-1).
RuntimeOptions make_runtime_options(const EngineOptions& opts);

class EngineShell : public sim::IActor {
 public:
  using StatVisitor = std::function<void(std::string_view, uint64_t)>;

  void on_start(sim::ActorContext& ctx) final;
  void on_message(NodeId from, const Message& msg, sim::ActorContext& ctx) final;
  void on_timer(uint64_t id, sim::ActorContext& ctx) final;

  // Introspection (harness, tests, metrics).
  ReplicaId id() const { return opts_.id; }
  ViewNum view() const { return view_; }
  SeqNum last_executed() const { return runtime_.last_executed(); }
  SeqNum last_stable() const { return runtime_.last_stable(); }
  const IService& service() const { return runtime_.service(); }
  const ReplicaRuntime& runtime() const { return runtime_; }
  /// Digest of the decision block committed at s (nullopt if not committed).
  virtual std::optional<Digest> committed_digest_of(SeqNum s) const = 0;
  uint64_t view_changes() const { return view_changes_; }
  /// Visits every protocol + runtime counter as (name, value).
  virtual void for_each_stat(const StatVisitor& fn) const = 0;

 protected:
  EngineShell(EngineOptions options, std::unique_ptr<IService> service);

  // The primary flushes a partial batch this often (§V-C "or reaching a
  // timeout").
  static constexpr int64_t kBatchTimeoutUs = 5'000;

  // Timer kinds the shell owns; engines number theirs from kFirstEngineTimer.
  enum ShellTimer : uint64_t {
    kBatchTimer = 1,
    kProgressTimer,       // stall policy: escalate to a view change
    kStatusTimer,         // no progress for a tick: re-send the probe
    kStateTransferTimer,  // chunked fetch retry tick
    kShardTickTimer,      // marker executor retry cadence (docs/sharding.md)
    kFirstEngineTimer,
  };
  /// Timer identifiers: kind in the top 16 bits, sequence/payload below.
  static uint64_t timer_id(uint64_t kind, uint64_t payload) {
    return (kind << 48) | (payload & 0xffffffffffffull);
  }

  // --- engine hooks -----------------------------------------------------------
  virtual void on_engine_message(const Message& msg, sim::ActorContext& ctx) = 0;
  /// Every timer whose kind the shell does not handle (the engine's own
  /// kinds); `payload` is the low 48 bits of the id.
  virtual void on_engine_timer(uint64_t /*kind*/, uint64_t /*payload*/,
                               sim::ActorContext& /*ctx*/) {}
  virtual void try_execute(sim::ActorContext& ctx) = 0;
  /// Most slots the primary keeps proposed but unexecuted (floored at 1).
  virtual uint64_t proposal_window() const = 0;
  /// Concurrent blocks the demand estimate is spread over when sizing the
  /// adaptive minimum batch.
  virtual uint32_t demand_split() const = 0;
  /// Requests in the proposed-but-unexecuted slots (le(), next_seq_).
  virtual uint64_t in_flight_requests() const = 0;
  /// Highest slot the engine holds (0: none).
  virtual SeqNum highest_slot() const = 0;
  /// Sends the primary's pre-prepare of `block` at slot s in view_.
  virtual void propose_block(SeqNum s, SealedBlock block, sim::ActorContext& ctx) = 0;
  // View-change evidence (§V-G), in the engine's own wire types; each hook
  // charges what its evidence costs.
  virtual MessagePtr make_view_change(ViewNum target, sim::ActorContext& ctx) = 0;
  /// A received view change, or every proof of a received new view, once the
  /// shell checked senders and views; false for the other engine's types.
  virtual bool check_view_evidence(const Message& msg, sim::ActorContext& ctx) = 0;
  /// The new view for `v` over view_change_quorum() filed view changes.
  virtual MessagePtr make_new_view(ViewNum v, const std::vector<const Message*>& quorum,
                                   sim::ActorContext& ctx) = 0;
  /// Fills the just-installed view's slots from the proofs; sets next_seq_.
  virtual void enter_new_view(const Message& new_view, sim::ActorContext& ctx) = 0;
  /// Fetcher: is the manifest's checkpoint certificate valid? Charges its
  /// verification cost. SBFT checks the pi signature, PBFT the weak f+1
  /// checkpoint certificate shipped with the manifest.
  virtual bool verify_manifest_cert(const StateManifestMsg& m,
                                    sim::ActorContext& ctx) = 0;
  /// Donor: completes a manifest before it is sent (PBFT attaches its
  /// checkpoint certificate); false refuses to serve the checkpoint.
  virtual bool prepare_manifest(StateManifestMsg& m) = 0;
  /// A checkpoint at `seq` was adopted via state transfer: drop the slots and
  /// protocol state it supersedes.
  virtual void on_checkpoint_adopted(SeqNum seq) = 0;
  /// A silent replica receives but never sends (crash-like fault).
  virtual bool silent() const { return false; }
  /// A censoring primary drops the request at admission.
  virtual bool censors(const Request& /*req*/) const { return false; }
  /// Donor fault injection (PBFT's fabricated checkpoint): forged answers to
  /// a probe or a chunk request, which the shell sends its sender in place of
  /// serving it; nullopt serves it.
  virtual std::optional<std::vector<MessagePtr>> forged_answers(
      const StateTransferRequestMsg& /*m*/, sim::ActorContext& /*ctx*/) {
    return std::nullopt;
  }
  virtual std::optional<std::vector<MessagePtr>> forged_answers(
      const StateChunkRequestMsg& /*m*/, sim::ActorContext& /*ctx*/) {
    return std::nullopt;
  }

  // --- membership epochs (docs/reconfiguration.md) ----------------------------
  const MembershipEpoch& epoch() const { return runtime_.membership().active(); }
  const MembershipEpoch& epoch_for_seq(SeqNum s) const {
    return runtime_.membership().epoch_for_seq(s);
  }
  NodeId node_of(ReplicaId r) const;
  /// First sequence proposals/pre-prepares must not cross while a
  /// reconfiguration awaits activation (0: no gate). Pre-boundary keys must
  /// never sign post-boundary slots.
  SeqNum reconfig_gate() const;
  /// Folds a pending epoch change into the engine: derived config, primary
  /// timers, retirement. Call after any runtime operation that can activate.
  void maybe_refresh_epoch(sim::ActorContext& ctx);
  /// Raises the pre-execution shadow of the activation boundary when `block`
  /// at `s` carries a reconfiguration marker.
  void note_reconfig_markers(SeqNum s, const Block& block);
  /// Persists this replica's vote for `digest` at (s, v) to the WAL, unless a
  /// previous incarnation voted for a different digest at this or a later
  /// view (anti-equivocation across restarts): then false, and no vote.
  bool record_vote(SeqNum s, ViewNum v, const Digest& digest);

  // --- helpers -----------------------------------------------------------------
  bool is_primary() const { return epoch().primary_of(view_) == opts_.id; }
  SeqNum le() const { return runtime_.last_executed(); }
  SeqNum ls() const { return runtime_.last_stable(); }
  void send_to_replica(sim::ActorContext& ctx, ReplicaId r, MessagePtr msg);
  void broadcast_replicas(sim::ActorContext& ctx, MessagePtr msg);
  void arm_progress_timer(sim::ActorContext& ctx);
  /// Fetches a newer checkpoint: opens a fetch round and its session,
  /// and broadcasts the probe.
  void request_state_transfer(sim::ActorContext& ctx);
  /// Direct reply to a client (a cached reply, PBFT's execution replies,
  /// SBFT's replies without the execution collector); silent replicas skip it.
  void send_reply(sim::ActorContext& ctx, ClientId client, uint64_t timestamp,
                  SeqNum seq, ByteSpan value);

  // --- proposals (§VIII) ---------------------------------------------------------
  /// Primary: cuts blocks from the pending queue while the window, the
  /// watermark and the reconfiguration gate allow, each at least the adaptive
  /// minimum batch (any size when `flush_partial`); on a flush with nothing
  /// pending, fills empty blocks up to a pending activation boundary.
  void try_propose(sim::ActorContext& ctx, bool flush_partial = false);

  // --- view-change session (§V-G) -----------------------------------------------
  /// Moves to view v: target and backoff reset, view recorded in the WAL,
  /// the view changes collected for v and earlier dropped.
  void install_view(ViewNum v);

  EngineOptions opts_;
  ReplicaRuntime runtime_;

  // Observability: the tracer reference binds to opts_.tracer or the shared
  // disabled instance; per-stage latency histograms live in the registry and
  // survive restarts with it (the harness shares one registry per handle).
  obs::Tracer& trace_;
  std::shared_ptr<obs::MetricsRegistry> metrics_;
  obs::Histogram* h_pp_to_commit_;
  obs::Histogram* h_commit_to_exec_;

  // Derived from the active epoch (f/c patched into the protocol config so
  // quorum formulas and the view-change rules see the epoch sizing).
  ProtocolConfig cfg_;
  // Set when an activated epoch no longer contains this replica: it drains —
  // serves state transfer and cached replies, but never votes or proposes.
  bool retired_ = false;
  // Pre-execution shadow of the activation boundary: set when a pre-prepare
  // carrying a reconfiguration marker is accepted at seq s (boundary =
  // ceil(s / interval) * interval), authoritative once the marker executes
  // and the runtime stages the pending reconfiguration.
  SeqNum shadow_gate_ = 0;

  ViewNum view_ = 0;
  bool in_view_change_ = false;
  ViewNum vc_target_ = 0;
  SeqNum next_seq_ = 1;  // primary: next sequence to propose
  // Progress marker of the stall timer: le() when it last saw progress.
  SeqNum progress_marker_ = 0;

  // Current state-transfer session (0 = none yet); its id tags every
  // state-transfer trace event.
  uint64_t st_session_ = 0;

  // Counters the engines' stats() copy in.
  uint64_t view_changes_ = 0;
  // Primary: empty blocks proposed to drive an idle cluster across a pending
  // reconfiguration's activation checkpoint boundary.
  uint64_t noop_fill_blocks_ = 0;

 private:
  /// Rebuilds state from WAL + ledger at construction time (no-op when the
  /// attached storage is fresh or absent).
  void recover_from_storage();

  /// §VIII adaptive batch parameter: the minimum requests per block, sized
  /// from the demand estimate; config.max_batch when adaptive batching is off.
  uint32_t adaptive_batch_size() const;
  /// kProgressTimer: re-arms while progress is made; a replica that owes
  /// progress and made none escalates to a view change.
  void on_progress_timer(sim::ActorContext& ctx);
  /// kStatusTimer, every view_change_timeout_us: a replica whose le() did not
  /// move since the last tick broadcasts the probe without opening a round;
  /// only a donor with a newer certified checkpoint answers.
  void on_status_tick(sim::ActorContext& ctx);

  /// The replica message `m` claims to come from; nullopt for a type exempt
  /// by name.
  template <typename Msg>
  std::optional<ReplicaId> claimed_sender(const Msg& m) const;

  // --- view-change session and quorum (§V-G, §VII) --------------------------------
  /// Opens a view change to `target` or escalates the open one (backoff
  /// attempt, view_changes count, session span), files and broadcasts the
  /// engine's view change and, on the target's primary, tries the new view.
  /// Nothing for a retired replica or a target not past the open one.
  void start_view_change(ViewNum target, sim::ActorContext& ctx);
  /// Files a view change past this view from a member, with evidence the
  /// engine accepts; then the f+1 join rule and, on the target's primary, the
  /// new view.
  template <typename ViewChange>
  void receive_view_change(const ViewChange& m, const Message& msg,
                           sim::ActorContext& ctx);
  /// Target's primary: with a quorum filed, sends the new view over the first
  /// quorum in sender order and enters it.
  void try_new_view(ViewNum target, sim::ActorContext& ctx);
  /// Enters a new view past this one whose proofs are view changes to it
  /// from a quorum of distinct members.
  template <typename NewView>
  void receive_new_view(const NewView& m, const Message& msg, sim::ActorContext& ctx);
  /// Ends the session on view v (its span, or view.entered when none was
  /// open), installs v, lets the engine fill its slots, hands it the
  /// pre-prepares held for v and resumes: progress marker, batch timer and
  /// proposals (primary), progress timer.
  void enter_view(ViewNum v, const Message& new_view, sim::ActorContext& ctx);
  /// During a view change, keeps a pre-prepare of the target view for a slot
  /// in the window (the latest per slot) until a view is installed; false
  /// leaves it to the engine.
  bool hold_pre_prepare(const PrePrepareMsg& m, const Message& msg);

  // --- admission ----------------------------------------------------------------
  void handle_client_request(NodeId from, const ClientRequestMsg& m,
                             sim::ActorContext& ctx);
  /// Continuation of handle_client_request once the request signature has
  /// been verified (possibly on a worker lane).
  void admit_client_request(NodeId from, const Request& req, sim::ActorContext& ctx);
  void handle_reconfig_block(const ReconfigBlockMsg& m, sim::ActorContext& ctx);
  /// Drains the marker executor after every message/timer: relays its queued
  /// sends and (primary only) enqueues staged 2PC decision markers for
  /// ordering (docs/sharding.md). No-op without an executor.
  void pump_marker_executor(sim::ActorContext& ctx);

  // --- chunked state transfer (docs/state_transfer.md) ---------------------------
  void handle_state_transfer_request(NodeId from, const StateTransferRequestMsg& m,
                                     sim::ActorContext& ctx);
  void handle_state_chunk_request(NodeId from, const StateChunkRequestMsg& m,
                                  sim::ActorContext& ctx);
  /// Sends `to` the engine's forged answers to `request`; false when it
  /// forges none.
  template <typename Request>
  bool send_forged_answers(NodeId to, const Request& request, sim::ActorContext& ctx);
  void handle_state_manifest(const StateManifestMsg& m, sim::ActorContext& ctx);
  void handle_state_chunk(const StateChunkMsg& m, sim::ActorContext& ctx);
  void on_state_transfer_tick(sim::ActorContext& ctx);
  /// Opens a fetch round and its session: the count, the session span and
  /// the retry tick (span and tick unless already open).
  void open_fetch_round(sim::ActorContext& ctx);
  /// Sends the manager's next chunk-request plan to its chosen donors.
  void send_chunk_requests(sim::ActorContext& ctx);
  /// Broadcasts the state-transfer probe (delta base advertised; the cold
  /// chunk-hashing of the local snapshot is charged here). Traced only
  /// inside a fetch round.
  void broadcast_state_probe(sim::ActorContext& ctx);
  /// All chunks received: assemble, adopt, and clean up (or restart the fetch
  /// when the assembled envelope fails the certified state-root check).
  void complete_chunked_transfer(sim::ActorContext& ctx);

  obs::Histogram* h_pending_wait_;  // admission -> cut into a block

  // Primary request queue: request and admission time.
  std::deque<std::pair<Request, sim::SimTime>> pending_;
  std::set<std::pair<ClientId, uint64_t>> pending_keys_;
  double avg_pending_ = 0;  // EWMA demand estimate for adaptive batching

  uint32_t vc_attempts_ = 0;  // backoff exponent of the progress timer
  ViewNum vc_span_ = 0;       // open view-change session span (0: none)
  // View changes filed per target view (all past view_), keyed by sender.
  std::map<ViewNum, std::map<ReplicaId, MessagePtr>> vc_by_target_;
  // Pre-prepares of vc_target_ held until its new view, by seq. install_view
  // drops those of any other view.
  std::map<SeqNum, MessagePtr> held_pre_prepares_;
  bool progress_timer_armed_ = false;
  SeqNum status_marker_ = 0;  // le() at the last status tick
  bool forwarded_waiting_ = false;  // forwarded a client request to the primary

  // Votes persisted by a previous incarnation for slots still in flight:
  // seq -> (highest voted view, block digest); see record_vote.
  std::map<SeqNum, std::pair<ViewNum, Digest>> wal_votes_;
  bool st_span_open_ = false;  // session span begun and not yet ended
  bool st_inflight_ = false;   // retry tick armed
  uint64_t recovered_replay_bytes_ = 0;  // charged as boot-time replay CPU
};

}  // namespace sbft::runtime

// Chunked, resumable, integrity-verified state transfer (§VIII; the normative
// protocol description lives in docs/state_transfer.md — keep them in sync).
//
// A checkpoint snapshot envelope is split into fixed-size chunks addressed by
// a Merkle tree over chunk hashes (reusing merkle::BlockMerkleTree). A
// rejoining replica broadcasts a probe; every replica holding a newer stable
// checkpoint answers with a manifest (certificate + chunk root + geometry),
// and the fetcher pulls the chunks in parallel from all manifest senders
// (donors), verifying each chunk against the manifest's chunk root before
// storing it. Missing chunks — donor crash, partition, dropped messages — are
// re-planned onto the remaining donors on a retry tick; received chunks are
// never discarded, so a disturbed transfer *resumes* instead of restarting.
// The assembled envelope is finally verified against the certificate's state
// root by ReplicaRuntime::adopt_checkpoint, which closes the trust loop: a
// donor that lied in its manifest is detected there, excluded, and the fetch
// restarts against the remaining donors.
//
// Two refinements for the common briefly-behind case:
//   * Delta transfer: the probe advertises the fetcher's retained checkpoint
//     (seq + transfer root); a donor still holding that base's chunk hashes
//     Merkle-diffs the two snapshots and its manifest marks the chunks that
//     differ — the fetcher seeds every unchanged chunk from its local
//     snapshot and fetches only the delta. Unknown base or no shared chunks
//     falls back to the full-chunked path automatically.
//   * Donor-side chunk-rate limiting: a donor bounds chunks served per tick
//     so state transfer cannot starve ordering under load; the trimmed
//     remainder of a throttled request is re-served on the donor tick.
//
// Split of responsibilities: this manager owns the fetch/serve state machine
// and produces/consumes the protocol message *structs*; it never touches the
// network. The ordering engines (SBFT, PBFT) send whatever it hands back and
// feed it what arrives — the same layering rule the rest of the runtime
// follows (the runtime never sends messages).
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "merkle/merkle_tree.h"
#include "proto/message.h"

namespace sbft::runtime {

class CheckpointManager;
struct RuntimeStats;

/// Donor-side view of one snapshot envelope: the chunk partition geometry
/// and the Merkle tree over leaf_hash(chunk_i), built once per shippable
/// pair and cached until the stable checkpoint advances. Does NOT retain the
/// envelope bytes — the CheckpointManager already owns them; chunk() slices
/// the caller-provided envelope, so a multi-MB snapshot is never duplicated.
class ChunkedSnapshot {
 public:
  /// `envelope` must be non-empty; `chunk_size` > 0.
  ChunkedSnapshot(ByteSpan envelope, uint32_t chunk_size);

  uint32_t chunk_count() const { return static_cast<uint32_t>(tree_->leaf_count()); }
  uint32_t chunk_size() const { return chunk_size_; }
  uint64_t total_bytes() const { return total_bytes_; }
  const Digest& chunk_root() const { return tree_->root(); }
  /// Geometry-bound transfer key: requests and chunk replies are matched on
  /// this, never on the bare tree root (see make_transfer_root).
  const Digest& transfer_root() const { return transfer_root_; }

  /// Payload bytes of chunk `index` (the last chunk may be shorter).
  /// `envelope` must be the same bytes this snapshot was built over.
  ByteSpan chunk(ByteSpan envelope, uint32_t index) const;
  merkle::BlockProof proof(uint32_t index) const { return tree_->prove(index); }

  /// Leaf digest a verifier recomputes from a received chunk payload.
  static Digest chunk_leaf(ByteSpan data) { return merkle::leaf_hash(data); }

  /// All chunk leaf hashes in index order (delta diffing between snapshots).
  const std::vector<Digest>& leaf_hashes() const { return tree_->leaves(); }

  /// The transfer key binds the chunk tree root to the manifest geometry, so
  /// two manifests agreeing on the envelope but lying about the grid name
  /// *different* transfers: an honest donor never serves (and is never
  /// blamed for) a bogus-geometry fetch — the liar's transfer just starves
  /// and the dead-donors retarget path heals it.
  static Digest make_transfer_root(const Digest& tree_root, uint32_t chunk_size,
                                   uint32_t chunk_count, uint64_t total_bytes);

 private:
  uint32_t chunk_size_;
  uint64_t total_bytes_;
  std::unique_ptr<merkle::BlockMerkleTree> tree_;
  Digest transfer_root_{};
};

/// Fetcher + donor state machine for chunked state transfer. Owned by
/// ReplicaRuntime; driven by the ordering engines.
class StateTransferManager {
 public:
  /// `chunk_size` must be positive.
  explicit StateTransferManager(uint32_t chunk_size,
                                uint32_t max_chunks_per_request = 16,
                                uint32_t donor_chunks_per_tick = 0,
                                size_t delta_history = kDefaultDonorHistory)
      : chunk_size_(chunk_size),
        max_chunks_per_request_(max_chunks_per_request ? max_chunks_per_request : 1),
        donor_chunks_per_tick_(donor_chunks_per_tick),
        delta_history_(delta_history ? delta_history : 1) {}

  /// Delta bases retained per donor (ProtocolConfig::state_transfer_delta_history).
  size_t delta_history() const { return delta_history_; }

  /// Default delta-base retention: a fetcher whose base is older than this
  /// many checkpoints behind a donor falls back to a full-chunked manifest.
  static constexpr size_t kDefaultDonorHistory = 16;

  // --- fetcher ---------------------------------------------------------------

  /// A fetch round is in progress (probe broadcast, manifest possibly
  /// adopted, chunks possibly partially received).
  bool active() const { return active_; }
  /// A manifest has been adopted (target certificate + chunk root known).
  bool has_target() const { return active_ && target_cert_.seq > 0; }
  const ExecCertificate& target_cert() const { return target_cert_; }
  uint32_t chunks_received() const { return received_; }
  uint32_t chunk_count() const { return chunk_count_; }
  size_t donor_count() const { return donors_.size(); }
  /// Donor was excluded (invalid chunk / failed manifest) for this fetch —
  /// lets engines skip expensive signature checks on its further manifests.
  bool donor_excluded(ReplicaId donor) const { return excluded_.count(donor) > 0; }

  /// Marks a fetch round active (idempotent) and clears the delta-base
  /// advertisement. Unit-test/no-base entry point; engines use make_probe.
  void begin_probe() {
    active_ = true;
    probe_base_seq_ = 0;
    probe_base_root_ = Digest{};
  }

  /// Marks a fetch round active and builds the probe to broadcast. When this
  /// replica retains a shippable checkpoint, the probe advertises it as the delta base: donors still holding that base's
  /// chunk hashes answer with a delta manifest, and the fetcher seeds the
  /// unchanged chunks from its local snapshot. Partial state from a disturbed
  /// earlier round is kept (resume).
  StateTransferRequestMsg make_probe(const CheckpointManager& cp, ReplicaId self,
                                     SeqNum last_executed);

  /// Feeds a donor manifest. Returns true when the manifest (re)targeted the
  /// fetch or registered a new donor — i.e. the caller should send the next
  /// request plan (or, when fetch_complete(), adopt immediately: a delta
  /// manifest may seed every chunk from the local base). Certificate
  /// signature verification (SBFT's pi) is the caller's job, *before* this
  /// call. `cp` is this replica's own checkpoint state — the source the
  /// delta-seeded chunks are copied from.
  bool on_manifest(const StateManifestMsg& m, SeqNum last_executed,
                   const CheckpointManager& cp, RuntimeStats& stats);

  /// Every chunk is in hand (arrived or delta-seeded): assemble + adopt.
  bool fetch_complete() const {
    return has_target() && received_ == chunk_count_;
  }

  enum class ChunkVerdict {
    kRejected,   // stale or off-target; ignore silently
    kInvalid,    // failed Merkle verification: donor excluded, re-plan
    kDuplicate,  // already stored; ignore
    kStored,     // stored; request more
    kCompleted,  // stored and the set is complete: assemble + adopt
  };
  ChunkVerdict on_chunk(const StateChunkMsg& m, RuntimeStats& stats);

  /// Chunk-request batches for missing chunks that are not already
  /// outstanding, fanned out round-robin across the known donors. Empty when
  /// nothing is missing or no donor is usable.
  std::vector<std::pair<ReplicaId, StateChunkRequestMsg>> plan_requests(
      ReplicaId self);

  /// Retry tick: expires outstanding requests, strikes donors that delivered
  /// nothing since the last tick (a struck-out donor is deprioritized; one
  /// serving invalid chunks is excluded outright). Returns true when the
  /// fetch holds partial data and will resume — counted as
  /// stats.state_transfer_resumes.
  bool on_retry(RuntimeStats& stats);

  /// One full retry-timer tick, shared by both ordering engines so the
  /// subtle stop/probe decisions cannot drift between them. `behind` is the
  /// engine's protocol-specific "still demonstrably needs a checkpoint"
  /// check. When `stop`, the fetch is over and the engine disarms its timer;
  /// otherwise the engine re-broadcasts the probe iff `probe`, sends
  /// plan_requests(), and re-arms.
  struct RetryTick {
    bool stop = false;
    bool probe = false;
  };
  RetryTick on_retry_tick(SeqNum last_executed, bool behind, RuntimeStats& stats);

  /// The assembled envelope; valid once on_chunk returned kCompleted.
  Bytes take_envelope();

  /// Folds the result of ReplicaRuntime::adopt_checkpoint(target_cert, ...)
  /// back into the fetch state — shared by both engines so the subtle
  /// stale-target vs lying-manifest distinction cannot drift between them.
  /// Returns true when the engine must re-broadcast the probe (the manifest
  /// sender lied: excluded, fetch restarts against the remaining replicas).
  bool on_adopt_result(bool adopted, SeqNum last_executed);

  /// Final verification against cert.state_root failed: the manifest sender
  /// lied (or raced a bogus manifest in first). Excludes it and drops the
  /// target so the next probe re-targets from the remaining donors.
  void manifest_failed();

  /// Excludes `donor` for the rest of this fetch round on protocol-layer
  /// evidence the manager cannot see itself (e.g. a manifest whose checkpoint
  /// certificate failed quorum verification). Its outstanding chunk requests
  /// become re-plannable immediately; if it authored the adopted manifest the
  /// target is dropped like manifest_failed().
  void exclude_donor(ReplicaId donor);

  /// Fetch finished (envelope adopted) or became moot (caught up through the
  /// ordering protocol): clears all fetch state.
  void finish();

  // --- donor -----------------------------------------------------------------

  /// Checkpoint sequence the donor chunk cache currently covers (0 = cold).
  /// A manifest/chunk request for a different shippable pair rebuilds the
  /// cache — that rebuild, not every request, is what hashes the envelope.
  SeqNum donor_cached_seq() const { return donor_chunks_ ? donor_seq_ : 0; }

  /// A new shippable pair was sealed (stable checkpoint advanced or adopted):
  /// rebuilds the donor chunk cache eagerly, retiring the previous pair's
  /// chunk hashes into the delta-base history. Called by ReplicaRuntime; the
  /// caller charges one envelope hash when it returns true (cache rebuilt).
  bool note_checkpoint(const CheckpointManager& cp);

  /// Manifest for the current shippable pair; nullopt when there is none or
  /// it is not newer than probe.have_seq. When the probe advertises a base
  /// this donor retains, the manifest carries the chunk diff against it.
  std::optional<StateManifestMsg> make_manifest(const CheckpointManager& cp,
                                                const StateTransferRequestMsg& probe,
                                                ReplicaId self);

  /// Chunk replies for a fetch request against the current shippable pair;
  /// empty when the request does not match it (stale root, wrong seq). When
  /// the donor chunk-rate limit is hit, the trimmed remainder of the request
  /// is queued for the next donor tick instead of being dropped.
  /// `requester_node` is the channel node the request arrived from — the
  /// deferred remainder is re-served there (a joiner's id resolves through
  /// no roster the donor holds yet).
  std::vector<StateChunkMsg> make_chunks(const CheckpointManager& cp,
                                         const StateChunkRequestMsg& req,
                                         ReplicaId self, RuntimeStats& stats,
                                         NodeId requester_node = 0);

  /// Donor tick: resets the per-tick serve budget and re-serves the requests
  /// the rate limiter deferred (dropping the ones the checkpoint advanced
  /// past — the fetcher's retry covers those). The engine sends each chunk to
  /// the returned *node* and re-arms the tick while donor_tick_needed().
  std::vector<std::pair<NodeId, StateChunkMsg>> on_donor_tick(
      const CheckpointManager& cp, ReplicaId self, RuntimeStats& stats);

  /// A donor tick must be scheduled: the budget is in use or requests wait.
  bool donor_tick_needed() const {
    return donor_chunks_per_tick_ > 0 &&
           (donor_served_this_tick_ > 0 || !donor_deferred_.empty());
  }
  size_t donor_deferred_requests() const { return donor_deferred_.size(); }

 private:
  void retarget(const StateManifestMsg& m);
  /// Seeds the chunks a delta manifest marks unchanged from the local base
  /// snapshot (no-op when the delta section is absent or unusable).
  void seed_from_base(const StateManifestMsg& m, const CheckpointManager& cp,
                      RuntimeStats& stats);
  /// Clears every per-target field (target, chunks, donors, strike and
  /// outstanding bookkeeping). Exclusions, rotation, and active_ are managed
  /// by the callers (manifest_failed keeps them; finish drops everything).
  void reset_fetch_state();
  const ChunkedSnapshot* donor_snapshot(const CheckpointManager& cp);

  // Refuse absurd manifests (memory-bound guard; a lying donor is caught by
  // verification, but only if we don't allocate ourselves to death first).
  static constexpr uint64_t kMaxTotalBytes = 1ull << 31;
  static constexpr uint32_t kMaxChunks = 1u << 20;
  static constexpr uint32_t kStrikeLimit = 2;
  // Bound on chunk indices queued by the donor rate limiter; overflow falls
  // back to the fetcher's retry instead of growing donor memory.
  static constexpr size_t kMaxDeferredChunks = 4096;

  uint32_t chunk_size_;
  uint32_t max_chunks_per_request_;
  uint32_t donor_chunks_per_tick_;
  // Delta bases retained per donor (chunk *hashes* only — 32 B per chunk, the
  // envelope bytes are never duplicated).
  size_t delta_history_;

  // Fetcher state.
  bool active_ = false;
  ExecCertificate target_cert_;        // seq == 0: no manifest adopted yet
  ReplicaId manifest_donor_ = 0;
  Digest chunk_root_{};                // tree root: chunk proofs verify here
  Digest transfer_root_{};             // geometry-bound key: messages match here
  uint32_t chunk_count_ = 0;
  uint32_t target_chunk_size_ = 0;
  uint64_t total_bytes_ = 0;
  std::vector<Bytes> chunks_;          // empty vector element == missing
  uint32_t received_ = 0;
  std::vector<ReplicaId> donors_;      // manifest senders, arrival order
  std::map<ReplicaId, uint32_t> strikes_;
  // Donors that reached kStrikeLimit. Unlike strikes_ (which plan_requests
  // forgives when nobody else is left to ask), this evidence persists until
  // the donor actually delivers again or the fetch re-targets — it is what
  // the dead-donors re-target decision reads, so forgiveness-for-planning
  // can never erase the proof that the adopted transfer is unobtainable.
  std::set<ReplicaId> struck_out_;
  std::set<ReplicaId> excluded_;       // served an invalid chunk / bad manifest
  // Missing indices partitioned into unplanned (fetchable now) and
  // outstanding (requested since the last retry tick), so a plan refill is
  // O(assigned), not a rescan of every chunk.
  std::set<uint32_t> unplanned_;
  std::set<uint32_t> outstanding_;
  std::map<ReplicaId, std::set<uint32_t>> outstanding_by_donor_;
  std::set<ReplicaId> delivered_since_tick_;
  uint32_t rotation_ = 0;              // donor round-robin offset
  // Delta base advertised by the most recent probe (0: none). A delta
  // manifest is only honoured when it answers exactly this advertisement.
  SeqNum probe_base_seq_ = 0;
  Digest probe_base_root_{};
  // Donors whose delta sections seeded chunks for the current target. Seeded
  // bytes carry no per-chunk proof (only the final state-root check covers
  // them), so when adoption fails these are excluded alongside the manifest
  // sender — a lying delta section must not survive the round it poisoned,
  // and must never get the adopted manifest's sender blamed in its place.
  std::set<ReplicaId> seed_donors_;

  // Donor-side chunk cache for the current shippable pair.
  SeqNum donor_seq_ = 0;
  std::unique_ptr<ChunkedSnapshot> donor_chunks_;
  // Chunk hashes of recently retired shippable pairs: the delta bases this
  // donor can still diff against. The transfer root binds the full geometry
  // (chunk size, count, total bytes); chunk_size is kept only for the cheap
  // pre-check before the root comparison.
  struct DonorBaseRecord {
    Digest transfer_root{};
    std::vector<Digest> leaves;
    uint32_t chunk_size = 0;
  };
  std::map<SeqNum, DonorBaseRecord> donor_history_;
  // Memoized delta diff (pure function of base seq × current pair): repeat
  // probes from a still-behind fetcher reuse it instead of re-walking every
  // chunk hash. Invalidated by seq mismatch on either side.
  SeqNum diff_base_seq_ = 0;
  SeqNum diff_target_seq_ = 0;
  Bytes diff_bitmap_;
  std::vector<uint32_t> diff_base_map_;
  // Rate limiter: chunks served since the last donor tick, and the trimmed
  // requests awaiting the next tick (re-validated against the then-current
  // shippable pair when drained). Each entry keeps the channel node the
  // request arrived from, so the re-serve reaches joiners too.
  struct DeferredRequest {
    NodeId node = 0;
    StateChunkRequestMsg req;
  };
  uint32_t donor_served_this_tick_ = 0;
  std::vector<DeferredRequest> donor_deferred_;
};

}  // namespace sbft::runtime

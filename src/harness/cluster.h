// Cluster builder: assembles a full simulated deployment — replicas of the
// chosen protocol variant, closed-loop clients, WAN topology, cost model,
// fault injection — and provides the safety audit used by tests.
//
// Every replica, regardless of protocol, sits behind a ReplicaHandle that
// owns its durable storage and exposes stats/ledger/WAL uniformly, so the
// crash / restart / disk-wipe / rolling-restart scenario family runs on SBFT
// variants and the PBFT baseline through the identical API.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include <string>

#include "core/client.h"
#include "core/replica.h"
#include "harness/audit.h"
#include "harness/replica_handle.h"
#include "harness/workload.h"
#include "obs/trace_checker.h"
#include "pbft/pbft_replica.h"
#include "recovery/wal.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "storage/ledger_storage.h"

namespace sbft::harness {

/// The five evaluated systems (§IX).
enum class ProtocolKind {
  kPbft,            // scale-optimized PBFT baseline
  kLinearPbft,      // + ingredient 1 (collectors, threshold signatures)
  kLinearPbftFast,  // + ingredient 2 (fast path)
  kSbft,            // + ingredient 3 (execution collector); c adds ingredient 4
};

const char* protocol_name(ProtocolKind kind);

struct ClusterOptions {
  ProtocolKind kind = ProtocolKind::kSbft;
  uint32_t f = 1;
  uint32_t c = 0;  // only meaningful for kSbft (redundant collectors)
  uint32_t num_clients = 4;
  uint64_t requests_per_client = 1000;
  sim::Topology topology;
  sim::CostModel costs;
  uint64_t seed = 1;

  // CPU lanes per replica node (docs/performance.md): lane 0 runs the serial
  // handler path, extra lanes absorb offloaded signature verification.
  // 0 or 1 = one lane, the classic serial node. Clients always keep one lane.
  uint32_t cores_per_replica = 0;

  /// Service run by every replica; defaults to FastKvService.
  std::function<std::unique_ptr<IService>()> service_factory;
  /// Client operation generator; defaults to the single-put KV workload.
  std::function<Bytes(uint64_t, Rng&)> op_factory;
  /// Per-client generator factory (takes the ClientId); overrides op_factory
  /// when set — used by workloads with per-client identity (eth workload).
  std::function<std::function<Bytes(uint64_t, Rng&)>(ClientId)> per_client_op_factory;

  // Fault injection (applied before start).
  uint32_t crash_replicas = 0;      // crash this many non-primary replicas
  uint32_t straggler_replicas = 0;  // slow (4x CPU, +20ms) non-primary replicas
  core::ReplicaBehavior byzantine_behavior = core::ReplicaBehavior::kHonest;
  uint32_t byzantine_replicas = 0;  // replicas given byzantine_behavior
  // Replicas that bit-flip every state-transfer chunk they serve as donors
  // (fetchers must detect the corruption by Merkle verification and fetch the
  // chunk from another donor). Works on every protocol — the corruption sits
  // in the shared chunk-serving path, not in an ordering engine.
  std::vector<ReplicaId> corrupt_chunk_replicas;
  // PBFT-only fault: replicas that answer state-transfer probes with a
  // fabricated-but-root-consistent checkpoint (defeated by the weak f+1
  // checkpoint certificate fetchers always verify).
  std::vector<ReplicaId> fabricate_checkpoint_replicas;

  /// Scheduled kill-and-restart fault scenario (any protocol). Chain several
  /// events for rolling restarts; set wipe_storage to model disk loss (the
  /// replica comes back empty and must state-transfer).
  struct RestartEvent {
    sim::SimTime crash_at_us = 0;
    sim::SimTime restart_at_us = 0;  // <= crash_at_us: crash only, no restart
    ReplicaId replica = 0;           // 0: auto-pick a distinct non-primary backup
    bool wipe_storage = false;
  };
  std::vector<RestartEvent> restart_schedule;

  // Structured protocol tracing (docs/observability.md). Off by default;
  // enabling it never perturbs the simulation (tracers only record, they
  // never touch timers, the network, or any RNG).
  bool tracing = false;
  size_t trace_capacity = 65536;  // events retained per replica (ring buffer)

  // Use real Shoup threshold-RSA keys (384-bit moduli) instead of the
  // simulated-BLS scheme. Slower (real modular exponentiation per share);
  // meant for small-n tests that exercise the protocol with genuine
  // cryptography.
  bool use_real_threshold_crypto = false;

  // Optional overrides applied to the derived ProtocolConfig.
  std::function<void(ProtocolConfig&)> tweak_config;

  /// Per-replica cross-shard marker executor (docs/sharding.md): called at
  /// build time with the replica id and the network node it will occupy. The
  /// handle keeps the executor alive across incarnations — recovery and
  /// state transfer restore its state, the way the ledger survives a crash.
  /// Null (the default) runs the group without a shard layer.
  std::function<std::shared_ptr<runtime::IMarkerExecutor>(ReplicaId, NodeId)>
      marker_executor_factory;

  ProtocolConfig make_config() const;
};

class Cluster {
 public:
  explicit Cluster(ClusterOptions options);
  /// Embeds the cluster as one *shard* of a multi-group deployment
  /// (src/shard/Deployment): nodes are added to the caller's shared network
  /// starting at its current node count, and the caller drives the shared
  /// simulator (run_for / run_until_done must not be used — the deployment
  /// starts the network and pumps the loop). Both references must outlive
  /// the cluster.
  Cluster(ClusterOptions options, sim::Simulator& sim, sim::Network& net);
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  /// Starts all nodes and runs until `sim_time_us` of virtual time passed.
  void run_for(sim::SimTime sim_time_us);
  /// Runs until every client finished its request budget or the deadline hit.
  /// Returns true if all clients finished.
  bool run_until_done(sim::SimTime deadline_us);

  sim::Simulator& simulator() { return *sim_; }
  sim::Network& network() { return *net_; }
  /// First network node this cluster occupies (0 unless embedded in a
  /// deployment); replicas sit at node_base()..node_base()+n-1, clients after.
  NodeId node_base() const { return node_base_; }
  const ClusterOptions& options() const { return opts_; }
  const ProtocolConfig& config() const { return config_; }

  uint32_t n() const { return config_.n(); }
  /// What a client needs to talk to this group: the genesis config and
  /// roster, verifier-only keys and the epoch key table. The cluster's own
  /// clients and a deployment's shard clients are built from it.
  core::GroupView group_view() const;
  core::SbftClient& client(size_t i) { return *clients_[i]; }
  size_t num_clients() const { return clients_.size(); }

  /// Uniform, protocol-agnostic access to a replica (stats, storage, ids).
  ReplicaHandle& replica(ReplicaId id) { return replicas_.at(id - 1); }
  const ReplicaHandle& replica(ReplicaId id) const { return replicas_.at(id - 1); }
  core::SbftReplica* sbft_replica(ReplicaId id);  // null for kPbft clusters
  pbft::PbftReplica* pbft_replica(ReplicaId id);  // null for SBFT clusters

  // --- group reconfiguration (docs/reconfiguration.md) -----------------------
  /// Builds a new replica slot (next id, fresh wiped storage, recovering
  /// boot) and admits its node to the network. The replica bootstraps with
  /// the *current* roster — which does not contain it — and joins once a
  /// ReconfigBlockMsg naming it activates. Call before submit_reconfig.
  ReplicaId add_replica();
  /// Submits an add/remove reconfiguration to the running cluster: deals and
  /// provisions the next epoch's threshold keys (SBFT), builds the
  /// ReconfigBlockMsg, and injects it to every current member (the primary
  /// orders it; it takes effect at the next stable checkpoint). `adds` name
  /// replicas created via add_replica.
  void submit_reconfig(const std::vector<ReplicaId>& adds,
                       const std::vector<ReplicaId>& removes, uint32_t new_f,
                       uint32_t new_c = 0);
  /// Roster the harness believes active/incoming (updated by submit_reconfig).
  const std::vector<ReplicaInfo>& current_members() const {
    return current_members_;
  }
  size_t num_replicas() const { return replicas_.size(); }

  // --- crash / restart (any protocol) ----------------------------------------
  /// Crashes the replica's node (id↔node translation via its handle).
  void crash_replica(ReplicaId r);
  /// Rebuilds a crashed replica from its surviving ledger + WAL handles and
  /// re-admits it to the network; with wipe_storage the handles are replaced
  /// by empty ones first (disk loss — recovery must go via state transfer).
  void restart_replica(ReplicaId r, bool wipe_storage = false);
  std::shared_ptr<storage::ILedgerStorage> replica_ledger(ReplicaId r) {
    return replica(r).ledger();
  }
  std::shared_ptr<recovery::IReplicaWal> replica_wal(ReplicaId r) {
    return replica(r).wal();
  }

  // --- network partitions (any protocol) -------------------------------------
  /// Isolates `side` from every other node (replicas and clients): cuts each
  /// pair link crossing the boundary. Composes with earlier partitions.
  void partition(const std::vector<ReplicaId>& side);
  /// Clears every link-level fault (pair cuts, directional blocks,
  /// reordering, drop probability) in one stroke.
  void heal_partitions();

  SeqNum min_executed() const;
  SeqNum max_executed() const;
  uint64_t total_fast_commits() const;
  uint64_t total_slow_commits() const;
  uint64_t total_view_changes() const;
  uint64_t total_recoveries() const;
  uint64_t total_wal_bytes_written() const;

  /// Theorem VI.1 audit: every pair of replicas that committed a block at the
  /// same sequence number committed the same block. Returns false (and the
  /// offending sequence via *bad_seq) on divergence.
  bool check_agreement(SeqNum* bad_seq = nullptr) const;

  // --- end-of-run audits (harness/audit.h; the fuzzer's cluster oracle) ------
  /// State-root convergence across live roster members (call after healing
  /// every fault and letting traffic settle). Empty when clean.
  std::vector<std::string> audit_state_convergence() const;
  /// Cross-replica reply-cache consistency. Empty when clean.
  std::vector<std::string> audit_reply_caches() const;

  // --- observability (docs/observability.md) ---------------------------------
  /// Per-replica tracers in replica-id order (empty unless options().tracing).
  std::vector<const obs::Tracer*> tracers() const;
  /// Chrome-trace-event JSON over every replica's events (Perfetto-loadable).
  std::string trace_json() const;
  /// Writes trace_json() to `path`; false on I/O failure.
  bool dump_trace(const std::string& path) const;
  /// Cross-replica invariant audit over the recorded traces (agreement on
  /// executed digests, no double execution, fast commits backed by quorum
  /// proofs, state-transfer sessions terminate).
  obs::CheckReport check_trace() const;

 private:
  void build();
  void build_replica(ReplicaHandle& handle, core::ReplicaBehavior behavior,
                     bool recovering);
  /// CPU lanes of every replica: cores_per_replica, at least 1.
  uint32_t replica_lanes() const;

  ClusterOptions opts_;
  ProtocolConfig config_;
  // Owned for a standalone cluster; null (borrowing the deployment's shared
  // instances via the raw pointers) when embedded as a shard.
  std::unique_ptr<sim::Simulator> owned_sim_;
  std::unique_ptr<sim::Network> owned_net_;
  sim::Simulator* sim_ = nullptr;
  sim::Network* net_ = nullptr;
  NodeId node_base_ = 0;
  core::ClusterKeys keys_;
  // Reconfiguration material: per-epoch threshold keys (SBFT; shared with
  // replicas and clients) and the PBFT checkpoint signing authority.
  std::shared_ptr<core::EpochKeyTable> epoch_keys_;
  std::shared_ptr<pbft::CheckpointAuth> checkpoint_auth_;
  std::vector<ReplicaInfo> current_members_;  // harness' view of the roster
  uint32_t current_f_ = 0;
  uint32_t current_c_ = 0;
  uint64_t next_epoch_ = 1;
  std::vector<ReplicaHandle> replicas_;  // index r - 1
  std::vector<std::unique_ptr<core::SbftClient>> clients_;
  bool started_ = false;
};

}  // namespace sbft::harness

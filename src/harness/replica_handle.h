// Protocol-agnostic replica handle.
//
// The cluster builds one handle per replica slot regardless of which ordering
// engine backs it (SBFT variants or the PBFT baseline). The handle owns the
// replica object *and* its durable storage (ledger + WAL, which stand in for
// the disk that survives the process), exposes the uniform introspection the
// harness/tests/benches need — view, executed/stable sequences, runtime
// stats, committed digests — and is the single place where replica ids map
// to network node ids. Crash/restart/disk-wipe scenarios therefore run
// identically on every protocol.
#pragma once

#include <memory>
#include <optional>

#include "core/replica.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "pbft/pbft_replica.h"
#include "recovery/wal.h"
#include "runtime/engine_shell.h"
#include "runtime/replica_runtime.h"
#include "storage/ledger_storage.h"

namespace sbft::harness {

class ReplicaHandle {
 public:
  ReplicaHandle() = default;

  ReplicaId id() const { return id_; }
  /// Network node this replica occupies — the only id↔node translation the
  /// harness uses (never hand-compute r - 1).
  NodeId node() const { return node_; }

  /// The engine-typed views; null when the handle runs the other engine.
  core::SbftReplica* sbft() const { return sbft_; }
  pbft::PbftReplica* pbft() const { return pbft_; }
  sim::IActor* actor() const { return engine_.get(); }

  // --- uniform introspection -------------------------------------------------
  ViewNum view() const { return engine_->view(); }
  SeqNum last_executed() const { return engine_->last_executed(); }
  SeqNum last_stable() const { return engine_->last_stable(); }
  const IService& service() const { return engine_->service(); }
  const runtime::ReplicaRuntime& runtime() const { return engine_->runtime(); }
  const runtime::RuntimeStats& runtime_stats() const { return runtime().stats(); }
  uint64_t view_changes() const { return engine_->view_changes(); }
  std::optional<Digest> committed_digest_of(SeqNum s) const {
    return engine_->committed_digest_of(s);
  }

  /// Visits every protocol + runtime counter as (name, value) — the generic
  /// path metrics collection walks instead of copying fields one by one.
  template <typename Fn>
  void for_each_stat(Fn&& fn) const {
    engine_->for_each_stat(fn);
  }

  // --- durable storage (outlives replica incarnations) -----------------------
  std::shared_ptr<storage::ILedgerStorage> ledger() const { return ledger_; }
  std::shared_ptr<recovery::IReplicaWal> wal() const { return wal_; }

  // --- observability (outlives replica incarnations, like the disk) ----------
  /// Null unless the cluster was built with tracing enabled.
  std::shared_ptr<obs::Tracer> tracer() const { return tracer_; }
  std::shared_ptr<obs::MetricsRegistry> metrics() const { return metrics_; }

  /// Cross-shard marker executor (docs/sharding.md); null without a shard
  /// layer. Outlives replica incarnations — recovery restores its state.
  std::shared_ptr<runtime::IMarkerExecutor> marker_executor() const {
    return marker_executor_;
  }

 private:
  friend class Cluster;

  ReplicaId id_ = 0;
  NodeId node_ = 0;
  std::unique_ptr<runtime::EngineShell> engine_;
  core::SbftReplica* sbft_ = nullptr;  // engine_, when it runs SBFT
  pbft::PbftReplica* pbft_ = nullptr;  // engine_, when it runs PBFT
  std::shared_ptr<storage::ILedgerStorage> ledger_;
  std::shared_ptr<recovery::IReplicaWal> wal_;
  std::shared_ptr<obs::Tracer> tracer_;
  std::shared_ptr<obs::MetricsRegistry> metrics_;
  std::shared_ptr<runtime::IMarkerExecutor> marker_executor_;
};

}  // namespace sbft::harness

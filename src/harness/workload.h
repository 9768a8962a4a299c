// Key-value benchmark workload (§IX "Measurements"): every request is a put
// of a random value to a random key; in batching mode a request carries 64
// operations. Also provides FastKvService, a deterministic lightweight state
// machine used by the large protocol sweeps (docs/architecture.md, paper
// substitution 5: the authenticated KV store is exercised by
// tests/examples/smart-contract runs; the fig2 sweeps use this
// O(1)-digest service so a laptop can simulate 209 replicas).
#pragma once

#include <functional>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "common/rng.h"
#include "kv/service.h"

namespace sbft::harness {

struct KvWorkloadOptions {
  uint32_t ops_per_request = 1;  // 64 in the paper's batching mode
  uint32_t key_space = 100'000;
  uint32_t key_size = 16;
  uint32_t value_size = 32;
};

/// Factory compatible with ClientOptions::op_factory.
std::function<Bytes(uint64_t, Rng&)> kv_op_factory(KvWorkloadOptions options);

/// KV workload whose steady state mutates only a small hot prefix of an
/// otherwise cold keyspace — the briefly-behind delta state-transfer
/// scenario (docs/state_transfer.md): the first `key_space` ops populate
/// every key ("key-%06u") once, all later writes hit keys [0, hot). Each
/// request batches `ops_per_request` puts of `value_size`-byte random
/// values. The phase counter is shared across every copy of the returned
/// generator (all clients of one cluster).
std::function<Bytes(uint64_t, Rng&)> hot_range_kv_op_factory(
    uint32_t key_space, uint32_t hot, uint32_t value_size,
    uint32_t ops_per_request);

/// Deterministic O(1)-digest replicated service for protocol benchmarks.
/// The digest is a rolling non-cryptographic commitment over the executed
/// operation stream — protocol-visible behaviour (determinism, digest
/// equality across replicas, divergence on different histories) is preserved
/// at negligible simulation cost.
///
/// State is *sharded*: each operation folds into one of `shards` accumulator
/// pairs (chosen by an op-content hash), and the snapshot groups shards into
/// sections zero-padded to set_snapshot_chunk_hint — so a burst of operations
/// perturbs only the sections of the shards it touched, and delta state
/// transfer moves just those chunks (docs/state_transfer.md; previously this
/// service ignored the hint and every delta degraded to a full fetch). The
/// global digest stays O(1) per op: an incremental commitment over the shard
/// accumulators is maintained alongside them.
class FastKvService final : public IService {
 public:
  explicit FastKvService(uint32_t shards = 2048);

  Bytes execute(ByteSpan op) override;
  Bytes query(ByteSpan q) const override;
  Digest state_digest() const override;
  Bytes snapshot() const override;
  bool restore(ByteSpan snapshot) override;
  void set_snapshot_chunk_hint(uint32_t page) override { snapshot_page_ = page; }
  std::unique_ptr<IService> clone_empty() const override;
  int64_t last_execute_cost_us(const sim::CostModel& costs) const override {
    return costs.kv_op_us * static_cast<int64_t>(last_op_count_);
  }
  uint32_t shard_count() const { return static_cast<uint32_t>(shards_.size()); }

 private:
  struct Shard {
    uint64_t acc0 = 0;
    uint64_t acc1 = 0;
  };
  /// Commitment contribution of shard `i` (added into the running digest
  /// sums; subtracted/re-added when the shard mutates).
  static std::pair<uint64_t, uint64_t> shard_mix(size_t i, const Shard& s);
  void reset_shards(uint32_t shards);

  std::vector<Shard> shards_;
  uint64_t digest0_ = 0;  // wrapping sum over shard_mix().first
  uint64_t digest1_ = 0;  // xor over shard_mix().second
  uint64_t ops_ = 0;
  uint64_t last_op_count_ = 1;
  uint32_t snapshot_page_ = 0;  // section pad unit; <= 1 disables padding
};

}  // namespace sbft::harness

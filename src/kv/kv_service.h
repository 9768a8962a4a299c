// Authenticated key-value store (§IV "An authenticated key-value store").
//
// State is a byte-string map mirrored into a sparse Merkle tree, so
// state_digest() is a commitment to the entire map and any key's
// presence/value can be proven against it with SmtProof.
//
// Snapshots use a *chunk-stable* layout (docs/state_transfer.md): entries are
// key-ordered and grouped into sections whose boundaries are a pure function
// of the keys present (a key closes its section when a cheap hash of it hits
// a fanout mask), and each section is zero-padded to a multiple of the
// snapshot chunk hint. A small mutation therefore perturbs only the pages of
// its own section instead of shifting every byte after it — the property the
// delta state-transfer path exploits. restore() decodes only this layout.
#pragma once

#include <map>
#include <optional>

#include "common/bytes.h"
#include "kv/service.h"
#include "merkle/merkle_tree.h"

namespace sbft::kv {

/// Operation encoding for the KV service. kBatch wraps several simple ops in
/// one request (§IX "in the batching mode each request contains 64
/// operations"); a batch is flat, and execute() decodes all of it before it
/// applies any sub-op.
enum class OpType : uint8_t { kPut = 1, kGet = 2, kDelete = 3, kBatch = 4 };

Bytes encode_put(ByteSpan key, ByteSpan value);
Bytes encode_get(ByteSpan key);
Bytes encode_delete(ByteSpan key);
Bytes encode_batch(const std::vector<Bytes>& ops);

struct DecodedOp {
  OpType type;
  Bytes key;
  Bytes value;  // only for kPut
};
std::optional<DecodedOp> decode_op(ByteSpan op);

class KvService final : public IService {
 public:
  KvService() = default;

  Bytes execute(ByteSpan op) override;
  Bytes query(ByteSpan q) const override;
  Digest state_digest() const override { return tree_.root(); }
  Bytes snapshot() const override;
  bool restore(ByteSpan snapshot) override;
  void set_snapshot_chunk_hint(uint32_t page) override { snapshot_page_ = page; }
  std::unique_ptr<IService> clone_empty() const override;
  int64_t last_execute_cost_us(const sim::CostModel& costs) const override {
    return costs.kv_op_us * static_cast<int64_t>(last_op_count_);
  }

  // Direct (non-replicated) access, used by tests and by the EVM layer.
  void put(ByteSpan key, ByteSpan value);
  void erase(ByteSpan key);
  std::optional<Bytes> get(ByteSpan key) const;
  size_t size() const { return data_.size(); }

  /// Membership proof for `key` against state_digest().
  merkle::SmtProof prove(ByteSpan key) const { return tree_.prove(key); }
  /// Verifies a proof produced by prove(): `value` == nullopt proves absence.
  static bool verify(const Digest& root, ByteSpan key,
                     const std::optional<Bytes>& value,
                     const merkle::SmtProof& proof);

 private:
  static Digest leaf_for(ByteSpan key, ByteSpan value);
  Bytes apply(const DecodedOp& op);

  std::map<Bytes, Bytes> data_;  // ordered so snapshots are canonical
  merkle::SparseMerkleTree tree_;
  uint64_t last_op_count_ = 1;
  uint32_t snapshot_page_ = 0;  // section pad unit; <= 1 disables padding
};

}  // namespace sbft::kv

// Merkle trees (§IV): the authenticated data interface SBFT uses so that a
// client can accept a result from a single replica.
//
// Two structures:
//  * BlockMerkleTree — ordered tree over the operations (and their outputs)
//    of one decision block; proves "operation o was executed as the l-th
//    operation of block s with output val".
//  * SparseMerkleTree — authenticated map for the service state; proves
//    key/value membership against the state root.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "common/bytes.h"

namespace sbft::merkle {

/// Domain-separated hashing so leaves can never be confused with interior
/// nodes (classic second-preimage hardening).
Digest leaf_hash(ByteSpan data);
Digest node_hash(const Digest& left, const Digest& right);

// ---------------------------------------------------------------------------
// Ordered tree over a block's operations.

struct BlockProof {
  uint64_t index = 0;        // position l of the operation in the block
  uint64_t leaf_count = 0;   // number of operations in the block
  std::vector<Digest> path;  // sibling hashes, leaf level first

  Bytes encode() const;
  /// encode().size(), without building it.
  size_t encoded_size() const {
    return 8 + 8 + 4 + path.size() * sizeof(Digest);
  }
  static std::optional<BlockProof> decode(ByteSpan data);
};

class BlockMerkleTree {
 public:
  /// Builds the tree over already-hashed leaves (use leaf_hash on payloads).
  explicit BlockMerkleTree(std::vector<Digest> leaves);

  const Digest& root() const { return levels_.back()[0]; }
  uint64_t leaf_count() const { return static_cast<uint64_t>(levels_[0].size()); }
  /// The leaf digests the tree was built over (index order). State transfer
  /// diffs two snapshots' trees leaf-by-leaf to build delta manifests.
  const std::vector<Digest>& leaves() const { return levels_[0]; }
  BlockProof prove(uint64_t index) const;

  /// Verifies that `leaf` is at `proof.index` under `root`.
  static bool verify(const Digest& root, const Digest& leaf, const BlockProof& proof);

 private:
  // levels_[0] = leaves (padded is not stored; odd nodes are promoted).
  std::vector<std::vector<Digest>> levels_;
};

// ---------------------------------------------------------------------------
// Sparse Merkle tree for the service state.
//
// Keys are mapped to a 64-bit path (first 8 bytes of SHA-256 of the key);
// depth-64 is collision-safe at the scales this repository runs (birthday
// bound ~2^-24 at one million keys). Empty subtrees hash to per-level default
// digests, so storage is proportional to the number of live keys.

struct SmtProof {
  uint64_t path = 0;          // leaf index of the key
  uint64_t nondefault_mask = 0;  // bit i set => sibling at level i is explicit
  std::vector<Digest> siblings;  // non-default siblings, leaf level first

  Bytes encode() const;
  static std::optional<SmtProof> decode(ByteSpan data);
};

class SparseMerkleTree {
 public:
  static constexpr int kDepth = 64;

  SparseMerkleTree();

  /// Sets the leaf for `key` to leaf_hash(key || value-binding). A zero
  /// digest deletes the leaf (resets to default).
  void update(ByteSpan key, const Digest& leaf);
  std::optional<Digest> leaf(ByteSpan key) const;
  const Digest& root() const { return root_; }
  size_t size() const { return leaves_.size(); }

  SmtProof prove(ByteSpan key) const;
  /// Verifies that `key` maps to `leaf` (or is absent if leaf==nullopt) under
  /// `root`.
  static bool verify(const Digest& root, ByteSpan key,
                     const std::optional<Digest>& leaf, const SmtProof& proof);

  static uint64_t key_path(ByteSpan key);

 private:
  struct NodeKey {
    int level;       // 0 = leaf level, kDepth = root
    uint64_t index;  // node index within the level
    auto operator<=>(const NodeKey&) const = default;
  };

  Digest node(int level, uint64_t index) const;
  static const std::vector<Digest>& default_hashes();

  // Ordered maps, not hash maps: the state root these trees produce flows
  // into checkpoint certificates and snapshots, so no container here may
  // expose hash-seed-dependent iteration order (lint:determinism). Lookups
  // are point-addressed; ordering also makes a future ranged diff trivial.
  std::map<NodeKey, Digest> nodes_;
  std::map<uint64_t, Digest> leaves_;
  Digest root_;
};

}  // namespace sbft::merkle

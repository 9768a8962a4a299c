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
#include <memory>
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
// digests.
//
// Storage is a path-compressed binary radix tree over the paths: k keys take
// k leaves and k-1 branch nodes, two nodes per key, however deep the dense
// tree is. A leaf sits at level 0; a branch at level L (1..64) is the one
// dense node where two non-empty level-(L-1) subtrees meet, and the dense
// levels between a node and its parent hold only default siblings. Each node
// keeps `top`, its subtree's hash climbed through those default siblings to
// its parent's level - 1 (to level 64 for the root), so the root and every
// proof sibling come from the nodes alone and an untouched sibling is never
// hashed again. The hashes, the root and the proofs are exactly those of the
// dense 64-level tree.

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
  /// Nodes per storage block (see nodes_ below).
  static constexpr uint32_t kBlockNodes = 512;

  SparseMerkleTree() = default;

  /// Sets the leaf for `key` to leaf_hash(key || value-binding). A zero
  /// digest deletes the leaf (resets to default). Keys that share a path
  /// share a leaf: the last write wins.
  void update(ByteSpan key, const Digest& leaf);
  std::optional<Digest> leaf(ByteSpan key) const;
  const Digest& root() const {
    return root_ == kNil ? default_hashes()[kDepth] : node(root_).top;
  }
  size_t size() const { return leaf_count_; }

  SmtProof prove(ByteSpan key) const;
  /// Verifies that `key` maps to `leaf` (or is absent if leaf==nullopt) under
  /// `root`.
  static bool verify(const Digest& root, ByteSpan key,
                     const std::optional<Digest>& leaf, const SmtProof& proof);

  static uint64_t key_path(ByteSpan key);

 private:
  static constexpr uint32_t kNil = UINT32_MAX;

  struct Node {
    Digest hash{};  // the dense node's hash at `level` (the leaf digest at 0)
    Digest top{};   // `hash` climbed to the parent's level - 1 (root: kDepth)
    uint64_t path = 0;  // a leaf's path; for a branch, any path below it
    uint32_t child[2] = {kNil, kNil};  // a branch's (a free node: child[0])
    int level = 0;  // 0 = leaf, else a branch with both children non-empty
  };

  static const std::vector<Digest>& default_hashes();
  /// `h`, the hash of the dense node at level `from` on `path`, hashed up
  /// through default siblings to level `to`.
  static Digest climb(Digest h, int from, int to, uint64_t path);
  /// Walks down `path` from the root, pushing each branch it passes
  /// (root first) onto `stack`, and returns the node it stops at: a leaf,
  /// a subtree `path` is not under, or kNil for an empty tree.
  uint32_t descend(uint64_t path, uint32_t* stack, size_t& depth) const;
  /// The level `top` sits at for a child of stack[depth - 1]; kDepth for
  /// the root (depth 0).
  int top_level(const uint32_t* stack, size_t depth) const;
  Node& node(uint32_t i) { return nodes_[i / kBlockNodes][i % kBlockNodes]; }
  const Node& node(uint32_t i) const {
    return nodes_[i / kBlockNodes][i % kBlockNodes];
  }
  /// Free nodes form a list through child[0], headed by free_; a node never
  /// used yet comes from the last block, a new block when it is full.
  uint32_t alloc(const Node& n);
  void release(uint32_t i);
  /// Re-hashes stack[0..depth), deepest first.
  void reclimb(const uint32_t* stack, size_t depth);

  // Fixed blocks of kBlockNodes nodes, allocated on demand: node i is
  // nodes_[i / kBlockNodes][i % kBlockNodes], so growing never moves a node
  // or leaves a doubled vector's spare slots. The tree's shape is a function
  // of the key set alone; the slot a node occupies depends on history but
  // never reaches a hash, proof or snapshot.
  std::vector<std::unique_ptr<Node[]>> nodes_;
  uint32_t used_ = 0;  // nodes ever allocated: indices [0, used_)
  uint32_t root_ = kNil;
  uint32_t free_ = kNil;
  size_t leaf_count_ = 0;
};

}  // namespace sbft::merkle

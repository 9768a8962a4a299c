#include <gtest/gtest.h>
#include <malloc.h>  // malloc_usable_size

#include <atomic>
#include <cstdlib>
#include <map>
#include <new>

#include "common/rng.h"
#include "crypto/sha256.h"
#include "merkle/merkle_tree.h"

// Live heap bytes of this test binary, for Smt.HeapStaysLinearInKeys: every
// global new and delete below goes through malloc and counts the usable size.
namespace {
std::atomic<int64_t> g_live_heap{0};

void* counted_new(std::size_t n) {
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  g_live_heap.fetch_add(static_cast<int64_t>(malloc_usable_size(p)),
                        std::memory_order_relaxed);
  return p;
}

void counted_delete(void* p) noexcept {
  if (p == nullptr) return;
  g_live_heap.fetch_sub(static_cast<int64_t>(malloc_usable_size(p)),
                        std::memory_order_relaxed);
  std::free(p);
}
}  // namespace

void* operator new(std::size_t n) { return counted_new(n); }
void* operator new[](std::size_t n) { return counted_new(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return counted_new(n);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, const std::nothrow_t& tag) noexcept {
  return operator new(n, tag);
}
void operator delete(void* p) noexcept { counted_delete(p); }
void operator delete[](void* p) noexcept { counted_delete(p); }
void operator delete(void* p, std::size_t) noexcept { counted_delete(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_delete(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { counted_delete(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { counted_delete(p); }

namespace sbft::merkle {
namespace {

std::vector<Digest> make_leaves(size_t count) {
  std::vector<Digest> leaves;
  for (size_t i = 0; i < count; ++i) {
    leaves.push_back(leaf_hash(as_span(to_bytes("leaf-" + std::to_string(i)))));
  }
  return leaves;
}

TEST(LeafHash, DomainSeparatedFromNodes) {
  Digest a = crypto::sha256("x");
  EXPECT_NE(leaf_hash(as_span(a)), node_hash(a, a));
}

TEST(BlockTree, SingleLeaf) {
  auto leaves = make_leaves(1);
  BlockMerkleTree tree(leaves);
  EXPECT_EQ(tree.root(), leaves[0]);
  BlockProof proof = tree.prove(0);
  EXPECT_TRUE(BlockMerkleTree::verify(tree.root(), leaves[0], proof));
}

class BlockTreeSizes : public ::testing::TestWithParam<size_t> {};

TEST_P(BlockTreeSizes, AllProofsVerify) {
  auto leaves = make_leaves(GetParam());
  BlockMerkleTree tree(leaves);
  for (size_t i = 0; i < leaves.size(); ++i) {
    BlockProof proof = tree.prove(i);
    EXPECT_TRUE(BlockMerkleTree::verify(tree.root(), leaves[i], proof)) << i;
  }
}

TEST_P(BlockTreeSizes, WrongLeafFails) {
  auto leaves = make_leaves(GetParam());
  BlockMerkleTree tree(leaves);
  Digest wrong = leaf_hash(as_span(to_bytes("not-a-leaf")));
  for (size_t i = 0; i < leaves.size(); ++i) {
    EXPECT_FALSE(BlockMerkleTree::verify(tree.root(), wrong, tree.prove(i)));
  }
}

TEST_P(BlockTreeSizes, WrongIndexFails) {
  auto leaves = make_leaves(GetParam());
  if (leaves.size() < 2) return;
  BlockMerkleTree tree(leaves);
  BlockProof proof = tree.prove(0);
  proof.index = 1;
  EXPECT_FALSE(BlockMerkleTree::verify(tree.root(), leaves[0], proof));
}

INSTANTIATE_TEST_SUITE_P(Sizes, BlockTreeSizes,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8, 13, 64, 100));

TEST(BlockTree, TamperedPathFails) {
  auto leaves = make_leaves(8);
  BlockMerkleTree tree(leaves);
  BlockProof proof = tree.prove(3);
  proof.path[0][0] ^= 1;
  EXPECT_FALSE(BlockMerkleTree::verify(tree.root(), leaves[3], proof));
}

TEST(BlockTree, ProofEncodingRoundTrip) {
  auto leaves = make_leaves(9);
  BlockMerkleTree tree(leaves);
  BlockProof proof = tree.prove(5);
  auto decoded = BlockProof::decode(as_span(proof.encode()));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->index, proof.index);
  EXPECT_EQ(decoded->leaf_count, proof.leaf_count);
  EXPECT_EQ(decoded->path, proof.path);
  EXPECT_TRUE(BlockMerkleTree::verify(tree.root(), leaves[5], *decoded));
}

TEST(BlockTree, OutOfRangeProofRejected) {
  auto leaves = make_leaves(4);
  BlockMerkleTree tree(leaves);
  BlockProof proof = tree.prove(0);
  proof.index = 9;
  EXPECT_FALSE(BlockMerkleTree::verify(tree.root(), leaves[0], proof));
  proof.index = 0;
  proof.leaf_count = 0;
  EXPECT_FALSE(BlockMerkleTree::verify(tree.root(), leaves[0], proof));
}

// ---------------------------------------------------------------------------
// Sparse Merkle tree

TEST(Smt, EmptyTreeHasDefaultRoot) {
  SparseMerkleTree a, b;
  EXPECT_EQ(a.root(), b.root());
  EXPECT_EQ(a.size(), 0u);
}

TEST(Smt, InsertChangesRoot) {
  SparseMerkleTree t;
  Digest before = t.root();
  t.update(as_span("key"), leaf_hash(as_span("value")));
  EXPECT_NE(t.root(), before);
  EXPECT_EQ(t.size(), 1u);
}

TEST(Smt, DeleteRestoresDefaultRoot) {
  SparseMerkleTree t;
  Digest empty_root = t.root();
  t.update(as_span("key"), leaf_hash(as_span("value")));
  t.update(as_span("key"), Digest{});
  EXPECT_EQ(t.root(), empty_root);
  EXPECT_EQ(t.size(), 0u);
}

TEST(Smt, OrderIndependentRoot) {
  SparseMerkleTree a, b;
  a.update(as_span("k1"), leaf_hash(as_span("v1")));
  a.update(as_span("k2"), leaf_hash(as_span("v2")));
  b.update(as_span("k2"), leaf_hash(as_span("v2")));
  b.update(as_span("k1"), leaf_hash(as_span("v1")));
  EXPECT_EQ(a.root(), b.root());
}

TEST(Smt, MembershipProofs) {
  SparseMerkleTree t;
  Digest leaf = leaf_hash(as_span("value"));
  t.update(as_span("key"), leaf);
  t.update(as_span("other"), leaf_hash(as_span("other-value")));
  SmtProof proof = t.prove(as_span("key"));
  EXPECT_TRUE(SparseMerkleTree::verify(t.root(), as_span("key"), leaf, proof));
  // Wrong value fails.
  EXPECT_FALSE(SparseMerkleTree::verify(t.root(), as_span("key"),
                                        leaf_hash(as_span("forged")), proof));
}

TEST(Smt, NonMembershipProof) {
  SparseMerkleTree t;
  t.update(as_span("exists"), leaf_hash(as_span("v")));
  SmtProof proof = t.prove(as_span("missing"));
  EXPECT_TRUE(
      SparseMerkleTree::verify(t.root(), as_span("missing"), std::nullopt, proof));
  // Claiming absence of a present key fails.
  SmtProof present = t.prove(as_span("exists"));
  EXPECT_FALSE(
      SparseMerkleTree::verify(t.root(), as_span("exists"), std::nullopt, present));
}

TEST(Smt, ProofForWrongKeyRejected) {
  SparseMerkleTree t;
  Digest leaf = leaf_hash(as_span("v"));
  t.update(as_span("a"), leaf);
  SmtProof proof = t.prove(as_span("a"));
  EXPECT_FALSE(SparseMerkleTree::verify(t.root(), as_span("b"), leaf, proof));
}

TEST(Smt, ProofEncodingRoundTrip) {
  SparseMerkleTree t;
  for (int i = 0; i < 20; ++i) {
    t.update(as_span(to_bytes("key-" + std::to_string(i))),
             leaf_hash(as_span(to_bytes("val-" + std::to_string(i)))));
  }
  SmtProof proof = t.prove(as_span("key-7"));
  auto decoded = SmtProof::decode(as_span(proof.encode()));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(SparseMerkleTree::verify(t.root(), as_span("key-7"),
                                       leaf_hash(as_span("val-7")), *decoded));
}

TEST(Smt, PermutedUpdateOrderByteIdenticalProofs) {
  // Regression for the lint:determinism conversion of the tree's node and
  // leaf containers to std::map (merkle_tree.h): the root is the replicas'
  // state digest, so neither it nor any encoded proof may depend on the
  // order state arrived in — or on a hash seed the old unordered containers
  // would have smuggled in.
  std::vector<std::pair<std::string, Digest>> updates;
  for (int i = 0; i < 64; ++i) {
    updates.emplace_back("key-" + std::to_string(i),
                         leaf_hash(as_span(to_bytes("val-" + std::to_string(i)))));
  }
  auto build = [&](uint64_t shuffle_seed) {
    auto shuffled = updates;
    Rng rng(shuffle_seed);
    for (size_t i = shuffled.size(); i > 1; --i) {
      std::swap(shuffled[i - 1], shuffled[rng.below(i)]);
    }
    SparseMerkleTree t;
    for (const auto& [k, leaf] : shuffled) t.update(as_span(k), leaf);
    return t;
  };
  SparseMerkleTree a = build(1);
  SparseMerkleTree b = build(2);
  SparseMerkleTree c = build(3);
  EXPECT_EQ(a.root(), b.root());
  EXPECT_EQ(a.root(), c.root());
  for (const auto& [k, leaf] : updates) {
    Bytes proof_a = a.prove(as_span(k)).encode();
    EXPECT_EQ(proof_a, b.prove(as_span(k)).encode()) << k;
    EXPECT_EQ(proof_a, c.prove(as_span(k)).encode()) << k;
  }
}

TEST(Smt, RandomizedAgainstReference) {
  SparseMerkleTree t;
  std::map<std::string, Digest> reference;
  Rng rng(55);
  for (int step = 0; step < 500; ++step) {
    std::string key = "k" + std::to_string(rng.below(50));
    if (rng.chance(0.25) && !reference.empty()) {
      t.update(as_span(key), Digest{});
      reference.erase(key);
    } else {
      Digest leaf = leaf_hash(as_span(rng.bytes(8)));
      t.update(as_span(key), leaf);
      reference[key] = leaf;
    }
  }
  EXPECT_EQ(t.size(), reference.size());
  for (const auto& [key, leaf] : reference) {
    auto got = t.leaf(as_span(key));
    ASSERT_TRUE(got.has_value()) << key;
    EXPECT_EQ(*got, leaf);
    EXPECT_TRUE(SparseMerkleTree::verify(t.root(), as_span(key), leaf,
                                         t.prove(as_span(key))));
  }
  // Rebuild from scratch in sorted order: same root.
  SparseMerkleTree rebuilt;
  for (const auto& [key, leaf] : reference) rebuilt.update(as_span(key), leaf);
  EXPECT_EQ(rebuilt.root(), t.root());
}

// The dense layout the compact tree replaced, kept as its oracle: every
// non-default node of all 64 levels is its own entry of one ordered map.
class DenseSmt {
 public:
  DenseSmt() {
    d_[0] = crypto::sha256("sbft.smt.empty-leaf");
    for (int i = 1; i <= 64; ++i) d_[i] = node_hash(d_[i - 1], d_[i - 1]);
  }

  void update(ByteSpan key, const Digest& leaf) {
    uint64_t index = SparseMerkleTree::key_path(key);
    if (digest_equal(leaf, Digest{})) {
      nodes_.erase({0, index});
    } else {
      nodes_[{0, index}] = leaf;
    }
    for (int level = 1; level <= 64; ++level) {
      uint64_t child = index & ~1ull;
      index >>= 1;
      Digest h = node_hash(node(level - 1, child), node(level - 1, child | 1));
      if (digest_equal(h, d_[level])) {
        nodes_.erase({level, index});
      } else {
        nodes_[{level, index}] = h;
      }
    }
  }
  Digest root() const { return node(64, 0); }
  std::optional<Digest> leaf(ByteSpan key) const {
    auto it = nodes_.find({0, SparseMerkleTree::key_path(key)});
    if (it == nodes_.end()) return std::nullopt;
    return it->second;
  }
  size_t size() const {
    return static_cast<size_t>(std::count_if(
        nodes_.begin(), nodes_.end(), [](const auto& e) { return e.first.first == 0; }));
  }
  SmtProof prove(ByteSpan key) const {
    SmtProof proof;
    proof.path = SparseMerkleTree::key_path(key);
    for (int level = 0; level < 64; ++level) {
      Digest sib = node(level, (proof.path >> level) ^ 1);
      if (digest_equal(sib, d_[level])) continue;
      proof.nondefault_mask |= 1ull << level;
      proof.siblings.push_back(sib);
    }
    return proof;
  }

 private:
  Digest node(int level, uint64_t index) const {
    auto it = nodes_.find({level, index});
    return it == nodes_.end() ? d_[level] : it->second;
  }

  std::array<Digest, 65> d_;
  std::map<std::pair<int, uint64_t>, Digest> nodes_;
};

/// Drives the compact tree and the dense oracle with one seeded stream of
/// puts, overwrites and erases over `key_space` keys, then erases them all.
void check_against_dense(uint64_t seed, uint64_t key_space, int steps) {
  SparseMerkleTree tree;
  DenseSmt dense;
  Rng rng(seed);
  auto key = [](uint64_t k) { return "k" + std::to_string(k); };
  auto compare_reads = [&](int step) {
    ASSERT_EQ(tree.size(), dense.size()) << "step " << step;
    for (int probe = 0; probe < 8; ++probe) {
      // Keys beyond the key space are never written: absent-key proofs.
      std::string k = key(rng.below(key_space + key_space / 4 + 2));
      ASSERT_EQ(tree.leaf(as_span(k)), dense.leaf(as_span(k))) << k;
      ASSERT_EQ(tree.prove(as_span(k)).encode(), dense.prove(as_span(k)).encode())
          << k << " at step " << step;
    }
  };
  for (int step = 0; step < steps; ++step) {
    std::string k = key(rng.below(key_space));
    Digest leaf{};  // zero: erase (present or absent)
    if (!rng.chance(0.3)) leaf = leaf_hash(as_span(rng.bytes(8)));
    Digest before = tree.root();
    bool absent = !tree.leaf(as_span(k)).has_value();
    tree.update(as_span(k), leaf);
    dense.update(as_span(k), leaf);
    ASSERT_EQ(tree.root(), dense.root()) << "step " << step;
    if (absent && digest_equal(leaf, Digest{})) {
      ASSERT_EQ(tree.root(), before) << "erasing absent " << k;
    }
    if (step % 97 == 0) {
      compare_reads(step);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
  compare_reads(steps);
  if (::testing::Test::HasFatalFailure()) return;
  for (uint64_t k = 0; k < key_space; ++k) {
    tree.update(as_span(key(k)), Digest{});
    dense.update(as_span(key(k)), Digest{});
    ASSERT_EQ(tree.root(), dense.root()) << "erasing " << key(k);
  }
  EXPECT_EQ(tree.size(), 0u);
  EXPECT_EQ(tree.root(), SparseMerkleTree().root());
}

TEST(Smt, MatchesDenseReference) {
  ASSERT_NO_FATAL_FAILURE(check_against_dense(101, 40, 3000));
  ASSERT_NO_FATAL_FAILURE(check_against_dense(202, 3000, 9000));
}

TEST(Smt, MatchesDenseReferenceAcrossNodeBlocks) {
  // k keys take 2k - 1 nodes, so past kBlockNodes keys the tree spans more
  // than two node blocks. Erasing two keys in three frees nodes in every
  // block, and the re-inserts take them back from the free list; the roots
  // and proofs stay the dense oracle's throughout.
  constexpr uint64_t kKeys = SparseMerkleTree::kBlockNodes + 200;
  SparseMerkleTree tree;
  DenseSmt dense;
  auto key = [](uint64_t k) { return "block-key-" + std::to_string(k); };
  auto put = [&](uint64_t k, const std::string& tag) {
    Digest leaf = leaf_hash(as_span(to_bytes(tag + std::to_string(k))));
    tree.update(as_span(key(k)), leaf);
    dense.update(as_span(key(k)), leaf);
  };
  auto erase = [&](uint64_t k) {
    tree.update(as_span(key(k)), Digest{});
    dense.update(as_span(key(k)), Digest{});
  };
  auto compare = [&](const char* phase) {
    ASSERT_EQ(tree.root(), dense.root()) << phase;
    ASSERT_EQ(tree.size(), dense.size()) << phase;
    for (uint64_t k = 0; k < kKeys + 8; k += 37) {
      ASSERT_EQ(tree.leaf(as_span(key(k))), dense.leaf(as_span(key(k))))
          << phase << " " << key(k);
      ASSERT_EQ(tree.prove(as_span(key(k))).encode(),
                dense.prove(as_span(key(k))).encode())
          << phase << " " << key(k);
    }
  };

  for (uint64_t k = 0; k < kKeys; ++k) put(k, "v1-");
  ASSERT_GT(2 * tree.size() - 1, 2 * uint64_t{SparseMerkleTree::kBlockNodes});
  ASSERT_NO_FATAL_FAILURE(compare("inserted"));
  for (uint64_t k = 0; k < kKeys; ++k) {
    if (k % 3 != 0) erase(k);
  }
  ASSERT_NO_FATAL_FAILURE(compare("erased"));
  for (uint64_t k = 0; k < kKeys; ++k) {
    if (k % 3 != 0) put(k, "v2-");
  }
  ASSERT_NO_FATAL_FAILURE(compare("re-inserted"));
  for (uint64_t k = 0; k < kKeys; ++k) erase(k);
  EXPECT_EQ(tree.size(), 0u);
  EXPECT_EQ(tree.root(), SparseMerkleTree().root());
}

TEST(Smt, RootAndProofsArePinned) {
  // Recorded from the dense per-level layout: the compact tree must keep
  // every state digest and proof byte-identical.
  SparseMerkleTree t;
  for (int i = 0; i < 1000; ++i) {
    t.update(as_span(to_bytes("key-" + std::to_string(i))),
             leaf_hash(as_span(to_bytes("val-" + std::to_string(i)))));
  }
  EXPECT_EQ(to_hex(as_span(t.root())),
            "6b6de908d237a78592af6ff90c62abe2d896418a7cb3cf7db62c95a0e97fefc8");
  EXPECT_EQ(to_hex(as_span(crypto::sha256(as_span(t.prove(as_span("key-7")).encode())))),
            "9c9302329595d2f721ce825bf61392f5efb07e8210b636f280c05e364f7a7dc7");
  EXPECT_EQ(
      to_hex(as_span(crypto::sha256(as_span(t.prove(as_span("key-1000")).encode())))),
      "3058ff6c7417dfc0d1fef8b23ab7785fe314874c50e9eabdf8c9927c8a1c9b3a");
}

TEST(Smt, HeapStaysLinearInKeys) {
  // Two nodes per key: well under 1 KiB each, where the dense layout spent
  // ~4 KB on the ~53 map entries of a key's path.
  constexpr int kKeys = 20000;
  std::vector<std::string> keys;
  for (int i = 0; i < kKeys; ++i) keys.push_back("key-" + std::to_string(i));
  int64_t before = g_live_heap.load();
  SparseMerkleTree t;
  for (const std::string& k : keys) t.update(as_span(k), leaf_hash(as_span(k)));
  int64_t grown = g_live_heap.load() - before;
  EXPECT_EQ(t.size(), static_cast<size_t>(kKeys));
  EXPECT_LE(grown, int64_t{kKeys} * 1024) << grown / kKeys << " B per key";
}

}  // namespace
}  // namespace sbft::merkle

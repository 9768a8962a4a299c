#include "merkle/merkle_tree.h"

#include <bit>

#include "common/check.h"
#include "common/serde.h"
#include "crypto/sha256.h"

namespace sbft::merkle {

using crypto::Sha256;

Digest leaf_hash(ByteSpan data) {
  Sha256 h;
  uint8_t tag = 0x00;
  h.update(ByteSpan{&tag, 1});
  h.update(data);
  return h.finish();
}

Digest node_hash(const Digest& left, const Digest& right) {
  Sha256 h;
  uint8_t tag = 0x01;
  h.update(ByteSpan{&tag, 1});
  h.update(as_span(left));
  h.update(as_span(right));
  return h.finish();
}

// ---------------------------------------------------------------------------
// BlockMerkleTree

BlockMerkleTree::BlockMerkleTree(std::vector<Digest> leaves) {
  SBFT_CHECK(!leaves.empty());
  levels_.push_back(std::move(leaves));
  while (levels_.back().size() > 1) {
    const auto& prev = levels_.back();
    std::vector<Digest> next;
    next.reserve((prev.size() + 1) / 2);
    for (size_t i = 0; i + 1 < prev.size(); i += 2)
      next.push_back(node_hash(prev[i], prev[i + 1]));
    if (prev.size() % 2 == 1) next.push_back(prev.back());  // promote odd node
    levels_.push_back(std::move(next));
  }
}

BlockProof BlockMerkleTree::prove(uint64_t index) const {
  SBFT_CHECK(index < leaf_count());
  BlockProof proof;
  proof.index = index;
  proof.leaf_count = leaf_count();
  uint64_t i = index;
  for (size_t level = 0; level + 1 < levels_.size(); ++level) {
    const auto& nodes = levels_[level];
    uint64_t sibling = (i % 2 == 0) ? i + 1 : i - 1;
    if (sibling < nodes.size()) {
      proof.path.push_back(nodes[sibling]);
    }
    // When i is a promoted odd node (no sibling) nothing is appended; the
    // verifier reproduces the same promotion rule from leaf_count.
    i /= 2;
  }
  return proof;
}

bool BlockMerkleTree::verify(const Digest& root, const Digest& leaf,
                             const BlockProof& proof) {
  if (proof.leaf_count == 0 || proof.index >= proof.leaf_count) return false;
  Digest cur = leaf;
  uint64_t i = proof.index;
  uint64_t width = proof.leaf_count;
  size_t used = 0;
  while (width > 1) {
    uint64_t sibling = (i % 2 == 0) ? i + 1 : i - 1;
    if (sibling < width) {
      if (used >= proof.path.size()) return false;
      const Digest& sib = proof.path[used++];
      cur = (i % 2 == 0) ? node_hash(cur, sib) : node_hash(sib, cur);
    }
    i /= 2;
    width = (width + 1) / 2;
  }
  return used == proof.path.size() && digest_equal(cur, root);
}

Bytes BlockProof::encode() const {
  Writer w;
  w.u64(index);
  w.u64(leaf_count);
  w.u32(static_cast<uint32_t>(path.size()));
  for (const Digest& d : path) w.digest(d);
  return std::move(w).take();
}

std::optional<BlockProof> BlockProof::decode(ByteSpan data) {
  Reader r(data);
  BlockProof p;
  p.index = r.u64();
  p.leaf_count = r.u64();
  uint32_t n = r.u32();
  if (n > 64) return std::nullopt;
  for (uint32_t i = 0; i < n; ++i) p.path.push_back(r.digest());
  if (!r.at_end()) return std::nullopt;
  return p;
}

// ---------------------------------------------------------------------------
// SparseMerkleTree

const std::vector<Digest>& SparseMerkleTree::default_hashes() {
  static const std::vector<Digest> defaults = [] {
    std::vector<Digest> d(kDepth + 1);
    d[0] = crypto::sha256("sbft.smt.empty-leaf");
    for (int i = 1; i <= kDepth; ++i) d[i] = node_hash(d[i - 1], d[i - 1]);
    return d;
  }();
  return defaults;
}

uint64_t SparseMerkleTree::key_path(ByteSpan key) {
  Digest d = crypto::sha256(key);
  uint64_t path = 0;
  for (int i = 0; i < 8; ++i) path = (path << 8) | d[static_cast<size_t>(i)];
  return path;
}

namespace {

/// Which child of a level-(level + 1) node `path` lies under.
unsigned side(uint64_t path, int level) {
  return static_cast<unsigned>((path >> level) & 1);
}

/// The level of the lowest dense node above two different paths.
int split_level(uint64_t a, uint64_t b) { return 64 - std::countl_zero(a ^ b); }

}  // namespace

Digest SparseMerkleTree::climb(Digest h, int from, int to, uint64_t path) {
  const auto& d = default_hashes();
  for (int level = from; level < to; ++level) {
    const Digest& sib = d[static_cast<size_t>(level)];
    h = side(path, level) ? node_hash(sib, h) : node_hash(h, sib);
  }
  return h;
}

int SparseMerkleTree::top_level(const uint32_t* stack, size_t depth) const {
  return depth == 0 ? kDepth : node(stack[depth - 1]).level - 1;
}

uint32_t SparseMerkleTree::descend(uint64_t path, uint32_t* stack,
                                   size_t& depth) const {
  uint32_t cur = root_;
  while (cur != kNil) {
    const Node& n = node(cur);
    // A level-64 branch covers every path (and `path >> 64` is undefined).
    if (n.level == 0 ||
        (n.level < kDepth && (n.path >> n.level) != (path >> n.level))) {
      break;
    }
    stack[depth++] = cur;
    cur = n.child[side(path, n.level - 1)];
  }
  return cur;
}

uint32_t SparseMerkleTree::alloc(const Node& n) {
  uint32_t i = free_;
  if (i != kNil) {
    free_ = node(i).child[0];
  } else {
    SBFT_CHECK(used_ < kNil);
    if (used_ % kBlockNodes == 0) {
      nodes_.push_back(std::make_unique<Node[]>(kBlockNodes));
    }
    i = used_++;
  }
  node(i) = n;
  return i;
}

void SparseMerkleTree::release(uint32_t i) {
  node(i).child[0] = free_;
  free_ = i;
}

void SparseMerkleTree::reclimb(const uint32_t* stack, size_t depth) {
  for (; depth > 0; --depth) {
    Node& b = node(stack[depth - 1]);
    b.hash = node_hash(node(b.child[0]).top, node(b.child[1]).top);
    b.top = climb(b.hash, b.level, top_level(stack, depth - 1), b.path);
  }
}

void SparseMerkleTree::update(ByteSpan key, const Digest& leaf) {
  const uint64_t path = key_path(key);
  uint32_t stack[kDepth];
  size_t depth = 0;
  const uint32_t cur = descend(path, stack, depth);
  // descend() stops at a leaf or at a subtree `path` is not under, so only
  // the key's own leaf can carry its path.
  const bool present = cur != kNil && node(cur).path == path;
  // The link from the cursor's parent (or the root) to the cursor.
  auto link = [&](size_t d) -> uint32_t& {
    if (d == 0) return root_;
    Node& parent = node(stack[d - 1]);
    return parent.child[side(path, parent.level - 1)];
  };

  if (digest_equal(leaf, Digest{})) {
    if (!present) return;  // erasing an absent key changes nothing
    --leaf_count_;
    release(cur);
    if (depth == 0) {
      root_ = kNil;
      return;
    }
    // The parent branch goes; its other child moves up to the grandparent.
    const uint32_t parent = stack[--depth];
    const uint32_t survivor =
        node(parent).child[side(path, node(parent).level - 1) ^ 1];
    release(parent);
    link(depth) = survivor;
    Node& s = node(survivor);
    s.top = climb(s.hash, s.level, top_level(stack, depth), s.path);
  } else if (present) {
    Node& n = node(cur);
    n.hash = leaf;
    n.top = climb(leaf, 0, top_level(stack, depth), path);
  } else {
    // A new key. In an empty tree its leaf is the root. Otherwise its path
    // leaves the tree inside the edge above `cur`, and a new branch joins
    // the new leaf and `cur`'s subtree where the two paths part.
    ++leaf_count_;
    Node fresh;
    fresh.hash = leaf;
    fresh.path = path;
    if (cur == kNil) {
      fresh.top = climb(leaf, 0, kDepth, path);
      root_ = alloc(fresh);
      return;
    }
    const int level = split_level(path, node(cur).path);
    fresh.top = climb(leaf, 0, level - 1, path);
    Node branch;
    branch.level = level;
    branch.path = path;
    branch.child[side(path, level - 1)] = alloc(fresh);
    branch.child[side(path, level - 1) ^ 1] = cur;
    Node& old = node(cur);
    old.top = climb(old.hash, old.level, level - 1, old.path);
    branch.hash = node_hash(node(branch.child[0]).top,
                            node(branch.child[1]).top);
    branch.top = climb(branch.hash, level, top_level(stack, depth), path);
    const uint32_t b = alloc(branch);
    link(depth) = b;
  }
  reclimb(stack, depth);
}

std::optional<Digest> SparseMerkleTree::leaf(ByteSpan key) const {
  const uint64_t path = key_path(key);
  uint32_t stack[kDepth];
  size_t depth = 0;
  const uint32_t cur = descend(path, stack, depth);
  if (cur == kNil || node(cur).path != path) return std::nullopt;
  return node(cur).hash;
}

SmtProof SparseMerkleTree::prove(ByteSpan key) const {
  SmtProof proof;
  proof.path = key_path(key);
  uint32_t stack[kDepth];
  size_t depth = 0;
  const uint32_t cur = descend(proof.path, stack, depth);
  // Siblings arrive leaf level first; a level with no entry is default.
  auto add = [&](int level, const Digest& sib) {
    if (digest_equal(sib, default_hashes()[static_cast<size_t>(level)])) return;
    proof.nondefault_mask |= 1ull << level;
    proof.siblings.push_back(sib);
  };
  if (cur != kNil && node(cur).path != proof.path) {
    // An absent key whose path leaves the tree inside the edge above `cur`:
    // below the last branch its one non-default sibling is `cur`'s subtree,
    // climbed to the level just under where the two paths part.
    const Node& n = node(cur);
    const int level = split_level(proof.path, n.path) - 1;
    add(level, climb(n.hash, n.level, level, n.path));
  }
  for (; depth > 0; --depth) {
    const Node& b = node(stack[depth - 1]);
    add(b.level - 1, node(b.child[side(proof.path, b.level - 1) ^ 1]).top);
  }
  return proof;
}

bool SparseMerkleTree::verify(const Digest& root, ByteSpan key,
                              const std::optional<Digest>& leaf,
                              const SmtProof& proof) {
  if (proof.path != key_path(key)) return false;
  Digest cur = leaf.value_or(default_hashes()[0]);
  uint64_t index = proof.path;
  size_t used = 0;
  for (int level = 0; level < kDepth; ++level) {
    Digest sib;
    if (proof.nondefault_mask & (1ull << level)) {
      if (used >= proof.siblings.size()) return false;
      sib = proof.siblings[used++];
    } else {
      sib = default_hashes()[static_cast<size_t>(level)];
    }
    cur = (index & 1) ? node_hash(sib, cur) : node_hash(cur, sib);
    index >>= 1;
  }
  return used == proof.siblings.size() && digest_equal(cur, root);
}

Bytes SmtProof::encode() const {
  Writer w;
  w.u64(path);
  w.u64(nondefault_mask);
  w.u32(static_cast<uint32_t>(siblings.size()));
  for (const Digest& d : siblings) w.digest(d);
  return std::move(w).take();
}

std::optional<SmtProof> SmtProof::decode(ByteSpan data) {
  Reader r(data);
  SmtProof p;
  p.path = r.u64();
  p.nondefault_mask = r.u64();
  uint32_t n = r.u32();
  if (n > SparseMerkleTree::kDepth) return std::nullopt;
  for (uint32_t i = 0; i < n; ++i) p.siblings.push_back(r.digest());
  if (!r.at_end()) return std::nullopt;
  return p;
}

}  // namespace sbft::merkle

#include "kv/kv_service.h"

#include <algorithm>
#include <cstring>

#include "common/serde.h"

namespace sbft::kv {

namespace {

// Chunk-stable snapshot format (docs/state_transfer.md "chunk-stable
// encoding"): key-ordered sections, each padded to a multiple of the chunk
// hint so a mutation perturbs only its own section's pages.
constexpr char kPagedMagic[8] = {'S', 'B', 'F', 'T', 'K', 'V', 'P', '2'};
constexpr uint32_t kMaxSectionFanout = 4096;
constexpr uint32_t kMaxPage = 1u << 26;

}  // namespace

Bytes encode_put(ByteSpan key, ByteSpan value) {
  Writer w;
  w.u8(static_cast<uint8_t>(OpType::kPut));
  w.bytes(key);
  w.bytes(value);
  return std::move(w).take();
}

Bytes encode_get(ByteSpan key) {
  Writer w;
  w.u8(static_cast<uint8_t>(OpType::kGet));
  w.bytes(key);
  return std::move(w).take();
}

Bytes encode_delete(ByteSpan key) {
  Writer w;
  w.u8(static_cast<uint8_t>(OpType::kDelete));
  w.bytes(key);
  return std::move(w).take();
}

Bytes encode_batch(const std::vector<Bytes>& ops) {
  Writer w;
  w.u8(static_cast<uint8_t>(OpType::kBatch));
  w.u32(static_cast<uint32_t>(ops.size()));
  for (const Bytes& op : ops) w.bytes(as_span(op));
  return std::move(w).take();
}

std::optional<DecodedOp> decode_op(ByteSpan op) {
  Reader r(op);
  DecodedOp out;
  uint8_t tag = r.u8();
  if (tag < 1 || tag > 3) return std::nullopt;
  out.type = static_cast<OpType>(tag);
  out.key = r.bytes();
  if (out.type == OpType::kPut) out.value = r.bytes();
  if (!r.at_end()) return std::nullopt;
  return out;
}

namespace {

constexpr uint32_t kMaxBatchOps = 1'000'000;

/// The sub-ops of a kBatch op, or nullopt unless its count fits, every
/// length is in range, every sub-op decodes to a simple op (decode_op
/// rejects a nested batch's tag) and no byte trails.
std::optional<std::vector<DecodedOp>> decode_batch(ByteSpan op) {
  Reader r(op);
  r.u8();  // the kBatch tag
  uint32_t count = r.u32();
  // Each sub-op takes at least its u32 length, so a count the remaining
  // bytes cannot hold is rejected before anything is reserved for it.
  if (!r.ok() || count > kMaxBatchOps || count > r.remaining() / 4) {
    return std::nullopt;
  }
  std::vector<DecodedOp> ops;
  ops.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    auto sub = decode_op(r.span());
    if (!sub) return std::nullopt;
    ops.push_back(std::move(*sub));
  }
  if (!r.at_end()) return std::nullopt;
  return ops;
}

}  // namespace

Digest KvService::leaf_for(ByteSpan key, ByteSpan value) {
  Writer w;
  w.bytes(key);
  w.bytes(value);
  return merkle::leaf_hash(as_span(w.data()));
}

void KvService::put(ByteSpan key, ByteSpan value) {
  data_[to_bytes(key)] = to_bytes(value);
  tree_.update(key, leaf_for(key, value));
}

void KvService::erase(ByteSpan key) {
  data_.erase(to_bytes(key));
  tree_.update(key, Digest{});
}

std::optional<Bytes> KvService::get(ByteSpan key) const {
  auto it = data_.find(to_bytes(key));
  if (it == data_.end()) return std::nullopt;
  return it->second;
}

Bytes KvService::execute(ByteSpan op) {
  last_op_count_ = 1;
  if (!op.empty() && op[0] == static_cast<uint8_t>(OpType::kBatch)) {
    // The whole batch decodes before any sub-op runs: a malformed one
    // changes no state and is charged as one op.
    auto ops = decode_batch(op);
    if (!ops) return to_bytes("ERR:malformed");
    Bytes last;
    for (const DecodedOp& sub : *ops) last = apply(sub);
    last_op_count_ = std::max<uint64_t>(1, ops->size());
    return last;
  }
  auto decoded = decode_op(op);
  if (!decoded) return to_bytes("ERR:malformed");
  return apply(*decoded);
}

Bytes KvService::apply(const DecodedOp& op) {
  switch (op.type) {
    case OpType::kPut: {
      put(as_span(op.key), as_span(op.value));
      return to_bytes("OK");
    }
    case OpType::kGet: {
      auto v = get(as_span(op.key));
      return v ? *v : Bytes{};
    }
    case OpType::kDelete: {
      erase(as_span(op.key));
      return to_bytes("OK");
    }
    case OpType::kBatch:
      // Unreachable: decode_op rejects the batch tag, but the case keeps
      // -Wswitch exhaustive.
      break;
  }
  return to_bytes("ERR:unknown");
}

Bytes KvService::query(ByteSpan q) const {
  auto decoded = decode_op(q);
  if (!decoded || decoded->type != OpType::kGet) return to_bytes("ERR:malformed");
  auto v = get(as_span(decoded->key));
  return v ? *v : Bytes{};
}

Bytes KvService::snapshot() const {
  uint32_t page = snapshot_page_ > 1 ? snapshot_page_ : 1;
  // Padding only pays off once the map spans several pages; below that emit
  // the compact unpadded layout (same sectioned format, page = 1). The gate
  // is a pure function of the state, so every replica picks the same layout.
  uint64_t total_payload = 0;
  for (const auto& [k, v] : data_) total_payload += 8 + k.size() + v.size();
  if (total_payload < 4ull * page) page = 1;
  // Section fanout G: a key closes its section when fnv(key) hits the G-mask,
  // so boundaries are a pure function of the key set — an insertion or
  // deletion reshapes only its own section, never the layout after it. G is
  // sized so the expected section payload is a couple of pad units, keeping
  // padding overhead small; the byte cap below only bounds pathological runs
  // without a boundary key (it re-synchronizes at the next boundary key).
  const uint64_t target = page > 1 ? 2ull * page : 8192;
  const uint64_t avg =
      data_.empty() ? 1
                    : std::max<uint64_t>(1, total_payload / data_.size());
  uint32_t fanout = 1;
  while (fanout < kMaxSectionFanout && fanout * avg < target) fanout <<= 1;

  // First pass: cut the sections and size the snapshot, so the second pass
  // writes every entry once, in place, into a buffer of exactly that size.
  auto padded = [page](size_t n) {
    return page > 1 ? (n + page - 1) / page * page : n;
  };
  constexpr size_t kHeader = sizeof(kPagedMagic) + 4 + 8;
  size_t size = padded(kHeader);  // sections start page-aligned
  std::vector<uint32_t> counts;   // entries per section
  uint32_t count = 0;
  uint64_t section_payload = 0;
  for (const auto& [k, v] : data_) {
    ++count;
    section_payload += 8 + k.size() + v.size();
    if ((fnv1a(as_span(k)) & (fanout - 1)) == 0 ||
        section_payload >= 8 * target) {
      counts.push_back(count);
      size = padded(size + 4 + section_payload);
      count = 0;
      section_payload = 0;
    }
  }
  if (count > 0) {
    counts.push_back(count);
    size = padded(size + 4 + section_payload);
  }

  Writer w(size);
  w.raw(ByteSpan{reinterpret_cast<const uint8_t*>(kPagedMagic),
                 sizeof(kPagedMagic)});
  w.u32(page);
  w.u64(data_.size());
  w.zeros(padded(kHeader) - kHeader);
  auto it = data_.begin();
  for (uint32_t n : counts) {
    w.u32(n);
    for (uint32_t i = 0; i < n; ++i, ++it) {
      w.bytes(as_span(it->first));
      w.bytes(as_span(it->second));
    }
    w.zeros(padded(w.size()) - w.size());
  }
  return std::move(w).take();
}

bool KvService::restore(ByteSpan snapshot) {
  // Only the paged layout snapshot() emits decodes: anything without its
  // magic is rejected, never guessed at.
  if (snapshot.size() < sizeof(kPagedMagic) ||
      std::memcmp(snapshot.data(), kPagedMagic, sizeof(kPagedMagic)) != 0) {
    return false;
  }
  Reader r(snapshot);
  r.skip(sizeof(kPagedMagic));
  uint32_t page = r.u32();
  uint64_t entry_count = r.u64();
  if (!r.ok() || page > kMaxPage) return false;
  auto skip_pad = [&] {
    if (page > 1 && r.pos() % page != 0) r.skip(page - r.pos() % page);
  };
  skip_pad();
  std::map<Bytes, Bytes> data;
  uint64_t parsed = 0;
  while (parsed < entry_count && r.ok()) {
    uint32_t n = r.u32();
    if (n == 0 || n > entry_count - parsed) return false;
    for (uint32_t i = 0; i < n && r.ok(); ++i) {
      Bytes k = r.bytes();
      Bytes v = r.bytes();
      data[std::move(k)] = std::move(v);
    }
    parsed += n;
    skip_pad();
  }
  if (!r.at_end() || parsed != entry_count || data.size() != entry_count) {
    return false;
  }
  data_.clear();
  tree_ = merkle::SparseMerkleTree();
  for (const auto& [k, v] : data) put(as_span(k), as_span(v));
  return true;
}

std::unique_ptr<IService> KvService::clone_empty() const {
  return std::make_unique<KvService>();
}

bool KvService::verify(const Digest& root, ByteSpan key,
                       const std::optional<Bytes>& value,
                       const merkle::SmtProof& proof) {
  std::optional<Digest> leaf;
  if (value) leaf = leaf_for(key, as_span(*value));
  return merkle::SparseMerkleTree::verify(root, key, leaf, proof);
}

}  // namespace sbft::kv

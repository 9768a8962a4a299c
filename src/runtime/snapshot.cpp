#include "runtime/snapshot.h"

#include <cstring>

#include "common/serde.h"

namespace sbft::runtime {

namespace {
constexpr char kMagic[8] = {'S', 'B', 'F', 'T', 'S', 'N', 'A', 'P'};
constexpr uint16_t kVersion = 4;  // reply-cache, membership and marker tail
constexpr uint32_t kMaxAlign = 1u << 26;
// Magic, version, align and the four section lengths.
constexpr size_t kHeaderBytes = sizeof(kMagic) + 2 + 4 + 4 * 8;

size_t align_up(size_t n, uint32_t align) {
  return align > 1 ? (n + align - 1) / align * align : n;
}
}  // namespace

Bytes encode_checkpoint_snapshot(ByteSpan service_state, const ReplyCache& replies,
                                 uint32_t align, ByteSpan membership,
                                 ByteSpan marker) {
  if (align == 0) align = 1;
  // Alignment buys chunk-stable deltas, at up to ~2 chunks of padding. For a
  // state smaller than a few chunks that padding dominates (and a delta could
  // never save much anyway): emit the compact form. The gate is a pure
  // function of the state, so every replica picks the same layout.
  if (service_state.size() < 4ull * align) align = 1;
  Bytes reply_bytes = replies.encode();
  // One buffer of exactly the envelope's size: it is held for as long as the
  // checkpoint is (CheckpointManager, WAL), so it must carry no spare
  // capacity.
  const size_t header = align_up(kHeaderBytes, align);
  const size_t service_end = header + align_up(service_state.size(), align);
  Writer w(service_end + reply_bytes.size() + membership.size() + marker.size());
  w.raw(ByteSpan{reinterpret_cast<const uint8_t*>(kMagic), sizeof(kMagic)});
  w.u16(kVersion);
  w.u32(align);
  w.u64(service_state.size());
  w.u64(reply_bytes.size());
  w.u64(membership.size());
  w.u64(marker.size());
  w.zeros(header - w.size());  // service starts chunk-aligned
  w.raw(service_state);
  w.zeros(service_end - w.size());  // mutable tail dirties only the end
  w.raw(as_span(reply_bytes));
  w.raw(membership);
  w.raw(marker);
  return std::move(w).take();
}

std::optional<CheckpointSnapshot> decode_checkpoint_snapshot(ByteSpan data) {
  if (data.size() < sizeof(kMagic) + 2 ||
      std::memcmp(data.data(), kMagic, sizeof(kMagic)) != 0) {
    return std::nullopt;
  }
  Reader r(ByteSpan{data.data() + sizeof(kMagic), data.size() - sizeof(kMagic)});
  if (r.u16() != kVersion) return std::nullopt;
  uint32_t align = r.u32();
  uint64_t service_len = r.u64();
  uint64_t replies_len = r.u64();
  uint64_t membership_len = r.u64();
  uint64_t marker_len = r.u64();
  if (!r.ok() || align == 0 || align > kMaxAlign) return std::nullopt;
  if (service_len > data.size() || replies_len > data.size() ||
      membership_len > data.size() || marker_len > data.size()) {
    return std::nullopt;
  }
  size_t header = align_up(kHeaderBytes, align);
  size_t service_end = header + align_up(service_len, align);
  if (service_end > data.size() ||
      data.size() != service_end + replies_len + membership_len + marker_len) {
    return std::nullopt;
  }
  auto cache = ReplyCache::decode(data.subspan(service_end, replies_len));
  if (!cache) return std::nullopt;
  CheckpointSnapshot out;
  out.service_state = to_bytes(data.subspan(header, service_len));
  out.replies = std::move(*cache);
  out.membership = to_bytes(data.subspan(service_end + replies_len, membership_len));
  out.marker =
      to_bytes(data.subspan(service_end + replies_len + membership_len, marker_len));
  return out;
}

}  // namespace sbft::runtime

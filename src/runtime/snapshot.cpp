#include "runtime/snapshot.h"

#include <cstring>

#include "common/serde.h"

namespace sbft::runtime {

namespace {
constexpr char kMagic[8] = {'S', 'B', 'F', 'T', 'S', 'N', 'A', 'P'};
constexpr uint16_t kVersionMembership = 3;  // membership tail section
constexpr uint16_t kVersionMarker = 4;      // + marker-executor tail section
constexpr uint32_t kMaxAlign = 1u << 26;

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
  Writer w;
  w.raw(ByteSpan{reinterpret_cast<const uint8_t*>(kMagic), sizeof(kMagic)});
  // An empty marker section stays on the previous version so non-shard
  // deployments emit byte-identical envelopes to the prior release.
  w.u16(marker.empty() ? kVersionMembership : kVersionMarker);
  w.u32(align);
  w.u64(service_state.size());
  w.u64(reply_bytes.size());
  w.u64(membership.size());
  if (!marker.empty()) w.u64(marker.size());
  while (w.size() % align != 0) w.u8(0);  // service starts chunk-aligned
  w.raw(service_state);
  while (w.size() % align != 0) w.u8(0);  // mutable tail dirties only the end
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
  uint16_t version = r.u16();
  if (version != kVersionMembership && version != kVersionMarker) {
    return std::nullopt;
  }
  uint32_t align = r.u32();
  uint64_t service_len = r.u64();
  uint64_t replies_len = r.u64();
  uint64_t membership_len = r.u64();
  uint64_t marker_len = version == kVersionMarker ? r.u64() : 0;
  if (!r.ok() || align == 0 || align > kMaxAlign) return std::nullopt;
  if (service_len > data.size() || replies_len > data.size() ||
      membership_len > data.size() || marker_len > data.size()) {
    return std::nullopt;
  }
  size_t len_fields = version == kVersionMarker ? 32 : 24;
  size_t header = align_up(sizeof(kMagic) + 2 + 4 + len_fields, align);
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

#include "runtime/reply_cache.h"

#include <algorithm>
#include <limits>

#include "common/serde.h"

namespace sbft::runtime {

namespace {

/// First entry whose client is not below `client` (entries are sorted).
template <typename Entries>
auto client_lower_bound(Entries& entries, ClientId client) {
  return std::lower_bound(
      entries.begin(), entries.end(), client,
      [](const ReplyCache::Entry& entry, ClientId c) { return entry.first < c; });
}

}  // namespace

const CachedReply* ReplyCache::find(ClientId client) const {
  auto it = client_lower_bound(entries_, client);
  return it != entries_.end() && it->first == client ? &it->second : nullptr;
}

bool ReplyCache::is_duplicate(ClientId client, uint64_t timestamp) const {
  const CachedReply* cached = find(client);
  return cached != nullptr && timestamp <= cached->timestamp;
}

void ReplyCache::store(ClientId client, uint64_t timestamp, SeqNum seq,
                       uint64_t index, Bytes value) {
  auto pos = client_lower_bound(entries_, client);
  if (pos == entries_.end() || pos->first != client) {
    pos = entries_.insert(pos, Entry{client, CachedReply{}});
  }
  CachedReply& entry = pos->second;
  if (timestamp < entry.timestamp) return;  // never regress the watermark
  entry.timestamp = timestamp;
  entry.seq = seq;
  entry.index = index;
  entry.value = std::move(value);
}

void ReplyCache::absorb(ReplyCache&& other) {
  for (auto& [client, entry] : other.entries_) {
    store(client, entry.timestamp, entry.seq, entry.index, std::move(entry.value));
  }
}

Bytes ReplyCache::encode() const {
  Writer w;
  w.u32(static_cast<uint32_t>(entries_.size()));
  for (const auto& [client, entry] : entries_) {
    w.u64(client);
    w.u64(entry.timestamp);
    w.u64(entry.seq);
    w.u64(entry.index);
    w.bytes(as_span(entry.value));
  }
  return std::move(w).take();
}

std::optional<ReplyCache> ReplyCache::decode(ByteSpan data) {
  Reader r(data);
  ReplyCache cache;
  uint32_t count = r.u32();
  for (uint32_t i = 0; i < count && r.ok(); ++i) {
    uint64_t client = r.u64();
    // encode() writes each client once, in ascending order. A state-transfer
    // donor sends these bytes and no state root covers them, so anything
    // else (an id that would narrow, a repeat, a step back) is refused
    // rather than silently merged.
    if (client > std::numeric_limits<ClientId>::max() ||
        (!cache.entries_.empty() && client <= cache.entries_.back().first)) {
      return std::nullopt;
    }
    CachedReply entry;
    entry.timestamp = r.u64();
    entry.seq = r.u64();
    entry.index = r.u64();
    entry.value = r.bytes();
    cache.entries_.emplace_back(static_cast<ClientId>(client), std::move(entry));
  }
  if (!r.at_end()) return std::nullopt;
  return cache;
}

}  // namespace sbft::runtime

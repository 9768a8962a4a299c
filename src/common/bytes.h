// Basic byte-oriented types and helpers shared by every module.
#pragma once

#include <array>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace sbft {

using Bytes = std::vector<uint8_t>;
using ByteSpan = std::span<const uint8_t>;

/// 32-byte digest (output of SHA-256). Value type, comparable, hashable.
using Digest = std::array<uint8_t, 32>;

inline ByteSpan as_span(const Bytes& b) { return ByteSpan{b.data(), b.size()}; }
inline ByteSpan as_span(const Digest& d) { return ByteSpan{d.data(), d.size()}; }
inline ByteSpan as_span(std::string_view s) {
  return ByteSpan{reinterpret_cast<const uint8_t*>(s.data()), s.size()};
}

inline Bytes to_bytes(std::string_view s) {
  return Bytes(s.begin(), s.end());
}

inline Bytes to_bytes(ByteSpan s) { return Bytes(s.begin(), s.end()); }

/// A list of byte strings held back to back in one buffer, with one end
/// offset per string: two allocations for the whole list instead of one per
/// string. For state held per slot (a collector's shares, a block's replies).
class ByteList {
 public:
  size_t size() const { return ends_.size(); }
  /// String i, as a view valid until the list next changes.
  ByteSpan operator[](size_t i) const {
    uint32_t begin = i == 0 ? 0 : ends_[i - 1];
    return ByteSpan{bytes_.data() + begin, ends_[i] - begin};
  }
  /// Inserts `s` as string i, before the strings from i on. `s` must not
  /// view this list.
  void insert(size_t i, ByteSpan s);
  void push_back(ByteSpan s) { insert(size(), s); }
  /// Room for `count` strings' offsets.
  void reserve(size_t count) { ends_.reserve(count); }
  /// Copies the bytes and the offsets into buffers of exactly their size.
  void shrink_to_fit();
  /// The strings back to back, and each one's end offset in that buffer.
  const Bytes& bytes() const { return bytes_; }
  const std::vector<uint32_t>& ends() const { return ends_; }

  bool operator==(const ByteList&) const = default;

 private:
  Bytes bytes_;
  std::vector<uint32_t> ends_;
};

/// Hex encoding (lowercase, no prefix).
std::string to_hex(ByteSpan data);

/// Hex decoding; throws std::invalid_argument on malformed input.
Bytes from_hex(std::string_view hex);

/// Constant-time-ish equality for fixed digests (not security critical in the
/// simulator, but keeps the idiom correct).
bool digest_equal(const Digest& a, const Digest& b);

/// 64-bit FNV-1a over bytes; used only for unordered-map hashing, never for
/// cryptographic purposes.
uint64_t fnv1a(ByteSpan data);

struct DigestHash {
  size_t operator()(const Digest& d) const noexcept {
    uint64_t v;
    std::memcpy(&v, d.data(), sizeof(v));
    return static_cast<size_t>(v);
  }
};

struct BytesHash {
  size_t operator()(const Bytes& b) const noexcept {
    return static_cast<size_t>(fnv1a(ByteSpan{b.data(), b.size()}));
  }
};

}  // namespace sbft

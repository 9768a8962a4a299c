// Minimal binary serialization: little-endian fixed-width integers plus
// length-prefixed byte strings. Used for message wire encoding (size
// accounting in the simulator) and for computing digests over canonical
// encodings.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "common/bytes.h"

namespace sbft {

class Writer {
 public:
  Writer() = default;
  explicit Writer(size_t reserve) { buf_.reserve(reserve); }

  void u8(uint8_t v) { buf_.push_back(v); }
  void u16(uint16_t v) { put_le(v, 2); }
  void u32(uint32_t v) { put_le(v, 4); }
  void u64(uint64_t v) { put_le(v, 8); }
  void i64(int64_t v) { u64(static_cast<uint64_t>(v)); }
  void boolean(bool v) { u8(v ? 1 : 0); }

  /// Raw bytes, no length prefix.
  void raw(ByteSpan data) { buf_.insert(buf_.end(), data.begin(), data.end()); }
  /// `n` zero bytes (page padding in aligned snapshot formats).
  void zeros(size_t n) { buf_.resize(buf_.size() + n); }

  /// Length-prefixed (u32) byte string.
  void bytes(ByteSpan data) {
    u32(static_cast<uint32_t>(data.size()));
    raw(data);
  }
  void str(std::string_view s) { bytes(as_span(s)); }
  void digest(const Digest& d) { raw(as_span(d)); }

  const Bytes& data() const& { return buf_; }
  Bytes take() && { return std::move(buf_); }
  size_t size() const { return buf_.size(); }

 private:
  void put_le(uint64_t v, int n) {
    for (int i = 0; i < n; ++i) buf_.push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
  Bytes buf_;
};

/// Non-throwing reader: every accessor returns a default value and latches a
/// failure flag on underflow; callers check ok() once at the end.
class Reader {
 public:
  explicit Reader(ByteSpan data) : data_(data) {}

  uint8_t u8() { return static_cast<uint8_t>(get_le(1)); }
  uint16_t u16() { return static_cast<uint16_t>(get_le(2)); }
  uint32_t u32() { return static_cast<uint32_t>(get_le(4)); }
  uint64_t u64() { return get_le(8); }
  int64_t i64() { return static_cast<int64_t>(u64()); }
  /// A one-byte flag, 0 or 1; any other byte latches failure, so a flag has
  /// one encoding.
  bool boolean() {
    uint8_t b = u8();
    if (b > 1) fail_ = true;
    return b == 1;
  }

  Bytes bytes() {
    ByteSpan s = span();
    return Bytes(s.begin(), s.end());
  }

  /// A length-prefixed byte string as a view into the reader's data (empty,
  /// with failure latched, on underflow).
  ByteSpan span() {
    uint32_t n = u32();
    if (remaining() < n) {
      fail_ = true;
      return {};
    }
    ByteSpan out = data_.subspan(pos_, n);
    pos_ += n;
    return out;
  }

  std::string str() {
    Bytes b = bytes();
    return std::string(b.begin(), b.end());
  }

  Digest digest() {
    Digest d{};
    if (remaining() < d.size()) {
      fail_ = true;
      return d;
    }
    std::memcpy(d.data(), data_.data() + pos_, d.size());
    pos_ += d.size();
    return d;
  }

  size_t remaining() const { return data_.size() - pos_; }
  size_t pos() const { return pos_; }
  /// Skips `n` bytes (page padding in aligned snapshot formats).
  void skip(size_t n) {
    if (remaining() < n) {
      fail_ = true;
      return;
    }
    pos_ += n;
  }
  /// Latches failure for a structural error the reader cannot see itself
  /// (a count the remaining bytes cannot hold, a malformed nested value).
  void fail() { fail_ = true; }
  bool ok() const { return !fail_; }
  bool at_end() const { return ok() && remaining() == 0; }

 private:
  uint64_t get_le(int n) {
    if (remaining() < static_cast<size_t>(n)) {
      fail_ = true;
      return 0;
    }
    uint64_t v = 0;
    for (int i = 0; i < n; ++i) v |= static_cast<uint64_t>(data_[pos_ + i]) << (8 * i);
    pos_ += static_cast<size_t>(n);
    return v;
  }

  ByteSpan data_;
  size_t pos_ = 0;
  bool fail_ = false;
};

}  // namespace sbft

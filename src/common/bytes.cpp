#include "common/bytes.h"

#include <stdexcept>

namespace sbft {

namespace {
constexpr char kHexDigits[] = "0123456789abcdef";

int hex_value(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}
}  // namespace

std::string to_hex(ByteSpan data) {
  std::string out;
  out.reserve(data.size() * 2);
  for (uint8_t b : data) {
    out.push_back(kHexDigits[b >> 4]);
    out.push_back(kHexDigits[b & 0xf]);
  }
  return out;
}

Bytes from_hex(std::string_view hex) {
  if (hex.size() % 2 != 0) throw std::invalid_argument("from_hex: odd length");
  Bytes out;
  out.reserve(hex.size() / 2);
  for (size_t i = 0; i < hex.size(); i += 2) {
    int hi = hex_value(hex[i]);
    int lo = hex_value(hex[i + 1]);
    if (hi < 0 || lo < 0) throw std::invalid_argument("from_hex: bad digit");
    out.push_back(static_cast<uint8_t>((hi << 4) | lo));
  }
  return out;
}

void ByteList::insert(size_t i, ByteSpan s) {
  uint32_t begin = i == 0 ? 0 : ends_[i - 1];
  auto len = static_cast<uint32_t>(s.size());
  ends_.insert(ends_.begin() + static_cast<ptrdiff_t>(i), begin + len);
  for (size_t j = i + 1; j < ends_.size(); ++j) ends_[j] += len;
  bytes_.insert(bytes_.begin() + begin, s.begin(), s.end());
}

void ByteList::shrink_to_fit() {
  if (bytes_.capacity() != bytes_.size()) {
    bytes_ = Bytes(bytes_.begin(), bytes_.end());
  }
  if (ends_.capacity() != ends_.size()) {
    ends_ = std::vector<uint32_t>(ends_.begin(), ends_.end());
  }
}

bool digest_equal(const Digest& a, const Digest& b) {
  uint8_t acc = 0;
  for (size_t i = 0; i < a.size(); ++i) acc |= static_cast<uint8_t>(a[i] ^ b[i]);
  return acc == 0;
}

uint64_t fnv1a(ByteSpan data) {
  uint64_t h = 1469598103934665603ull;
  for (uint8_t b : data) {
    h ^= b;
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace sbft

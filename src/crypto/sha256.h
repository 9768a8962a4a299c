// From-scratch SHA-256 (FIPS 180-4). The paper uses SHA256 (via Crypto++) for
// all protocol digests; this implementation replaces that dependency.
//
// Like current Crypto++ releases, it picks its block function at run time.
// On an x86-64 CPU with the SHA extensions (CPUID, checked once per process)
// whole blocks go through `_mm_sha256rnds2_epu32` and its message-schedule
// companions; anywhere else, the portable FIPS 180-4 code hashes them. Both
// produce the same digests (crypto_test checks them against each other and
// against the known answers), and no build flag or setting chooses between
// them. crypto/sha256_blocks.h declares the two block functions.
#pragma once

#include <cstdint>

#include "common/bytes.h"

namespace sbft::crypto {

class Sha256 {
 public:
  /// Folds `count` consecutive 64-byte blocks at `blocks` into `state`.
  using BlockFunction = void (*)(uint32_t* state, const uint8_t* blocks,
                                 size_t count);

  /// Hashes with the block function chosen for this CPU.
  Sha256();
  /// Hashes with `blocks` (tests compare the implementations through it).
  explicit Sha256(BlockFunction blocks) : blocks_(blocks) { reset(); }

  void reset();
  Sha256& update(ByteSpan data);
  Sha256& update(std::string_view s) { return update(as_span(s)); }
  /// Finalizes and returns the digest. The object must be reset() before reuse.
  Digest finish();

 private:
  BlockFunction blocks_;
  uint32_t h_[8];
  uint8_t buf_[64];
  size_t buf_len_ = 0;
  uint64_t total_len_ = 0;
};

/// One-shot convenience.
Digest sha256(ByteSpan data);
Digest sha256(std::string_view s);

/// sha256(a || b) without materializing the concatenation.
Digest sha256_concat(ByteSpan a, ByteSpan b);

}  // namespace sbft::crypto

// The SHA-256 block functions behind crypto::Sha256 (sha256.h). Private to
// the crypto module: sha256.cpp picks one at run time, and crypto_test runs
// the known-answer and cross-check tests on each.
#pragma once

#include <cstddef>
#include <cstdint>

#include "crypto/sha256.h"

namespace sbft::crypto::sha256_blocks {

/// FIPS 180-4 block function in plain C++: runs on every CPU, and is the
/// reference the accelerated function is tested against.
void portable(uint32_t* state, const uint8_t* blocks, size_t count);

/// Block function on the x86 SHA extensions, or nullptr when this build
/// (not x86-64) or this CPU (no SHA-NI or SSE4.1) lacks them.
Sha256::BlockFunction shani();

/// What Sha256() hashes with: shani() when it is available, else portable.
Sha256::BlockFunction selected();

}  // namespace sbft::crypto::sha256_blocks

// Threshold signature abstraction used by the replication protocol (§III).
//
// SBFT instantiates three schemes per cluster: σ with threshold 3f+c+1,
// τ with threshold 2f+c+1 and π with threshold f+1. The protocol code only
// depends on this interface; two implementations are provided:
//   * ShoupRsaThreshold  — real, publicly verifiable threshold RSA (Shoup,
//     EUROCRYPT'00), including non-interactive share-validity proofs.
//   * SimBlsThreshold    — HMAC-based stand-in with BLS wire sizes (33-byte
//     shares/signatures) for large-scale simulation; see the paper
//     substitutions in docs/architecture.md (row 1).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "common/bytes.h"
#include "common/rng.h"

namespace sbft::crypto {

struct SignatureShare {
  uint32_t signer = 0;  // 1-based replica identifier
  Bytes data;
};

/// Per-replica secret: produces shares for one scheme instance.
class IThresholdSigner {
 public:
  virtual ~IThresholdSigner() = default;
  virtual uint32_t signer_id() const = 0;
  virtual Bytes sign_share(const Digest& digest) const = 0;
};

/// Public state: verifies shares, combines them, verifies combined signatures.
class IThresholdVerifier {
 public:
  virtual ~IThresholdVerifier() = default;
  virtual uint32_t threshold() const = 0;
  virtual uint32_t num_signers() const = 0;
  /// True iff `share` is a valid share from `signer` over `digest`.
  virtual bool verify_share(uint32_t signer, const Digest& digest,
                            ByteSpan share) const = 0;
  /// Combines exactly threshold() distinct valid shares into a signature.
  /// Returns nullopt if the shares are insufficient or invalid.
  virtual std::optional<Bytes> combine(
      const Digest& digest, std::span<const SignatureShare> shares) const = 0;
  virtual bool verify(const Digest& digest, ByteSpan signature) const = 0;
  virtual size_t share_size() const = 0;
  virtual size_t signature_size() const = 0;
};

/// A dealt scheme: one verifier (public) plus n signers (one per replica).
struct ThresholdScheme {
  std::shared_ptr<const IThresholdVerifier> verifier;
  std::vector<std::shared_ptr<const IThresholdSigner>> signers;  // index i-1 = replica i
};

/// Trusted-dealer setup for the HMAC-based simulated-BLS scheme.
ThresholdScheme deal_sim_bls(Rng& rng, uint32_t n, uint32_t k);

/// Trusted-dealer setup for Shoup threshold RSA. `modulus_bits` defaults small
/// enough for tests; n must be < 2^16 and k <= n.
ThresholdScheme deal_shoup_rsa(Rng& rng, uint32_t n, uint32_t k,
                               int modulus_bits = 512);

}  // namespace sbft::crypto

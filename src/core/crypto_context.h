// Cluster cryptographic material and collector selection (§V-B).
//
// Each cluster deals three threshold schemes: sigma (3f+c+1), tau (2f+c+1)
// and pi (f+1). C-collectors and E-collectors for a (sequence, view) pair are
// a pseudo-random group of c+1 non-primary replicas, with the primary
// appended as the always-last staggered collector for the Linear-PBFT
// fallback (§V-E).
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "crypto/threshold.h"
#include "proto/config.h"
#include "proto/types.h"
#include "runtime/membership.h"

namespace sbft::core {

/// The dealt schemes for one cluster (trusted-dealer setup, as in the paper's
/// permissioned deployment).
struct ClusterKeys {
  crypto::ThresholdScheme sigma;  // threshold 3f+c+1
  crypto::ThresholdScheme tau;    // threshold 2f+c+1
  crypto::ThresholdScheme pi;     // threshold f+1

  /// Simulated-BLS keys (protocol benchmarks and most tests).
  static ClusterKeys generate(Rng& rng, const ProtocolConfig& config);
  /// Real Shoup threshold-RSA keys (crypto-heavy tests, small n).
  static ClusterKeys generate_rsa(Rng& rng, const ProtocolConfig& config,
                                  int modulus_bits = 512);
  /// Simulated-BLS keys for an arbitrary roster size and fault parameters —
  /// the per-epoch re-keying a reconfiguration triggers (signer index k
  /// belongs to the member of epoch rank k-1; docs/reconfiguration.md).
  static ClusterKeys generate_for(Rng& rng, uint32_t n, uint32_t f, uint32_t c);
};

/// Per-epoch threshold key material, provisioned out-of-band by the same
/// trusted dealer that issues the reconfiguration (a real deployment runs a
/// re-keying ceremony; the harness deals fresh simulated-BLS schemes). Shared
/// by every replica and client of a cluster; epochs are provisioned before
/// the reconfiguration that activates them is submitted.
class EpochKeyTable {
 public:
  void provision(uint64_t epoch, ClusterKeys keys) {
    epochs_[epoch] = std::move(keys);
  }
  const ClusterKeys* find(uint64_t epoch) const {
    auto it = epochs_.find(epoch);
    return it == epochs_.end() ? nullptr : &it->second;
  }
  /// Epochs in provisioning order (verification fallbacks walk these).
  const std::map<uint64_t, ClusterKeys>& epochs() const { return epochs_; }

 private:
  std::map<uint64_t, ClusterKeys> epochs_;
};

/// Per-replica view of the cluster keys.
struct ReplicaCrypto {
  std::shared_ptr<const crypto::IThresholdVerifier> sigma_verifier;
  std::shared_ptr<const crypto::IThresholdVerifier> tau_verifier;
  std::shared_ptr<const crypto::IThresholdVerifier> pi_verifier;
  std::shared_ptr<const crypto::IThresholdSigner> sigma_signer;  // null for clients
  std::shared_ptr<const crypto::IThresholdSigner> tau_signer;
  std::shared_ptr<const crypto::IThresholdSigner> pi_signer;

  static ReplicaCrypto for_replica(const ClusterKeys& keys, ReplicaId id);
  static ReplicaCrypto verifier_only(const ClusterKeys& keys);
};

/// Verifier bundle used by the pure view-change functions; every member is
/// required. Sender membership and share-signer indices (member rank + 1)
/// resolve against `epoch`, the epoch the view change runs in.
/// `verify_checkpoint` checks the pi signature of a view-change checkpoint
/// certificate: one sealed just before an epoch boundary carries the
/// *previous* epoch's pi signature, so the engine supplies a seq-aware
/// verifier (SbftReplica::verify_cert_pi).
struct ViewChangeVerifiers {
  const crypto::IThresholdVerifier* sigma = nullptr;
  const crypto::IThresholdVerifier* tau = nullptr;
  const runtime::MembershipEpoch* epoch = nullptr;
  std::function<bool(const ExecCertificate&)> verify_checkpoint;
};

/// Commit collectors for (s, v): c+1 pseudo-random non-primary members of
/// the epoch, ordered by stagger rank (entry 0 activates first). The draw
/// walks the id-sorted member list, so it holds across non-contiguous ids
/// after a removal.
std::vector<ReplicaId> c_collectors(const runtime::MembershipEpoch& epoch, SeqNum s,
                                    ViewNum v);

/// Execution collectors for (s, v): same construction, different draw.
std::vector<ReplicaId> e_collectors(const runtime::MembershipEpoch& epoch, SeqNum s,
                                    ViewNum v);

/// Collectors for the fallback (Linear-PBFT) commit-share stage: the c+1
/// C-collectors with the primary appended as the always-last staggered
/// collector (§V-E: "the c+1st collector to activate is always the primary").
std::vector<ReplicaId> commit_collectors(const runtime::MembershipEpoch& epoch,
                                         SeqNum s, ViewNum v);

/// E-collectors with the primary appended as the last fallback collector
/// (replicas re-send their pi shares to the primary when a slot's execution
/// certificate stalls).
std::vector<ReplicaId> fallback_e_collectors(const runtime::MembershipEpoch& epoch,
                                             SeqNum s, ViewNum v);

/// Stagger rank of `replica` within `collectors` (0 = first), or -1.
int collector_rank(const std::vector<ReplicaId>& collectors, ReplicaId replica);

}  // namespace sbft::core

#include "core/crypto_context.h"

#include "common/serde.h"
#include "crypto/sha256.h"

namespace sbft::core {

ClusterKeys ClusterKeys::generate(Rng& rng, const ProtocolConfig& config) {
  ClusterKeys keys;
  keys.sigma = crypto::deal_sim_bls(rng, config.n(), config.fast_quorum());
  keys.tau = crypto::deal_sim_bls(rng, config.n(), config.slow_quorum());
  keys.pi = crypto::deal_sim_bls(rng, config.n(), config.exec_quorum());
  return keys;
}

ClusterKeys ClusterKeys::generate_rsa(Rng& rng, const ProtocolConfig& config,
                                      int modulus_bits) {
  ClusterKeys keys;
  keys.sigma = crypto::deal_shoup_rsa(rng, config.n(), config.fast_quorum(), modulus_bits);
  keys.tau = crypto::deal_shoup_rsa(rng, config.n(), config.slow_quorum(), modulus_bits);
  keys.pi = crypto::deal_shoup_rsa(rng, config.n(), config.exec_quorum(), modulus_bits);
  return keys;
}

ClusterKeys ClusterKeys::generate_for(Rng& rng, uint32_t n, uint32_t f, uint32_t c) {
  ClusterKeys keys;
  keys.sigma = crypto::deal_sim_bls(rng, n, 3 * f + c + 1);
  keys.tau = crypto::deal_sim_bls(rng, n, 2 * f + c + 1);
  keys.pi = crypto::deal_sim_bls(rng, n, f + 1);
  return keys;
}

ReplicaCrypto ReplicaCrypto::for_replica(const ClusterKeys& keys, ReplicaId id) {
  ReplicaCrypto rc = verifier_only(keys);
  rc.sigma_signer = keys.sigma.signers.at(id - 1);
  rc.tau_signer = keys.tau.signers.at(id - 1);
  rc.pi_signer = keys.pi.signers.at(id - 1);
  return rc;
}

ReplicaCrypto ReplicaCrypto::verifier_only(const ClusterKeys& keys) {
  ReplicaCrypto rc;
  rc.sigma_verifier = keys.sigma.verifier;
  rc.tau_verifier = keys.tau.verifier;
  rc.pi_verifier = keys.pi.verifier;
  return rc;
}

namespace {

std::vector<ReplicaId> pick_collectors(const runtime::MembershipEpoch& epoch,
                                       SeqNum s, ViewNum v,
                                       std::string_view domain) {
  const ReplicaId primary = epoch.primary_of(v);
  const uint32_t count = std::min(epoch.num_collectors(), epoch.n() - 1);
  std::vector<ReplicaId> pool;
  pool.reserve(epoch.n() - 1);
  for (const ReplicaInfo& m : epoch.members) {  // id-sorted: 1..n at genesis
    if (m.id != primary) pool.push_back(m.id);
  }

  // Deterministic pseudo-random draw seeded by (domain, s, v).
  Writer w;
  w.str(domain);
  w.u64(s);
  w.u64(v);
  Digest seed = crypto::sha256(as_span(w.data()));
  Rng rng(fnv1a(as_span(seed)));

  // Partial Fisher-Yates for the first `count` entries.
  std::vector<ReplicaId> out;
  out.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    size_t j = i + static_cast<size_t>(rng.below(pool.size() - i));
    std::swap(pool[i], pool[j]);
    out.push_back(pool[i]);
  }
  return out;
}

}  // namespace

std::vector<ReplicaId> c_collectors(const runtime::MembershipEpoch& epoch, SeqNum s,
                                    ViewNum v) {
  return pick_collectors(epoch, s, v, "sbft.c-collector");
}

std::vector<ReplicaId> e_collectors(const runtime::MembershipEpoch& epoch, SeqNum s,
                                    ViewNum v) {
  return pick_collectors(epoch, s, v, "sbft.e-collector");
}

std::vector<ReplicaId> commit_collectors(const runtime::MembershipEpoch& epoch,
                                         SeqNum s, ViewNum v) {
  std::vector<ReplicaId> out = c_collectors(epoch, s, v);
  out.push_back(epoch.primary_of(v));
  return out;
}

std::vector<ReplicaId> fallback_e_collectors(const runtime::MembershipEpoch& epoch,
                                             SeqNum s, ViewNum v) {
  std::vector<ReplicaId> out = e_collectors(epoch, s, v);
  out.push_back(epoch.primary_of(v));
  return out;
}

int collector_rank(const std::vector<ReplicaId>& collectors, ReplicaId replica) {
  for (size_t i = 0; i < collectors.size(); ++i) {
    if (collectors[i] == replica) return static_cast<int>(i);
  }
  return -1;
}

}  // namespace sbft::core

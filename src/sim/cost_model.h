// Calibrated per-operation CPU costs, in simulated microseconds.
//
// Defaults approximate the paper's testbed (32-VCPU Intel Broadwell E5-2686v4
// @2.3GHz) and published 2018-era numbers for the primitives the paper uses:
// RSA-2048 (client request signatures, [31]) and threshold BLS over BN-P254
// ([21][22]): sign ~0.4ms, pairing-based verification ~1ms, share combination
// by interpolation in the exponent ~60us per share (parallelized in the
// paper's implementation, §VIII), and cheap n-out-of-n group-signature
// combination in the failure-free fast path (§VIII).
#pragma once

#include <cstdint>

namespace sbft::sim {

struct CostModel {
  // Hashing: base + per-byte (SHA-256 on one core).
  double hash_base_us = 0.3;
  double hash_per_byte_us = 0.003;

  // RSA-2048 (clients sign requests; replicas verify them). Costs reflect
  // the effective per-replica compute of the paper's deployment: ~20 replica
  // VMs sharing a 32-VCPU machine, i.e. ~1.5 effective cores per replica.
  int64_t rsa_sign_us = 2500;
  int64_t rsa_verify_us = 120;

  // Threshold BLS (BN-P254).
  int64_t bls_sign_share_us = 380;
  int64_t bls_verify_share_us = 1000;   // one pairing
  int64_t bls_verify_combined_us = 1000;
  // Batch verification of k shares costs ~one pairing plus a small per-share
  // term (§III: "batch verification ... at nearly the same cost of one").
  int64_t bls_batch_verify_base_us = 1000;
  int64_t bls_batch_verify_per_share_us = 40;
  // Combining k shares: Lagrange interpolation in the exponent.
  int64_t bls_combine_per_share_us = 55;
  // n-out-of-n group-signature combination (fast path, no failures): a
  // multiplication per share instead of an exponentiation.
  int64_t bls_group_combine_per_share_us = 3;

  // Service execution.
  int64_t kv_op_us = 2;                 // key-value put/get
  double evm_gas_per_us = 120.0;        // EVM interpreter speed (gas/us)
  int64_t persist_per_kb_us = 25;       // ledger write (RocksDB-style)

  // Per-message envelope handling (deserialization, dispatch, MAC check on
  // the authenticated TLS channel).
  int64_t msg_overhead_us = 15;

  int64_t hash_us(uint64_t bytes) const {
    return static_cast<int64_t>(hash_base_us + hash_per_byte_us * static_cast<double>(bytes));
  }
  int64_t batch_verify_us(uint64_t shares) const {
    return bls_batch_verify_base_us +
           bls_batch_verify_per_share_us * static_cast<int64_t>(shares);
  }
  int64_t combine_us(uint64_t shares, bool group_mode) const {
    return static_cast<int64_t>(shares) *
           (group_mode ? bls_group_combine_per_share_us : bls_combine_per_share_us);
  }
  int64_t evm_us(uint64_t gas) const {
    return static_cast<int64_t>(static_cast<double>(gas) / evm_gas_per_us) + 1;
  }
  int64_t persist_us(uint64_t bytes) const {
    return persist_per_kb_us * static_cast<int64_t>(bytes / 1024 + 1);
  }
};

}  // namespace sbft::sim

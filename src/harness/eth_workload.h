// Ethereum-like smart-contract workload (§IX "Smart-Contract benchmark";
// paper substitution 3 in docs/architecture.md stands in for the paper's
// 500k-transaction mainnet trace).
//
// Each client deploys its own ERC-20-style token contract on its first
// request (contract addresses are precomputable because creation uses a
// per-sender nonce), mints itself a balance, and then issues batches of
// ~50 transfer transactions padded to ~12KB per request, with ~1% contract
// creations mixed in — matching the trace's ~5000 creations per 500k txs.
#pragma once

#include <functional>

#include "common/bytes.h"
#include "common/rng.h"
#include "evm/evm_service.h"
#include "proto/types.h"

namespace sbft::harness {

struct EthWorkloadOptions {
  uint32_t txs_per_request = 50;   // ~12KB batches
  uint32_t tx_padding_bytes = 150; // pads calldata to realistic tx sizes
  double create_fraction = 0.01;   // ~1% creations (5000 / 500k)
  uint64_t gas_limit = 400'000;
};

/// Deterministic account address for client `id`.
evm::Address eth_account_of(ClientId id);
/// Deterministic token-contract address deployed by client `id`.
evm::Address eth_token_of(ClientId id);

/// Factory compatible with ClientOptions::op_factory for client `id`.
/// Request 0 deploys the client's token and mints its balance; later
/// requests are transfer batches with occasional creations.
std::function<Bytes(uint64_t, Rng&)> eth_op_factory(ClientId id,
                                                    EthWorkloadOptions options);

}  // namespace sbft::harness

// Hand-assembled contract library used by the smart-contract workload
// (synthetic stand-ins for the paper's Ethereum trace: paper substitution 3
// in docs/architecture.md).
#pragma once

#include "common/bytes.h"
#include "evm/u256.h"

namespace sbft::evm {

/// Counter: every call increments storage slot 0 and returns the new value.
Bytes counter_contract();

/// ERC-20-style token with per-account balances in a SHA3-derived mapping.
/// Calldata layout: word0 selector, word1 account, word2 amount.
///   selector 1: mint(account, amount)      -> 1
///   selector 2: transfer(to, amount)       -> 1, REVERTs on insufficient funds
///   selector 3: balanceOf(account)         -> balance
Bytes token_contract();
Bytes token_call_mint(const U256& account, const U256& amount);
Bytes token_call_transfer(const U256& to, const U256& amount);
Bytes token_call_balance_of(const U256& account);

/// Compute-heavy contract: word1 = loop iterations; returns an accumulator.
/// Models the expensive tail of real contract workloads.
Bytes spin_contract();
Bytes spin_call(uint64_t iterations);

}  // namespace sbft::evm

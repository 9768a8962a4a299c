// EVM-subset interpreter (§IV "A Smart contract engine", §VIII).
//
// A deterministic 256-bit stack machine implementing the arithmetic,
// comparison, bitwise, memory, storage, control-flow, calldata, hashing and
// logging core of 2018-era EVM bytecode, with gas metering. Substitutions
// versus cpp-ethereum are paper substitution 6 in docs/architecture.md: SHA3
// is backed by SHA-256, and cross-contract CALL/CREATE opcodes are not
// implemented (the ledger layer models Ethereum's two transaction types
// instead).
//
// Storage writes are journaled during execution and flushed to the host only
// on successful completion, so REVERT and out-of-gas leave state untouched.
#pragma once

#include <map>
#include <string>

#include "common/bytes.h"
#include "evm/u256.h"

namespace sbft::evm {

using Address = std::array<uint8_t, 20>;

/// Storage host: the ledger backs this with the authenticated KV store.
class IEvmHost {
 public:
  virtual ~IEvmHost() = default;
  virtual U256 sload(const Address& contract, const U256& slot) const = 0;
  virtual void sstore(const Address& contract, const U256& slot, const U256& value) = 0;
};

enum class Op : uint8_t {
  STOP = 0x00, ADD = 0x01, MUL = 0x02, SUB = 0x03, DIV = 0x04, MOD = 0x06,
  ADDMOD = 0x08, MULMOD = 0x09, EXP = 0x0a,
  LT = 0x10, GT = 0x11, EQ = 0x14, ISZERO = 0x15,
  AND = 0x16, OR = 0x17, XOR = 0x18, NOT = 0x19, BYTE = 0x1a,
  SHL = 0x1b, SHR = 0x1c,
  SHA3 = 0x20,
  ADDRESS = 0x30, CALLER = 0x33, CALLVALUE = 0x34,
  CALLDATALOAD = 0x35, CALLDATASIZE = 0x36, CALLDATACOPY = 0x37,
  POP = 0x50, MLOAD = 0x51, MSTORE = 0x52, MSTORE8 = 0x53,
  SLOAD = 0x54, SSTORE = 0x55, JUMP = 0x56, JUMPI = 0x57,
  PC = 0x58, MSIZE = 0x59, GAS = 0x5a, JUMPDEST = 0x5b,
  PUSH1 = 0x60,  // ..PUSH32 = 0x7f
  DUP1 = 0x80, DUP2 = 0x81, DUP3 = 0x82, DUP4 = 0x83,    // ..DUP16 = 0x8f
  SWAP1 = 0x90, SWAP2 = 0x91, SWAP3 = 0x92,              // ..SWAP16 = 0x9f
  LOG0 = 0xa0, LOG1 = 0xa1, LOG2 = 0xa2,
  RETURN = 0xf3, REVERT = 0xfd,
};

enum class EvmStatus { kSuccess, kRevert, kOutOfGas, kInvalid };

struct EvmResult {
  EvmStatus status = EvmStatus::kInvalid;
  Bytes output;
  uint64_t gas_used = 0;
  uint32_t log_count = 0;
  std::string error;  // human-readable cause for kInvalid

  bool ok() const { return status == EvmStatus::kSuccess; }
};

struct EvmParams {
  ByteSpan code;
  ByteSpan calldata;
  Address self{};
  Address caller{};
  U256 callvalue;
  uint64_t gas_limit = 10'000'000;
};

/// Runs `params.code` to completion against `host`.
EvmResult evm_execute(IEvmHost& host, const EvmParams& params);

}  // namespace sbft::evm

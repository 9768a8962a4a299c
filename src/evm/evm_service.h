// EVM ledger service (§IV): models Ethereum's two transaction types —
// contract creation and contract execution — as operations of the generic
// replicated service, with all contract code and storage held in the
// authenticated key-value store so the state digest commits to the ledger.
#pragma once

#include <optional>

#include "evm/vm.h"
#include "kv/kv_service.h"
#include "kv/service.h"

namespace sbft::evm {

enum class TxType : uint8_t { kCreate = 1, kCall = 2, kBatch = 3 };

struct CreateTx {
  Address sender{};
  Bytes code;  // runtime bytecode (init-code indirection is not modeled)
};

struct CallTx {
  Address sender{};
  Address contract{};
  Bytes calldata;
  uint64_t gas_limit = 1'000'000;
};

Bytes encode_create(const CreateTx& tx);
Bytes encode_call(const CallTx& tx);
/// Wraps several transactions into one client request (§IX: "batching
/// transactions into chunks of 12KB, on average about 50 transactions").
/// A batch is flat, and execute() decodes all of it before it runs any
/// transaction.
Bytes encode_tx_batch(const std::vector<Bytes>& txs);

struct TxResult {
  bool success = false;
  Bytes output;        // EVM return data, or the new address for kCreate
  uint64_t gas_used = 0;
  std::string error;
};
Bytes encode_tx_result(const TxResult& r);
std::optional<TxResult> decode_tx_result(ByteSpan data);

class EvmLedgerService final : public IService, public IEvmHost {
 public:
  EvmLedgerService() = default;

  // IService
  Bytes execute(ByteSpan op) override;
  Bytes query(ByteSpan q) const override;
  Digest state_digest() const override { return kv_.state_digest(); }
  Bytes snapshot() const override { return kv_.snapshot(); }
  bool restore(ByteSpan snapshot) override { return kv_.restore(snapshot); }
  // The ledger's serializer is the KV store's, so the chunk-stable paged
  // layout (and with it delta state transfer) covers EVM snapshots too.
  void set_snapshot_chunk_hint(uint32_t page) override {
    kv_.set_snapshot_chunk_hint(page);
  }
  std::unique_ptr<IService> clone_empty() const override;
  int64_t last_execute_cost_us(const sim::CostModel& costs) const override {
    return costs.evm_us(last_gas_);
  }

  // IEvmHost (storage is write-through to the authenticated KV store)
  U256 sload(const Address& contract, const U256& slot) const override;
  void sstore(const Address& contract, const U256& slot, const U256& value) override;

  std::optional<Bytes> code_of(const Address& contract) const;
  uint64_t contracts_created() const;

  /// Deterministic contract address: first 20 bytes of
  /// SHA-256("sbft.evm.addr" || sender || sender_nonce), where sender_nonce
  /// counts the creations by that sender — as in Ethereum, a sender's k-th
  /// creation address is known in advance. (Ethereum uses
  /// keccak(rlp(sender, nonce)); see paper substitution 6 in
  /// docs/architecture.md.)
  static Address derive_address(const Address& sender, uint64_t nonce);
  uint64_t creations_by(const Address& sender) const;

 private:
  TxResult apply_create(const CreateTx& tx);
  TxResult apply_call(const CallTx& tx);

  kv::KvService kv_;
  uint64_t last_gas_ = 21000;
};

}  // namespace sbft::evm

#include "evm/evm_service.h"

#include <variant>

#include "common/serde.h"
#include "crypto/sha256.h"

namespace sbft::evm {

namespace {

Bytes nonce_key(const Address& a) {
  Bytes k;
  k.push_back('n');
  k.insert(k.end(), a.begin(), a.end());
  return k;
}

Bytes code_key(const Address& a) {
  Bytes k;
  k.push_back('c');
  k.insert(k.end(), a.begin(), a.end());
  return k;
}

Bytes storage_key(const Address& a, const U256& slot) {
  Bytes k;
  k.push_back('s');
  k.insert(k.end(), a.begin(), a.end());
  auto w = slot.to_word();
  k.insert(k.end(), w.begin(), w.end());
  return k;
}

void write_address(Writer& w, const Address& a) { w.raw(ByteSpan{a.data(), a.size()}); }

Address read_address(Reader& r) {
  Address a{};
  for (size_t i = 0; i < a.size(); ++i) a[i] = r.u8();
  return a;
}

constexpr uint32_t kMaxBatchTxs = 100'000;

using Tx = std::variant<CreateTx, CallTx>;

/// Decodes one create or call; on failure `error` says what was wrong.
std::optional<Tx> decode_tx(ByteSpan op, std::string& error) {
  Reader r(op);
  uint8_t tag = r.u8();
  if (tag == static_cast<uint8_t>(TxType::kCreate)) {
    CreateTx tx;
    tx.sender = read_address(r);
    tx.code = r.bytes();
    if (r.at_end()) return tx;
    error = "malformed create";
  } else if (tag == static_cast<uint8_t>(TxType::kCall)) {
    CallTx tx;
    tx.sender = read_address(r);
    tx.contract = read_address(r);
    tx.calldata = r.bytes();
    tx.gas_limit = r.u64();
    if (r.at_end()) return tx;
    error = "malformed call";
  } else {
    error = "unknown tx type";
  }
  return std::nullopt;
}

/// The transactions of a kBatch op, or nullopt unless its count fits, every
/// length is in range, every transaction decodes (a nested batch does not)
/// and no byte trails.
std::optional<std::vector<Tx>> decode_tx_batch(ByteSpan op) {
  Reader r(op);
  r.u8();  // the kBatch tag
  uint32_t count = r.u32();
  // Each transaction takes at least its u32 length.
  if (!r.ok() || count > kMaxBatchTxs || count > r.remaining() / 4) {
    return std::nullopt;
  }
  std::vector<Tx> txs;
  txs.reserve(count);
  std::string error;
  for (uint32_t i = 0; i < count; ++i) {
    auto tx = decode_tx(r.span(), error);
    if (!tx) return std::nullopt;
    txs.push_back(std::move(*tx));
  }
  if (!r.at_end()) return std::nullopt;
  return txs;
}

}  // namespace

Bytes encode_create(const CreateTx& tx) {
  Writer w;
  w.u8(static_cast<uint8_t>(TxType::kCreate));
  write_address(w, tx.sender);
  w.bytes(as_span(tx.code));
  return std::move(w).take();
}

Bytes encode_call(const CallTx& tx) {
  Writer w;
  w.u8(static_cast<uint8_t>(TxType::kCall));
  write_address(w, tx.sender);
  write_address(w, tx.contract);
  w.bytes(as_span(tx.calldata));
  w.u64(tx.gas_limit);
  return std::move(w).take();
}

Bytes encode_tx_batch(const std::vector<Bytes>& txs) {
  Writer w;
  w.u8(static_cast<uint8_t>(TxType::kBatch));
  w.u32(static_cast<uint32_t>(txs.size()));
  for (const Bytes& tx : txs) w.bytes(as_span(tx));
  return std::move(w).take();
}

Bytes encode_tx_result(const TxResult& r) {
  Writer w;
  w.boolean(r.success);
  w.bytes(as_span(r.output));
  w.u64(r.gas_used);
  w.str(r.error);
  return std::move(w).take();
}

std::optional<TxResult> decode_tx_result(ByteSpan data) {
  Reader r(data);
  TxResult out;
  out.success = r.boolean();
  out.output = r.bytes();
  out.gas_used = r.u64();
  out.error = r.str();
  if (!r.at_end()) return std::nullopt;
  return out;
}

Address EvmLedgerService::derive_address(const Address& sender, uint64_t nonce) {
  Writer w;
  w.str("sbft.evm.addr");
  write_address(w, sender);
  w.u64(nonce);
  Digest d = crypto::sha256(as_span(w.data()));
  Address a{};
  std::copy(d.begin(), d.begin() + 20, a.begin());
  return a;
}

uint64_t EvmLedgerService::contracts_created() const {
  auto v = kv_.get(as_span("\x01total-creates"));
  if (!v || v->size() != 8) return 0;
  Reader r(as_span(*v));
  return r.u64();
}

uint64_t EvmLedgerService::creations_by(const Address& sender) const {
  auto v = kv_.get(as_span(nonce_key(sender)));
  if (!v || v->size() != 8) return 0;
  Reader r(as_span(*v));
  return r.u64();
}

U256 EvmLedgerService::sload(const Address& contract, const U256& slot) const {
  auto v = kv_.get(as_span(storage_key(contract, slot)));
  if (!v) return U256();
  return U256::from_bytes_be(as_span(*v));
}

void EvmLedgerService::sstore(const Address& contract, const U256& slot,
                              const U256& value) {
  Bytes key = storage_key(contract, slot);
  if (value.is_zero()) {
    kv_.erase(as_span(key));
  } else {
    kv_.put(as_span(key), as_span(value.to_bytes()));
  }
}

std::optional<Bytes> EvmLedgerService::code_of(const Address& contract) const {
  return kv_.get(as_span(code_key(contract)));
}

TxResult EvmLedgerService::apply_create(const CreateTx& tx) {
  uint64_t nonce = creations_by(tx.sender);
  Address addr = derive_address(tx.sender, nonce);
  kv_.put(as_span(code_key(addr)), as_span(tx.code));
  Writer w;
  w.u64(nonce + 1);
  kv_.put(as_span(nonce_key(tx.sender)), as_span(w.data()));
  Writer total;
  total.u64(contracts_created() + 1);
  kv_.put(as_span("\x01total-creates"), as_span(total.data()));
  TxResult r;
  r.success = true;
  r.output.assign(addr.begin(), addr.end());
  r.gas_used = 32000 + 200 * tx.code.size();  // Ethereum create cost model
  return r;
}

TxResult EvmLedgerService::apply_call(const CallTx& tx) {
  TxResult r;
  auto code = code_of(tx.contract);
  if (!code) {
    r.error = "no such contract";
    return r;
  }
  EvmParams params;
  params.code = as_span(*code);
  params.calldata = as_span(tx.calldata);
  params.self = tx.contract;
  params.caller = tx.sender;
  params.gas_limit = tx.gas_limit;
  EvmResult er = evm_execute(*this, params);
  r.success = er.ok();
  r.output = std::move(er.output);
  r.gas_used = er.gas_used + 21000;  // base transaction cost
  if (!r.success) {
    switch (er.status) {
      case EvmStatus::kRevert: r.error = "revert"; break;
      case EvmStatus::kOutOfGas: r.error = "out of gas"; break;
      default: r.error = er.error.empty() ? "invalid" : er.error; break;
    }
  }
  return r;
}

Bytes EvmLedgerService::execute(ByteSpan op) {
  last_gas_ = 21000;
  auto run = [this](const Tx& tx) {
    const auto* create = std::get_if<CreateTx>(&tx);
    TxResult result = create ? apply_create(*create) : apply_call(std::get<CallTx>(tx));
    last_gas_ = result.gas_used;
    return encode_tx_result(result);
  };
  if (!op.empty() && op[0] == static_cast<uint8_t>(TxType::kBatch)) {
    // The whole batch decodes before any transaction runs: a malformed one
    // changes no state and is charged one transaction's base gas.
    auto txs = decode_tx_batch(op);
    if (!txs) return encode_tx_result({false, {}, 0, "malformed batch"});
    uint64_t total_gas = 0;
    Bytes last;
    for (const Tx& tx : *txs) {
      last = run(tx);
      total_gas += last_gas_;
    }
    last_gas_ = total_gas;
    return last;
  }
  std::string error;
  auto tx = decode_tx(op, error);
  if (!tx) return encode_tx_result({false, {}, 0, error});
  return run(*tx);
}

Bytes EvmLedgerService::query(ByteSpan q) const {
  // Query: raw storage read — contract address (20 bytes) + slot word (32).
  Reader r(q);
  Address contract = read_address(r);
  U256 slot = U256::from_bytes_be(as_span(r.bytes()));
  if (!r.at_end()) return {};
  return sload(contract, slot).to_bytes();
}

std::unique_ptr<IService> EvmLedgerService::clone_empty() const {
  return std::make_unique<EvmLedgerService>();
}

}  // namespace sbft::evm

#include <gtest/gtest.h>

#include "common/serde.h"
#include "crypto/sha256.h"
#include "evm/assembler.h"
#include "evm/contracts.h"
#include "evm/evm_service.h"
#include "evm/u256.h"
#include "evm/vm.h"

namespace sbft::evm {
namespace {

// ---------------------------------------------------------------------------
// U256

TEST(U256, Construction) {
  EXPECT_TRUE(U256().is_zero());
  EXPECT_EQ(U256(42).low64(), 42u);
  EXPECT_TRUE(U256(7).fits64());
}

TEST(U256, BytesRoundTrip) {
  Bytes be = from_hex("0102030405060708090a0b0c0d0e0f10");
  U256 v = U256::from_bytes_be(as_span(be));
  auto word = v.to_word();
  // Right-aligned in the 32-byte word.
  EXPECT_EQ(word[31], 0x10);
  EXPECT_EQ(word[16], 0x01);
  EXPECT_EQ(word[0], 0x00);
}

TEST(U256, AdditionWraps) {
  U256 max = ~U256();
  EXPECT_TRUE((max + U256(1)).is_zero());
}

TEST(U256, SubtractionWraps) {
  U256 r = U256(0) - U256(1);
  EXPECT_EQ(r, ~U256());
}

TEST(U256, MultiplicationLow256) {
  U256 a = U256(1).shl(200);
  U256 b = U256(1).shl(100);
  EXPECT_TRUE((a * b).is_zero());  // overflows past 2^256
  EXPECT_EQ(U256(7) * U256(6), U256(42));
}

TEST(U256, DivModEvmZeroRules) {
  EXPECT_TRUE((U256(5) / U256(0)).is_zero());
  EXPECT_TRUE((U256(5) % U256(0)).is_zero());
  EXPECT_EQ(U256(17) / U256(5), U256(3));
  EXPECT_EQ(U256(17) % U256(5), U256(2));
}

TEST(U256, Comparison) {
  EXPECT_LT(U256(1), U256(2));
  EXPECT_GT(U256(1).shl(128), U256(1).shl(64));
}

TEST(U256, Shifts) {
  U256 v(0xff);
  EXPECT_EQ(v.shl(8).low64(), 0xff00u);
  EXPECT_EQ(v.shl(256), U256(0));
  EXPECT_EQ(v.shl(130).shr(130), v);
}

TEST(U256, Exp) {
  EXPECT_EQ(U256::exp(U256(2), U256(10)), U256(1024));
  EXPECT_EQ(U256::exp(U256(3), U256(0)), U256(1));
  EXPECT_EQ(U256::exp(U256(0), U256(5)), U256(0));
}

TEST(U256, AddMulMod) {
  EXPECT_EQ(U256::addmod(U256(10), U256(10), U256(8)), U256(4));
  EXPECT_EQ(U256::mulmod(U256(10), U256(10), U256(8)), U256(4));
  // addmod computes in 512-bit space: (2^256-1 + 2) mod 7 is well defined.
  U256 max = ~U256();
  EXPECT_EQ(U256::addmod(max, U256(2), U256(7)),
            U256::from_big((max.to_big() + crypto::BigUint(2)) % crypto::BigUint(7)));
}

// ---------------------------------------------------------------------------
// Interpreter

struct MapHost : IEvmHost {
  std::map<std::array<uint8_t, 32>, U256> storage;
  U256 sload(const Address&, const U256& slot) const override {
    auto it = storage.find(slot.to_word());
    return it == storage.end() ? U256() : it->second;
  }
  void sstore(const Address&, const U256& slot, const U256& value) override {
    storage[slot.to_word()] = value;
  }
};

EvmResult run(ByteSpan code, ByteSpan calldata = {}) {
  MapHost host;
  EvmParams params;
  params.code = code;
  params.calldata = calldata;
  return evm_execute(host, params);
}

U256 result_word(const EvmResult& r) { return U256::from_bytes_be(as_span(r.output)); }

TEST(Vm, ArithmeticReturn) {
  // (3 + 4) * 5 = 35
  Assembler a;
  a.push(uint64_t{3}).push(uint64_t{4}).op(Op::ADD);
  a.push(uint64_t{5}).op(Op::MUL);
  a.push(uint64_t{0}).op(Op::MSTORE);
  a.push(uint64_t{32}).push(uint64_t{0}).op(Op::RETURN);
  EvmResult r = run(as_span(a.assemble()));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(result_word(r), U256(35));
}

struct BinOpCase {
  const char* name;
  Op op;
  uint64_t lhs, rhs, expect;
};

class VmBinOps : public ::testing::TestWithParam<BinOpCase> {};

TEST_P(VmBinOps, Computes) {
  // Operands pushed rhs-first so lhs is on top (EVM: op pops a=top, b=next,
  // computing a OP b for non-commutative ops like SUB/DIV).
  Assembler a;
  a.push(GetParam().rhs).push(GetParam().lhs).op(GetParam().op);
  a.push(uint64_t{0}).op(Op::MSTORE);
  a.push(uint64_t{32}).push(uint64_t{0}).op(Op::RETURN);
  EvmResult r = run(as_span(a.assemble()));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(result_word(r), U256(GetParam().expect)) << GetParam().name;
}

INSTANTIATE_TEST_SUITE_P(
    Ops, VmBinOps,
    ::testing::Values(BinOpCase{"add", Op::ADD, 9, 5, 14},
                      BinOpCase{"sub", Op::SUB, 9, 5, 4},
                      BinOpCase{"mul", Op::MUL, 9, 5, 45},
                      BinOpCase{"div", Op::DIV, 9, 5, 1},
                      BinOpCase{"mod", Op::MOD, 9, 5, 4},
                      BinOpCase{"lt_true", Op::LT, 3, 5, 1},
                      BinOpCase{"lt_false", Op::LT, 5, 3, 0},
                      BinOpCase{"gt_true", Op::GT, 5, 3, 1},
                      BinOpCase{"eq_true", Op::EQ, 7, 7, 1},
                      BinOpCase{"eq_false", Op::EQ, 7, 8, 0},
                      BinOpCase{"and", Op::AND, 0b1100, 0b1010, 0b1000},
                      BinOpCase{"or", Op::OR, 0b1100, 0b1010, 0b1110},
                      BinOpCase{"xor", Op::XOR, 0b1100, 0b1010, 0b0110},
                      BinOpCase{"shl", Op::SHL, 4, 0xff, 0xff0},
                      BinOpCase{"shr", Op::SHR, 4, 0xff0, 0xff}),
    [](const auto& info) { return std::string(info.param.name); });

TEST(Vm, IsZeroAndNot) {
  Assembler a;
  a.push(uint64_t{0}).op(Op::ISZERO);
  a.push(uint64_t{0}).op(Op::MSTORE);
  a.push(uint64_t{32}).push(uint64_t{0}).op(Op::RETURN);
  EXPECT_EQ(result_word(run(as_span(a.assemble()))), U256(1));
}

TEST(Vm, StorageRoundTrip) {
  // SSTORE(7, 99); return SLOAD(7)
  Assembler a;
  a.push(uint64_t{99}).push(uint64_t{7}).op(Op::SSTORE);
  a.push(uint64_t{7}).op(Op::SLOAD);
  a.push(uint64_t{0}).op(Op::MSTORE);
  a.push(uint64_t{32}).push(uint64_t{0}).op(Op::RETURN);
  EvmResult r = run(as_span(a.assemble()));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(result_word(r), U256(99));
}

TEST(Vm, RevertDiscardsStorage) {
  MapHost host;
  Assembler a;
  a.push(uint64_t{1}).push(uint64_t{0}).op(Op::SSTORE);
  a.push(uint64_t{0}).push(uint64_t{0}).op(Op::REVERT);
  EvmParams params;
  Bytes code = a.assemble();
  params.code = as_span(code);
  EvmResult r = evm_execute(host, params);
  EXPECT_EQ(r.status, EvmStatus::kRevert);
  EXPECT_TRUE(host.storage.empty());
}

TEST(Vm, SuccessFlushesStorage) {
  MapHost host;
  Assembler a;
  a.push(uint64_t{123}).push(uint64_t{0}).op(Op::SSTORE);
  a.op(Op::STOP);
  Bytes code = a.assemble();
  EvmParams params;
  params.code = as_span(code);
  EvmResult r = evm_execute(host, params);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(host.storage.size(), 1u);
}

TEST(Vm, CalldataLoad) {
  Bytes calldata = U256(0xabcd).to_bytes();
  Assembler a;
  a.push(uint64_t{0}).op(Op::CALLDATALOAD);
  a.push(uint64_t{0}).op(Op::MSTORE);
  a.push(uint64_t{32}).push(uint64_t{0}).op(Op::RETURN);
  EvmResult r = run(as_span(a.assemble()), as_span(calldata));
  EXPECT_EQ(result_word(r), U256(0xabcd));
}

TEST(Vm, JumpLoop) {
  // Sum 1..10 via JUMPI loop.
  Assembler a;
  a.push(uint64_t{0});   // [sum]
  a.push(uint64_t{0});   // [sum, i]
  a.label("loop");       // [sum, i]
  a.push(uint64_t{1}).op(Op::ADD);              // i += 1
  a.op(Op::DUP1).op(Op::SWAP2).op(Op::ADD);     // [i, sum+i]
  a.op(Op::SWAP1);                              // [sum', i]
  a.op(Op::DUP1).push(uint64_t{10}).op(Op::GT); // [sum', i, 10>i]
  a.push_label("loop").op(Op::JUMPI);
  a.op(Op::POP);
  a.push(uint64_t{0}).op(Op::MSTORE);
  a.push(uint64_t{32}).push(uint64_t{0}).op(Op::RETURN);
  EvmResult r = run(as_span(a.assemble()));
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(result_word(r), U256(55));
}

TEST(Vm, InvalidJumpFails) {
  Assembler a;
  a.push(uint64_t{1}).op(Op::JUMP);  // destination 1 is push data, not JUMPDEST
  EvmResult r = run(as_span(a.assemble()));
  EXPECT_EQ(r.status, EvmStatus::kInvalid);
}

TEST(Vm, StackUnderflowFails) {
  Assembler a;
  a.op(Op::ADD);
  EXPECT_EQ(run(as_span(a.assemble())).status, EvmStatus::kInvalid);
}

TEST(Vm, OutOfGasHalts) {
  // Infinite loop must exhaust gas, not hang.
  Assembler a;
  a.label("loop");
  a.push_label("loop").op(Op::JUMP);
  MapHost host;
  Bytes code = a.assemble();
  EvmParams params;
  params.code = as_span(code);
  params.gas_limit = 10'000;
  EvmResult r = evm_execute(host, params);
  EXPECT_EQ(r.status, EvmStatus::kOutOfGas);
  EXPECT_LE(r.gas_used, 10'000u);
}

TEST(Vm, Sha3OverMemory) {
  Assembler a;
  a.push(uint64_t{0xaa}).push(uint64_t{0}).op(Op::MSTORE);
  a.push(uint64_t{32}).push(uint64_t{0}).op(Op::SHA3);
  a.push(uint64_t{0}).op(Op::MSTORE);
  a.push(uint64_t{32}).push(uint64_t{0}).op(Op::RETURN);
  EvmResult r = run(as_span(a.assemble()));
  ASSERT_TRUE(r.ok());
  Digest expect = crypto::sha256(as_span(U256(0xaa).to_bytes()));
  EXPECT_EQ(result_word(r), U256::from_bytes_be(as_span(expect)));
}

TEST(Vm, CallerAndAddress) {
  MapHost host;
  Assembler a;
  a.op(Op::CALLER);
  a.push(uint64_t{0}).op(Op::MSTORE);
  a.push(uint64_t{32}).push(uint64_t{0}).op(Op::RETURN);
  Bytes code = a.assemble();
  EvmParams params;
  params.code = as_span(code);
  params.caller.fill(0x11);
  EvmResult r = evm_execute(host, params);
  EXPECT_EQ(result_word(r),
            U256::from_bytes_be(ByteSpan{params.caller.data(), 20}));
}

TEST(Vm, DupAndSwapFamilies) {
  // DUP3 and SWAP2: stack [1,2,3] -> DUP3 -> [1,2,3,1]; SWAP2 -> [1,1,3,2]
  Assembler a;
  a.push(uint64_t{1}).push(uint64_t{2}).push(uint64_t{3});
  a.op(static_cast<Op>(0x82));  // DUP3
  a.op(static_cast<Op>(0x91));  // SWAP2
  a.push(uint64_t{0}).op(Op::MSTORE);  // stores top (2)
  a.push(uint64_t{32}).push(uint64_t{0}).op(Op::RETURN);
  EvmResult r = run(as_span(a.assemble()));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(result_word(r), U256(2));
}

// ---------------------------------------------------------------------------
// Contracts

TEST(Contracts, CounterIncrements) {
  MapHost host;
  Bytes code = counter_contract();
  EvmParams params;
  params.code = as_span(code);
  for (uint64_t i = 1; i <= 5; ++i) {
    EvmResult r = evm_execute(host, params);
    ASSERT_TRUE(r.ok()) << r.error;
    EXPECT_EQ(U256::from_bytes_be(as_span(r.output)), U256(i));
  }
}

class TokenFixture : public ::testing::Test {
 protected:
  EvmResult call(const Address& sender, const Bytes& calldata) {
    EvmParams params;
    params.code = as_span(code_);
    params.calldata = as_span(calldata);
    params.caller = sender;
    return evm_execute(host_, params);
  }
  U256 balance_of(const U256& account) {
    EvmResult r = call(alice_, token_call_balance_of(account));
    return U256::from_bytes_be(as_span(r.output));
  }
  static U256 word_of(const Address& a) {
    return U256::from_bytes_be(ByteSpan{a.data(), a.size()});
  }

  MapHost host_;
  Bytes code_ = token_contract();
  Address alice_{{1}};
  Address bob_{{2}};
};

TEST_F(TokenFixture, MintAndBalance) {
  ASSERT_TRUE(call(alice_, token_call_mint(word_of(alice_), U256(1000))).ok());
  EXPECT_EQ(balance_of(word_of(alice_)), U256(1000));
  EXPECT_EQ(balance_of(word_of(bob_)), U256(0));
}

TEST_F(TokenFixture, TransferMovesFunds) {
  ASSERT_TRUE(call(alice_, token_call_mint(word_of(alice_), U256(1000))).ok());
  EvmResult r = call(alice_, token_call_transfer(word_of(bob_), U256(300)));
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(balance_of(word_of(alice_)), U256(700));
  EXPECT_EQ(balance_of(word_of(bob_)), U256(300));
}

TEST_F(TokenFixture, InsufficientBalanceReverts) {
  ASSERT_TRUE(call(alice_, token_call_mint(word_of(alice_), U256(10))).ok());
  EvmResult r = call(alice_, token_call_transfer(word_of(bob_), U256(11)));
  EXPECT_EQ(r.status, EvmStatus::kRevert);
  EXPECT_EQ(balance_of(word_of(alice_)), U256(10));
  EXPECT_EQ(balance_of(word_of(bob_)), U256(0));
}

TEST_F(TokenFixture, UnknownSelectorReverts) {
  Bytes calldata = U256(99).to_bytes();
  EXPECT_EQ(call(alice_, calldata).status, EvmStatus::kRevert);
}

TEST(Contracts, SpinContractLoops) {
  MapHost host;
  Bytes code = spin_contract();
  Bytes calldata = spin_call(100);
  EvmParams params;
  params.code = as_span(code);
  params.calldata = as_span(calldata);
  EvmResult r = evm_execute(host, params);
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_GT(r.gas_used, 100u * 20);  // at least the loop overhead
}

// ---------------------------------------------------------------------------
// Ledger service

TEST(EvmLedger, CreateThenCall) {
  EvmLedgerService ledger;
  Address sender{{9}};
  CreateTx create;
  create.sender = sender;
  create.code = counter_contract();
  Bytes out = ledger.execute(as_span(encode_create(create)));
  auto created = decode_tx_result(as_span(out));
  ASSERT_TRUE(created.has_value() && created->success);
  ASSERT_EQ(created->output.size(), 20u);
  Address contract;
  std::copy(created->output.begin(), created->output.end(), contract.begin());
  EXPECT_EQ(contract, EvmLedgerService::derive_address(sender, 0));

  CallTx call;
  call.sender = sender;
  call.contract = contract;
  auto result = decode_tx_result(as_span(ledger.execute(as_span(encode_call(call)))));
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->success) << result->error;
  EXPECT_EQ(U256::from_bytes_be(as_span(result->output)), U256(1));
}

TEST(EvmLedger, PerSenderNonces) {
  EvmLedgerService ledger;
  Address a{{1}}, b{{2}};
  CreateTx ca{a, counter_contract()};
  CreateTx cb{b, counter_contract()};
  ledger.execute(as_span(encode_create(ca)));
  ledger.execute(as_span(encode_create(cb)));
  ledger.execute(as_span(encode_create(ca)));
  EXPECT_EQ(ledger.creations_by(a), 2u);
  EXPECT_EQ(ledger.creations_by(b), 1u);
  EXPECT_EQ(ledger.contracts_created(), 3u);
}

TEST(EvmLedger, CallUnknownContractFails) {
  EvmLedgerService ledger;
  CallTx call;
  call.contract.fill(0x77);
  auto result = decode_tx_result(as_span(ledger.execute(as_span(encode_call(call)))));
  ASSERT_TRUE(result.has_value());
  EXPECT_FALSE(result->success);
}

TEST(EvmLedger, DeterministicAcrossReplicas) {
  EvmLedgerService r1, r2;
  Address sender{{3}};
  std::vector<Bytes> ops;
  CreateTx create{sender, token_contract()};
  ops.push_back(encode_create(create));
  Address token = EvmLedgerService::derive_address(sender, 0);
  CallTx mint;
  mint.sender = sender;
  mint.contract = token;
  mint.calldata = token_call_mint(U256(7), U256(500));
  ops.push_back(encode_call(mint));
  for (const Bytes& op : ops) {
    Bytes o1 = r1.execute(as_span(op));
    Bytes o2 = r2.execute(as_span(op));
    EXPECT_EQ(o1, o2);
  }
  EXPECT_EQ(r1.state_digest(), r2.state_digest());
}

TEST(EvmLedger, SnapshotRestore) {
  EvmLedgerService a;
  Address sender{{4}};
  CreateTx create{sender, counter_contract()};
  a.execute(as_span(encode_create(create)));
  CallTx call;
  call.sender = sender;
  call.contract = EvmLedgerService::derive_address(sender, 0);
  a.execute(as_span(encode_call(call)));

  EvmLedgerService b;
  ASSERT_TRUE(b.restore(as_span(a.snapshot())));
  EXPECT_EQ(b.state_digest(), a.state_digest());
  // Continues deterministically after restore.
  Bytes oa = a.execute(as_span(encode_call(call)));
  Bytes ob = b.execute(as_span(encode_call(call)));
  EXPECT_EQ(oa, ob);
}

TEST(EvmLedger, BatchAggregatesGas) {
  EvmLedgerService ledger;
  Address sender{{5}};
  CreateTx create{sender, counter_contract()};
  ledger.execute(as_span(encode_create(create)));
  CallTx call;
  call.sender = sender;
  call.contract = EvmLedgerService::derive_address(sender, 0);
  std::vector<Bytes> txs(10, encode_call(call));
  ledger.execute(as_span(encode_tx_batch(txs)));
  sim::CostModel costs;
  EXPECT_GT(ledger.last_execute_cost_us(costs), 10 * costs.evm_us(21000) / 2);
}

// A batch is flat and is decoded whole before any transaction runs: a
// malformed one returns "malformed batch", runs nothing and is charged one
// transaction's base gas.
void expect_rejected_batch(const Bytes& op) {
  EvmLedgerService ledger;
  Digest empty = ledger.state_digest();
  auto result = decode_tx_result(as_span(ledger.execute(as_span(op))));
  ASSERT_TRUE(result.has_value());
  EXPECT_FALSE(result->success);
  EXPECT_EQ(result->error, "malformed batch");
  EXPECT_EQ(ledger.contracts_created(), 0u);
  EXPECT_EQ(ledger.state_digest(), empty);
  sim::CostModel costs;
  EXPECT_EQ(ledger.last_execute_cost_us(costs), costs.evm_us(21000));
}

Bytes create_op(uint8_t sender) {
  return encode_create(CreateTx{Address{{sender}}, counter_contract()});
}

TEST(EvmLedger, NestedBatchIsRejectedAndRunsNothing) {
  expect_rejected_batch(encode_tx_batch({create_op(1), encode_tx_batch({create_op(2)})}));
}

TEST(EvmLedger, TruncatedOrTrailingBatchRunsNothing) {
  // Three transactions declared: one complete create, then half a length.
  Writer truncated;
  truncated.u8(static_cast<uint8_t>(TxType::kBatch));
  truncated.u32(3);
  truncated.bytes(as_span(create_op(1)));
  truncated.u16(9);
  expect_rejected_batch(std::move(truncated).take());

  Bytes trailing = encode_tx_batch({create_op(1)});
  trailing.push_back(0);
  expect_rejected_batch(trailing);

  Bytes short_create = create_op(2);
  short_create.pop_back();
  expect_rejected_batch(encode_tx_batch({create_op(1), short_create}));
}

TEST(EvmLedger, OversizedBatchCountIsChargedOneTx) {
  Writer w;
  w.u8(static_cast<uint8_t>(TxType::kBatch));
  w.u32(100'000);
  w.u32(0);
  expect_rejected_batch(std::move(w).take());
}

TEST(EvmLedger, DeeplyNestedBatchIsRejectedWithoutRecursion) {
  // 100,000 one-transaction batches, each wrapping the next, around one
  // create; built in one pass (9 header bytes per level).
  constexpr uint32_t kLevels = 100'000;
  Bytes create = create_op(1);
  Writer w;
  for (uint32_t level = kLevels; level > 0; --level) {
    w.u8(static_cast<uint8_t>(TxType::kBatch));
    w.u32(1);
    w.u32(static_cast<uint32_t>(9 * (level - 1) + create.size()));
  }
  w.raw(as_span(create));
  expect_rejected_batch(std::move(w).take());
}

TEST(EvmLedger, FailingTxInABatchKeepsItsOwnResult) {
  // Well-framed transactions run in order even when one fails: the call to
  // a missing contract fails on its own and the creates still land.
  EvmLedgerService ledger;
  CallTx missing;
  missing.contract.fill(0x77);
  Bytes out = ledger.execute(
      as_span(encode_tx_batch({create_op(1), encode_call(missing), create_op(2)})));
  auto last = decode_tx_result(as_span(out));
  ASSERT_TRUE(last.has_value());
  EXPECT_TRUE(last->success);
  EXPECT_EQ(ledger.contracts_created(), 2u);
  out = ledger.execute(as_span(encode_tx_batch({create_op(3), encode_call(missing)})));
  last = decode_tx_result(as_span(out));
  ASSERT_TRUE(last.has_value());
  EXPECT_EQ(last->error, "no such contract");
  EXPECT_EQ(ledger.contracts_created(), 3u);
}

}  // namespace
}  // namespace sbft::evm

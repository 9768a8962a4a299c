// Microbenchmarks for the cryptographic substrates (§III): SHA-256, HMAC,
// RSA, Shoup threshold RSA (sign/verify/combine), the simulated-BLS scheme,
// and Merkle structures. Real wall-clock numbers for this implementation —
// the simulator's CostModel documents the paper-calibrated figures.
#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "crypto/hmac.h"
#include "crypto/rsa.h"
#include "crypto/sha256.h"
#include "crypto/threshold.h"
#include "merkle/merkle_tree.h"

using namespace sbft;
using namespace sbft::crypto;

namespace {

void BM_Sha256(benchmark::State& state) {
  Rng rng(1);
  Bytes data = rng.bytes(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(sha256(as_span(data)));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(1024)->Arg(16384);

void BM_HmacSha256(benchmark::State& state) {
  Rng rng(2);
  Bytes key = rng.bytes(32);
  Bytes data = rng.bytes(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(hmac_sha256(as_span(key), as_span(data)));
  }
}
BENCHMARK(BM_HmacSha256)->Arg(64)->Arg(1024);

void BM_RsaSign(benchmark::State& state) {
  Rng rng(3);
  RsaKeyPair kp = rsa_generate(rng, static_cast<int>(state.range(0)));
  Digest d = sha256("bench");
  for (auto _ : state) {
    benchmark::DoNotOptimize(kp.priv.sign(d));
  }
}
BENCHMARK(BM_RsaSign)->Arg(512)->Arg(1024)->Unit(benchmark::kMicrosecond);

void BM_RsaVerify(benchmark::State& state) {
  Rng rng(4);
  RsaKeyPair kp = rsa_generate(rng, static_cast<int>(state.range(0)));
  Digest d = sha256("bench");
  Bytes sig = kp.priv.sign(d);
  for (auto _ : state) {
    benchmark::DoNotOptimize(kp.pub.verify(d, as_span(sig)));
  }
}
BENCHMARK(BM_RsaVerify)->Arg(512)->Arg(1024)->Unit(benchmark::kMicrosecond);

void BM_ShoupSignShare(benchmark::State& state) {
  Rng rng(5);
  ThresholdScheme s = deal_shoup_rsa(rng, 7, 5, 384);
  Digest d = sha256("share");
  for (auto _ : state) {
    benchmark::DoNotOptimize(s.signers[0]->sign_share(d));
  }
}
BENCHMARK(BM_ShoupSignShare)->Unit(benchmark::kMicrosecond);

void BM_ShoupVerifyShare(benchmark::State& state) {
  Rng rng(6);
  ThresholdScheme s = deal_shoup_rsa(rng, 7, 5, 384);
  Digest d = sha256("share");
  Bytes share = s.signers[0]->sign_share(d);
  for (auto _ : state) {
    benchmark::DoNotOptimize(s.verifier->verify_share(1, d, as_span(share)));
  }
}
BENCHMARK(BM_ShoupVerifyShare)->Unit(benchmark::kMicrosecond);

void BM_ShoupCombine(benchmark::State& state) {
  Rng rng(7);
  uint32_t k = static_cast<uint32_t>(state.range(0));
  ThresholdScheme s = deal_shoup_rsa(rng, k + 2, k, 384);
  Digest d = sha256("combine");
  std::vector<SignatureShare> shares;
  for (uint32_t i = 0; i < k; ++i) {
    shares.push_back({s.signers[i]->signer_id(), s.signers[i]->sign_share(d)});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(s.verifier->combine(d, shares));
  }
}
BENCHMARK(BM_ShoupCombine)->Arg(3)->Arg(5)->Arg(7)->Unit(benchmark::kMillisecond);

void BM_SimBlsSignShare(benchmark::State& state) {
  Rng rng(8);
  ThresholdScheme s = deal_sim_bls(rng, 209, 197);
  Digest d = sha256("share");
  for (auto _ : state) {
    benchmark::DoNotOptimize(s.signers[0]->sign_share(d));
  }
}
BENCHMARK(BM_SimBlsSignShare);

void BM_SimBlsCombine197(benchmark::State& state) {
  Rng rng(9);
  ThresholdScheme s = deal_sim_bls(rng, 209, 197);
  Digest d = sha256("combine");
  std::vector<SignatureShare> shares;
  for (uint32_t i = 0; i < 197; ++i) {
    shares.push_back({s.signers[i]->signer_id(), s.signers[i]->sign_share(d)});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(s.verifier->combine(d, shares));
  }
}
BENCHMARK(BM_SimBlsCombine197)->Unit(benchmark::kMicrosecond);

void BM_BlockMerkleBuild(benchmark::State& state) {
  size_t leaves_count = static_cast<size_t>(state.range(0));
  std::vector<Digest> leaves;
  for (size_t i = 0; i < leaves_count; ++i) {
    leaves.push_back(merkle::leaf_hash(as_span(std::to_string(i))));
  }
  for (auto _ : state) {
    merkle::BlockMerkleTree tree(leaves);
    benchmark::DoNotOptimize(tree.root());
  }
}
BENCHMARK(BM_BlockMerkleBuild)->Arg(64)->Arg(256);

void BM_SmtUpdate(benchmark::State& state) {
  // The churn workload's state at the end of its run, ~3,200 keys, updated
  // in a fixed cycle: the tree keeps its size however many iterations
  // google-benchmark picks.
  constexpr uint64_t kKeys = 3200;
  merkle::SparseMerkleTree tree;
  Rng rng(10);
  std::vector<Bytes> keys;
  for (uint64_t k = 0; k < kKeys; ++k) {
    keys.push_back(rng.bytes(16));
    tree.update(as_span(keys.back()), merkle::leaf_hash(as_span(keys.back())));
  }
  std::vector<Digest> leaves;
  for (int v = 0; v < 256; ++v) leaves.push_back(merkle::leaf_hash(as_span(rng.bytes(32))));
  uint64_t i = 0;
  for (auto _ : state) {
    tree.update(as_span(keys[i * 7919 % kKeys]), leaves[i % leaves.size()]);
    benchmark::DoNotOptimize(tree.root());
    ++i;
  }
}
BENCHMARK(BM_SmtUpdate)->Unit(benchmark::kMicrosecond);

void BM_SmtProveVerify(benchmark::State& state) {
  merkle::SparseMerkleTree tree;
  std::vector<Bytes> keys;
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    keys.push_back(rng.bytes(16));
    tree.update(as_span(keys.back()), merkle::leaf_hash(as_span(keys.back())));
  }
  size_t idx = 0;
  for (auto _ : state) {
    const Bytes& key = keys[idx++ % keys.size()];
    auto proof = tree.prove(as_span(key));
    benchmark::DoNotOptimize(merkle::SparseMerkleTree::verify(
        tree.root(), as_span(key), merkle::leaf_hash(as_span(key)), proof));
  }
}
BENCHMARK(BM_SmtProveVerify)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();

// Substrate microbenchmarks: hashing (streaming, one-shot and batched),
// Ed25519, VRF sortition.

#include <benchmark/benchmark.h>

#include <vector>

#include "common/rng.h"
#include "crypto/ed25519.h"
#include "crypto/provider.h"
#include "crypto/sha256.h"
#include "crypto/sha512.h"
#include "crypto/vrf.h"

namespace {
using namespace porygon;
using namespace porygon::crypto;

void BM_Sha256(benchmark::State& state) {
  Rng rng(1);
  Bytes data = rng.NextBytes(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha256::Hash(data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(1024)->Arg(65536);

// Per-message cost of node-sized hashes, one at a time against the batched
// entry, at the three lengths the hot paths hash: 40-byte tx bodies, 64-byte
// Merkle pairs and 65-byte tagged SMT nodes. Items are messages.
constexpr size_t kBatchMessages = 4096;

void BM_Sha256OneShot(benchmark::State& state) {
  Rng rng(5);
  const size_t length = static_cast<size_t>(state.range(0));
  Bytes messages = rng.NextBytes(length * kBatchMessages);
  for (auto _ : state) {
    for (size_t i = 0; i < kBatchMessages; ++i) {
      benchmark::DoNotOptimize(
          Sha256::Hash(ByteView(messages.data() + i * length, length)));
    }
  }
  state.SetItemsProcessed(state.iterations() * kBatchMessages);
}
BENCHMARK(BM_Sha256OneShot)->Arg(40)->Arg(64)->Arg(65);

void BM_Sha256HashBatch(benchmark::State& state) {
  Rng rng(5);
  const size_t length = static_cast<size_t>(state.range(0));
  Bytes messages = rng.NextBytes(length * kBatchMessages);
  std::vector<Hash256> out(kBatchMessages);
  for (auto _ : state) {
    Sha256::HashBatch(messages.data(), length, kBatchMessages, out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * kBatchMessages);
}
BENCHMARK(BM_Sha256HashBatch)->Arg(40)->Arg(64)->Arg(65);

void BM_Sha512(benchmark::State& state) {
  Rng rng(2);
  Bytes data = rng.NextBytes(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha512::Hash(data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Sha512)->Arg(64)->Arg(65536);

void BM_Ed25519Sign(benchmark::State& state) {
  Rng rng(3);
  KeyPair kp = Ed25519GenerateKeyPair(&rng);
  Bytes msg = rng.NextBytes(112);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Ed25519Sign(kp.private_key, msg));
  }
}
BENCHMARK(BM_Ed25519Sign);

void BM_Ed25519Verify(benchmark::State& state) {
  Rng rng(4);
  KeyPair kp = Ed25519GenerateKeyPair(&rng);
  Bytes msg = rng.NextBytes(112);
  Signature sig = Ed25519Sign(kp.private_key, msg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Ed25519Verify(kp.public_key, msg, sig));
  }
}
BENCHMARK(BM_Ed25519Verify);

void BM_VrfProveAndVerify(benchmark::State& state) {
  Rng rng(5);
  KeyPair kp = Ed25519GenerateKeyPair(&rng);
  Bytes input = rng.NextBytes(40);
  for (auto _ : state) {
    VrfProof p = VrfProve(kp.private_key, input);
    benchmark::DoNotOptimize(VrfVerify(kp.public_key, input, p));
  }
}
BENCHMARK(BM_VrfProveAndVerify);

void BM_FastProviderSign(benchmark::State& state) {
  Rng rng(6);
  FastProvider provider;
  KeyPair kp = provider.GenerateKeyPair(&rng);
  Bytes msg = rng.NextBytes(112);
  for (auto _ : state) {
    benchmark::DoNotOptimize(provider.Sign(kp.private_key, msg));
  }
}
BENCHMARK(BM_FastProviderSign);

}  // namespace

BENCHMARK_MAIN();

// State-substrate microbenchmarks: sparse Merkle tree single vs batched
// updates (the ablation motivating PutBatch), proofs, tree bytes per leaf,
// and the LSM engine.

#include <benchmark/benchmark.h>

#include "common/flat_map.h"
#include "common/rng.h"
#include "state/account.h"
#include "state/smt.h"
#include "state/view.h"
#include "storage/db.h"
#include "storage/env.h"

namespace {
using namespace porygon;
using namespace porygon::state;

void BM_SmtPutSingle(benchmark::State& state) {
  Rng rng(1);
  SparseMerkleTree tree;
  for (int i = 0; i < 10000; ++i) {
    tree.Put(rng.NextU64() % 1'000'000, ToBytes("init"));
  }
  uint64_t k = 0;
  for (auto _ : state) {
    tree.Put(k++ % 1'000'000, ToBytes("value"));
  }
}
BENCHMARK(BM_SmtPutSingle);

void BM_SmtPutBatch(benchmark::State& state) {
  // Batched path amortizes shared path levels: compare items/second here
  // against BM_SmtPutSingle.
  Rng rng(2);
  SparseMerkleTree tree;
  for (int i = 0; i < 10000; ++i) {
    tree.Put(rng.NextU64() % 1'000'000, ToBytes("init"));
  }
  const size_t batch = state.range(0);
  std::vector<std::pair<uint64_t, Bytes>> writes;
  for (size_t i = 0; i < batch; ++i) {
    writes.emplace_back(rng.NextU64() % 1'000'000, ToBytes("value"));
  }
  for (auto _ : state) {
    tree.PutBatch(writes);
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_SmtPutBatch)->Arg(100)->Arg(1000)->Arg(8000);

void BM_SmtProveVerify(benchmark::State& state) {
  Rng rng(3);
  SparseMerkleTree tree;
  for (int i = 0; i < 10000; ++i) {
    tree.Put(i, ToBytes("v" + std::to_string(i)));
  }
  auto root = tree.Root();
  uint64_t k = 0;
  for (auto _ : state) {
    uint64_t key = k++ % 10000;
    auto proof = tree.Prove(key);
    benchmark::DoNotOptimize(SparseMerkleTree::Verify(
        root, key, ToBytes("v" + std::to_string(key)), proof));
  }
}
BENCHMARK(BM_SmtProveVerify);

// Tree memory at the benchmark's shapes: one shard of 8 or 32 (arg: shard
// bits) over ids up to 1M, holding its share of ~451k or ~420k accounts —
// the subtree a storage node keeps — and the partial subtree an ESC member
// rebuilds each Execution Phase from 4,000 proofs (present and absent).
void BM_SmtTreeBytes(benchmark::State& state) {
  const int shard_bits = static_cast<int>(state.range(0));
  const size_t accounts = (shard_bits == 3 ? 451'000 : 420'000) >> shard_bits;
  Rng rng(5);
  auto id = [&] { return rng.NextBelow(1'000'001 >> shard_bits) << shard_bits; };
  SparseMerkleTree full;
  U64Map<Account> values;
  std::vector<std::pair<uint64_t, Bytes>> writes;
  while (values.size() < accounts) {
    const uint64_t key = id();
    const Account account{rng.NextU64() % 1'000'000, 1};
    if (values.Insert(key)) {
      values[key] = account;
      writes.emplace_back(key, EncodeAccount(account));
    }
  }
  full.PutBatch(writes);
  std::vector<uint64_t> touched;
  for (int i = 0; i < 4000; ++i) touched.push_back(id());
  size_t partial_bytes = 0, partial_leaves = 0;
  for (auto _ : state) {
    PartialState partial(shard_bits, 0, full.Root());
    for (uint64_t key : touched) {
      const Account* value = values.Find(key);
      (void)partial.AddOwnAccount(key, value != nullptr,
                                  value != nullptr ? *value : Account{},
                                  full.Prove(key));
    }
    partial_bytes = partial.own_tree().MemoryBytes();
    partial_leaves = partial.own_tree().LeafCount();
    benchmark::DoNotOptimize(partial_bytes);
  }
  state.counters["full_leaves"] = static_cast<double>(full.LeafCount());
  state.counters["full_bytes_per_leaf"] =
      static_cast<double>(full.MemoryBytes()) / full.LeafCount();
  state.counters["partial_leaves"] = static_cast<double>(partial_leaves);
  state.counters["partial_bytes_per_leaf"] =
      static_cast<double>(partial_bytes) / partial_leaves;
  state.counters["partial_bytes_per_account"] =
      static_cast<double>(partial_bytes) / touched.size();
}
BENCHMARK(BM_SmtTreeBytes)->Arg(3)->Arg(5)->Unit(benchmark::kMillisecond);

void BM_DbPut(benchmark::State& state) {
  storage::MemEnv env;
  auto db = storage::Db::Open(&env, "db");
  Rng rng(4);
  uint64_t k = 0;
  for (auto _ : state) {
    std::string key = "key" + std::to_string(k++);
    (void)(*db)->Put(ToBytes(key), ToBytes("value-payload-16B"));
  }
}
BENCHMARK(BM_DbPut);

void BM_DbGet(benchmark::State& state) {
  storage::MemEnv env;
  auto db = storage::Db::Open(&env, "db");
  for (int i = 0; i < 20000; ++i) {
    (void)(*db)->Put(ToBytes("key" + std::to_string(i)), ToBytes("value"));
  }
  (void)(*db)->Flush();
  uint64_t k = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        (*db)->Get(ToBytes("key" + std::to_string(k++ % 20000))));
  }
}
BENCHMARK(BM_DbGet);

}  // namespace

BENCHMARK_MAIN();

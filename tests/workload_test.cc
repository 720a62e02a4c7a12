// Traffic-engine tests: Spec grammar, per-model determinism and shape,
// the uniform model's pinned stream, arrival processes, lazy account
// funding, and scenario-matrix row invariance.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/system.h"
#include "crypto/sha256.h"
#include "workload/scenario.h"
#include "workload/traffic.h"

namespace porygon::workload {
namespace {

std::string Fingerprint(const std::vector<tx::Transaction>& txs) {
  std::string s;
  for (const auto& t : txs) {
    s += std::to_string(t.from) + ">" + std::to_string(t.to) + ":" +
         std::to_string(t.amount) + ":" + std::to_string(t.nonce) + ";";
  }
  return s;
}

TEST(WorkloadSpecTest, ParsesAndRoundTrips) {
  for (const char* text : {
           "uniform,accounts:20000,cross:0.2,seed:11",
           "zipf:0.99,accounts:1000000,seed:6",
           "flashcrowd:64,accounts:100000,hot:0.9,rotate:2000,seed:3",
           "contract:4,accounts:50000,contracts:16,seed:2",
           "zipf:1.1,accounts:5000,arrival:bursty,period:20,duty:0.25,"
           "peak:4,seed:1",
           "uniform,accounts:100,arrival:flash,at:10,dur:5,peak:8,seed:1",
       }) {
    Result<Spec> spec = Spec::Parse(text);
    ASSERT_TRUE(spec.ok()) << text;
    // Canonical form re-parses to the same canonical form.
    Result<Spec> again = Spec::Parse(spec->ToString());
    ASSERT_TRUE(again.ok()) << spec->ToString();
    EXPECT_EQ(spec->ToString(), again->ToString()) << text;
  }
}

TEST(WorkloadSpecTest, RejectsBadClauses) {
  for (const char* text : {
           "zipf:-1",               // Negative exponent.
           "unknownmodel",          // Unknown clause.
           "uniform,zipf:0.9",      // Two model clauses.
           "uniform,accounts:1",    // Too-small account space.
           "uniform,hot:1.5",       // Fraction out of range.
           "uniform,amount:9:2",    // lo > hi.
           "contract:1",            // Fewer than 2 keys per call.
           "uniform,arrival:nope",  // Unknown arrival.
           "flashcrowd:500,accounts:100",  // Hot set exceeds accounts.
           "contract:4,accounts:10,contracts:10",  // No user ids left.
           "uniform,cross:nan",     // Non-finite reals...
           "uniform,arrival:bursty,duty:nan",
           "uniform,accounts:-5",   // ...and signed counts.
       }) {
    Result<Spec> spec = Spec::Parse(text);
    EXPECT_FALSE(spec.ok()) << text;
    if (!spec.ok()) {
      EXPECT_EQ(spec.status().code(), StatusCode::kInvalidArgument) << text;
    }
  }
}

TEST(WorkloadModelTest, SameSeedStreamsAreByteIdentical) {
  for (const char* text : {
           "uniform,accounts:20000,cross:0.2,seed:11",
           "zipf:0.99,accounts:1000000,seed:6",
           "flashcrowd:64,accounts:100000,rotate:200,seed:3",
           "contract:4,accounts:50000,contracts:16,seed:2",
       }) {
    Result<Spec> spec = Spec::Parse(text);
    ASSERT_TRUE(spec.ok()) << text;
    auto a = spec->BuildModel();
    auto b = spec->BuildModel();
    EXPECT_EQ(Fingerprint(a->Batch(500)), Fingerprint(b->Batch(500)))
        << text;
    // And a different seed diverges.
    Spec reseeded = *spec;
    reseeded.seed += 1;
    auto c = reseeded.BuildModel();
    EXPECT_NE(Fingerprint(a->Batch(500)), Fingerprint(c->Batch(500)))
        << text;
  }
}

TEST(WorkloadModelTest, UniformSpecReproducesLegacyGeneratorStream) {
  // Pinned digest of the uniform model's 2,000-transaction fingerprint:
  // every uniform figure drives this stream, so it must not move.
  Result<Spec> spec =
      Spec::Parse("uniform,accounts:30000,cross:0.1,skew:0.6,amount:1:500,"
                  "seed:99");
  ASSERT_TRUE(spec.ok());
  spec->shard_bits = 3;
  auto model = spec->BuildModel();
  EXPECT_EQ(HexEncode(crypto::Sha256::Hash(
                ToBytes(Fingerprint(model->Batch(2000))))),
            "57d1ae3baf72ff811deae2abef2ec0d9c01ebc0b4b18e39daee84a1ced773682");
}

TEST(WorkloadModelTest, ZipfConcentratesMassOnHotAccounts) {
  Result<Spec> spec = Spec::Parse("zipf:0.99,accounts:1000000,seed:7");
  ASSERT_TRUE(spec.ok());
  auto model = spec->BuildModel();
  const int n = 20'000;
  std::map<state::AccountId, int> hits;
  for (const auto& t : model->Batch(n)) {
    ASSERT_GE(t.from, 1u);
    ASSERT_LE(t.from, 1'000'000u);
    ASSERT_GE(t.to, 1u);
    ASSERT_LE(t.to, 1'000'000u);
    ASSERT_NE(t.from, t.to);
    hits[t.from]++;
    hits[t.to]++;
  }
  // Theory: P(rank 1) = 1/H_{1e6}(0.99) ~ 6%, top-10 ~ 19% per endpoint.
  // Under uniform draw each account would get ~0.004% of the mass.
  int top10 = 0;
  for (state::AccountId id = 1; id <= 10; ++id) {
    auto it = hits.find(id);
    if (it != hits.end()) top10 += it->second;
  }
  const double top10_fraction = static_cast<double>(top10) / (2.0 * n);
  EXPECT_GT(top10_fraction, 0.10);
  EXPECT_LT(top10_fraction, 0.35);
}

TEST(WorkloadModelTest, FlashCrowdRotatesHotSets) {
  Result<Spec> spec =
      Spec::Parse("flashcrowd:64,accounts:100000,hot:0.9,rotate:500,seed:4");
  ASSERT_TRUE(spec.ok());
  FlashCrowdTrafficModel model(*spec);
  // The hot window moves between epochs and stays in the account space.
  std::set<state::AccountId> bases;
  for (uint64_t epoch = 0; epoch < 8; ++epoch) {
    state::AccountId base = model.HotBaseFor(epoch * 500);
    EXPECT_GE(base, 1u);
    EXPECT_LE(base + 64, 100'000u + 1);
    bases.insert(base);
  }
  EXPECT_GT(bases.size(), 4u);
  // Within one epoch, ~90% of receivers land in the 64-account window.
  const state::AccountId base = model.HotBaseFor(0);
  int hot = 0;
  const int n = 499;  // Stay inside epoch 0.
  for (const auto& t : model.Batch(n)) {
    if (t.to >= base && t.to < base + 64) ++hot;
  }
  EXPECT_GT(static_cast<double>(hot) / n, 0.75);
}

TEST(WorkloadModelTest, ContractCallsShareOneContractAccount) {
  Result<Spec> spec =
      Spec::Parse("contract:4,accounts:50000,contracts:16,seed:2");
  ASSERT_TRUE(spec.ok());
  auto model = spec->BuildModel();
  // Each call is contract_keys - 1 = 3 consecutive transfers into one
  // contract id in [1, 16]; the call's explicit read/write set is the
  // union of its transfers' {from, to} pairs: 3 users + the contract.
  auto txs = model->Batch(300);
  for (size_t call = 0; call < txs.size() / 3; ++call) {
    std::set<state::AccountId> rw_set;
    const state::AccountId contract = txs[call * 3].to;
    EXPECT_GE(contract, 1u);
    EXPECT_LE(contract, 16u);
    for (size_t i = 0; i < 3; ++i) {
      const auto& t = txs[call * 3 + i];
      EXPECT_EQ(t.to, contract) << "call " << call;
      EXPECT_GT(t.from, 16u);  // Users live above the contract ids.
      rw_set.insert(t.from);
      rw_set.insert(t.to);
    }
    EXPECT_LE(rw_set.size(), 4u);
  }
}

TEST(WorkloadArrivalTest, ShapesAreDeterministicWithMeanNearOne) {
  for (const char* text : {
           "uniform,arrival:constant",
           "uniform,arrival:bursty,period:20,duty:0.25,peak:3",
           "uniform,arrival:diurnal,period:60,peak:2",
           "uniform,arrival:flash,at:20,dur:10,peak:4",
       }) {
    Result<Spec> spec = Spec::Parse(text);
    ASSERT_TRUE(spec.ok()) << text;
    auto a = spec->BuildArrival();
    auto b = spec->BuildArrival();
    size_t total = 0;
    for (int w = 0; w < 24; ++w) {
      const double t0 = w * 5.0;
      EXPECT_EQ(a->CountFor(t0, 5.0, 100.0), b->CountFor(t0, 5.0, 100.0))
          << text;
      total += a->CountFor(t0, 5.0, 100.0);
    }
    // 24 windows x 5 s at base 100 TPS: the long-run mean must stay near
    // the base rate (flash adds a bounded spike on top).
    EXPECT_GT(total, 10'000u) << text;
    EXPECT_LT(total, 16'000u) << text;
  }
  // The flash spike actually fires: the covering window offers peak x.
  ConstantArrival flat;
  FlashArrival flash(20.0, 10.0, 4.0);
  EXPECT_EQ(flat.CountFor(0.0, 5.0, 100.0), 500u);
  EXPECT_EQ(flash.CountFor(20.0, 5.0, 100.0), 2000u);
  EXPECT_EQ(flash.CountFor(0.0, 5.0, 100.0), 500u);
}

TEST(WorkloadLazyFundingTest, MillionAccountsBootstrapAndCommit) {
  core::SystemOptions opt;
  opt.params.shard_bits = 2;
  opt.params.witness_threshold = 2;
  opt.params.execution_threshold = 2;
  opt.params.block_tx_limit = 500;
  opt.num_storage_nodes = 2;
  opt.num_stateless_nodes = 40;
  opt.oc_size = 8;
  opt.seed = 13;
  core::PorygonSystem sys(opt);
  // O(1): no Merkle leaves materialize here.
  sys.CreateAccountsLazy(1'000'000, 1'000'000);
  EXPECT_EQ(sys.canonical_state().TotalAccountCount(), 0u);
  // Untouched ids read the declared balance, but have no leaf: membership
  // stays NotFound, so absence proofs remain valid.
  EXPECT_EQ(sys.canonical_state().GetOrDefault(999'999).balance, 1'000'000u);
  EXPECT_FALSE(sys.canonical_state().GetAccount(999'999).ok());
  EXPECT_EQ(sys.canonical_state().GetOrDefault(1'000'001).balance, 0u);

  Result<Spec> spec = Spec::Parse("zipf:0.9,accounts:1000000,seed:6");
  ASSERT_TRUE(spec.ok());
  spec->shard_bits = opt.params.shard_bits;
  auto model = spec->BuildModel();
  for (int r = 0; r < 8; ++r) {
    sys.SubmitBatch(model->Batch(400));
    sys.Run(1);
  }
  const core::SystemMetrics m = sys.metrics();
  EXPECT_GT(m.committed_txs(), 0u);
  // Storage replay re-executes against the canonical state; a mismatch
  // would mean the implicit-account rule diverged between views.
  EXPECT_EQ(m.replay_mismatches(), 0u);
  // Touched accounts materialized; the vast majority did not.
  EXPECT_GT(sys.canonical_state().TotalAccountCount(), 0u);
  EXPECT_LT(sys.canonical_state().TotalAccountCount(), 20'000u);
}

TEST(WorkloadLazyFundingTest, LazyRunsConserveValueDeterministically) {
  // Lazy funding is not promised to be timing-identical to eager funding
  // (absence proofs and membership proofs have different wire sizes, and
  // network latency is size-dependent), but it must be deterministic for
  // a given seed and must conserve value: transfers within the declared
  // set never mint or burn.
  auto run = [](bool lazy) {
    core::SystemOptions opt;
    opt.params.shard_bits = 1;
    opt.params.witness_threshold = 2;
    opt.params.execution_threshold = 2;
    opt.params.block_tx_limit = 200;
    opt.num_storage_nodes = 2;
    opt.num_stateless_nodes = 26;
    opt.oc_size = 4;
    opt.seed = 5;
    auto sys = std::make_unique<core::PorygonSystem>(opt);
    if (lazy) {
      sys->CreateAccountsLazy(5'000, 10'000);
    } else {
      sys->CreateAccounts(5'000, 10'000);
    }
    Result<Spec> spec = Spec::Parse("uniform,accounts:5000,seed:3");
    EXPECT_TRUE(spec.ok());
    spec->shard_bits = opt.params.shard_bits;
    auto model = spec->BuildModel();
    for (int r = 0; r < 6; ++r) {
      sys->SubmitBatch(model->Batch(150));
      sys->Run(1);
    }
    return sys;
  };
  auto a = run(true);
  auto b = run(true);
  EXPECT_GT(a->metrics().committed_txs(), 0u);
  EXPECT_EQ(a->metrics().committed_txs(), b->metrics().committed_txs());
  EXPECT_EQ(a->metrics().replay_mismatches(), 0u);
  uint64_t total = 0;
  for (state::AccountId id = 1; id <= 5'000; ++id) {
    const state::Account x = a->canonical_state().GetOrDefault(id);
    const state::Account y = b->canonical_state().GetOrDefault(id);
    ASSERT_EQ(x.balance, y.balance) << id;
    ASSERT_EQ(x.nonce, y.nonce) << id;
    total += x.balance;
  }
  EXPECT_EQ(total, 5'000u * 10'000u);
  // The eager path still works and conserves the same total.
  auto eager = run(false);
  uint64_t eager_total = 0;
  for (state::AccountId id = 1; id <= 5'000; ++id) {
    eager_total += eager->canonical_state().GetOrDefault(id).balance;
  }
  EXPECT_EQ(eager_total, 5'000u * 10'000u);
}

TEST(WorkloadScenarioTest, RowsAreThreadInvariant) {
  ScenarioCell cell;
  cell.workload = "zipf:0.99,accounts:1000000,seed:11";
  ScenarioOptions opt;
  opt.rounds = 2;
  opt.offered_tps = 150;
  opt.num_stateless_nodes = 26;
  opt.oc_size = 4;
  opt.block_tx_limit = 300;

  opt.worker_threads = 0;
  Result<std::string> serial = RunScenarioCell(cell, opt);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  opt.worker_threads = 4;
  Result<std::string> threaded = RunScenarioCell(cell, opt);
  ASSERT_TRUE(threaded.ok()) << threaded.status().ToString();
  EXPECT_EQ(*serial, *threaded);
  EXPECT_NE(serial->find("\"committed_txs\""), std::string::npos);
}

TEST(WorkloadScenarioTest, FaultAndAdversaryCellsRun) {
  ScenarioOptions opt;
  opt.rounds = 2;
  opt.offered_tps = 100;
  opt.num_stateless_nodes = 26;
  opt.oc_size = 4;
  opt.block_tx_limit = 200;

  ScenarioCell faulty;
  faulty.workload = "uniform,accounts:2000,seed:11";
  faulty.faults = "loss:0.02,jitter:300,seed:5";
  Result<std::string> frow = RunScenarioCell(faulty, opt);
  ASSERT_TRUE(frow.ok()) << frow.status().ToString();
  EXPECT_NE(frow->find("\"faults\":\"loss:0.02"), std::string::npos);

  ScenarioCell adversarial;
  adversarial.workload = "uniform,accounts:2000,seed:11";
  adversarial.adversary = "stateless:equivocate,alpha:0.2,seed:9";
  Result<std::string> arow = RunScenarioCell(adversarial, opt);
  ASSERT_TRUE(arow.ok()) << arow.status().ToString();
  EXPECT_NE(arow->find("\"evidence\":"), std::string::npos);

  ScenarioCell bad;
  bad.workload = "zipf:-3";
  EXPECT_FALSE(RunScenarioCell(bad, opt).ok());
}

}  // namespace
}  // namespace porygon::workload

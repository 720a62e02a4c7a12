// Deterministic parallel compute runtime: TaskPool semantics, batch crypto
// verification, and the headline invariant — a simulation produces
// byte-identical exports and the same final state root for any worker
// thread count (PORYGON_THREADS ∈ {0, 1, 4}).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/bytes.h"
#include "common/rng.h"
#include "core/system.h"
#include "crypto/provider.h"
#include "crypto/sha256.h"
#include "net/fault.h"
#include "net/network.h"
#include "runtime/task_pool.h"

namespace porygon {
namespace {

// --- TaskPool ---------------------------------------------------------------

TEST(TaskPoolTest, SerialFallbackRunsEveryIndexInOrder) {
  runtime::TaskPool pool(0);
  EXPECT_EQ(pool.thread_count(), 0);
  std::vector<size_t> order;
  pool.ParallelFor(5, [&](size_t i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<size_t>{0, 1, 2, 3, 4}));
  EXPECT_EQ(pool.tasks_run(), 5u);
}

TEST(TaskPoolTest, ParallelRunsEveryIndexExactlyOnce) {
  runtime::TaskPool pool(4);
  EXPECT_EQ(pool.thread_count(), 4);
  constexpr size_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  pool.ParallelFor(kN, [&](size_t i) { hits[i].fetch_add(1); });
  for (size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
  EXPECT_EQ(pool.tasks_run(), kN);
}

TEST(TaskPoolTest, ReusableAcrossBatches) {
  runtime::TaskPool pool(2);
  for (int round = 0; round < 50; ++round) {
    std::vector<uint64_t> out(17, 0);
    pool.ParallelFor(out.size(), [&](size_t i) { out[i] = i * i; });
    for (size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * i);
  }
  EXPECT_EQ(pool.tasks_run(), 50u * 17u);
}

TEST(TaskPoolTest, EmptyBatchIsANoOp) {
  runtime::TaskPool pool(2);
  pool.ParallelFor(0, [&](size_t) { FAIL() << "body must not run"; });
  EXPECT_EQ(pool.tasks_run(), 0u);
}

TEST(TaskPoolTest, ParallelMapMergesInIndexOrder) {
  for (int threads : {0, 3}) {
    runtime::TaskPool pool(threads);
    std::vector<int> out = runtime::ParallelMap<int>(
        &pool, 64, [](size_t i) { return static_cast<int>(i) * 7; });
    ASSERT_EQ(out.size(), 64u);
    for (size_t i = 0; i < out.size(); ++i) {
      EXPECT_EQ(out[i], static_cast<int>(i) * 7);
    }
  }
  // A null pool means "serial on the caller" too.
  std::vector<int> out =
      runtime::ParallelMap<int>(nullptr, 3, [](size_t i) { return (int)i; });
  EXPECT_EQ(out, (std::vector<int>{0, 1, 2}));
}

TEST(TaskPoolTest, LaunchThenJoinRunsEveryIndexExactlyOnce) {
  for (int threads : {2, 4}) {
    runtime::TaskPool pool(threads);
    constexpr size_t kN = 1000;
    std::vector<std::atomic<int>> hits(kN);
    pool.Launch(kN, [&](size_t i) { hits[i].fetch_add(1); });
    pool.Join();
    for (size_t i = 0; i < kN; ++i) {
      EXPECT_EQ(hits[i].load(), 1) << i << " @ " << threads << " threads";
    }
    EXPECT_EQ(pool.tasks_run(), kN);
  }
}

TEST(TaskPoolTest, JoinWithNothingLaunchedIsANoOp) {
  runtime::TaskPool pool(2);
  pool.Join();
  pool.Launch(0, [&](size_t) { FAIL() << "body must not run"; });
  pool.Join();
  EXPECT_EQ(pool.tasks_run(), 0u);
}

TEST(TaskPoolTest, LaunchWithoutWorkersRunsInlineInIndexOrder) {
  runtime::TaskPool pool(0);
  std::vector<size_t> order;
  pool.Launch(5, [&](size_t i) { order.push_back(i); });
  // Already complete before Join: one code path at every thread count.
  EXPECT_EQ(order, (std::vector<size_t>{0, 1, 2, 3, 4}));
  pool.Join();
  EXPECT_EQ(order.size(), 5u);
  EXPECT_EQ(pool.tasks_run(), 5u);
}

TEST(TaskPoolTest, ParallelForDuringLaunchRunsOnCallerWithoutJoining) {
  runtime::TaskPool pool(2);
  constexpr size_t kLaunched = 8;
  std::atomic<bool> release{false};
  std::atomic<size_t> launched_done{0};
  // Launched bodies hold until released (bounded, so a broken pool fails
  // instead of hanging): none can finish before ParallelFor returns unless
  // ParallelFor joined the batch.
  pool.Launch(kLaunched, [&](size_t) {
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!release.load() && std::chrono::steady_clock::now() < give_up) {
      std::this_thread::yield();
    }
    launched_done.fetch_add(1);
  });
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<size_t> order;
  bool all_on_caller = true;
  pool.ParallelFor(6, [&](size_t i) {
    order.push_back(i);
    all_on_caller = all_on_caller && std::this_thread::get_id() == caller;
  });
  EXPECT_EQ(order, (std::vector<size_t>{0, 1, 2, 3, 4, 5}));
  EXPECT_TRUE(all_on_caller);
  EXPECT_EQ(launched_done.load(), 0u);
  release.store(true);
  pool.Join();
  EXPECT_EQ(launched_done.load(), kLaunched);
  EXPECT_EQ(pool.tasks_run(), kLaunched + 6);
  // The workers serve fork-join batches again once the launch is joined.
  std::vector<std::atomic<int>> hits(64);
  pool.ParallelFor(hits.size(), [&](size_t i) { hits[i].fetch_add(1); });
  for (size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

// One index runs on the caller, as the serial path runs it, with the
// workers left asleep; it still counts as one task.
TEST(TaskPoolTest, SingleIndexRunsOnTheCaller) {
  runtime::TaskPool pool(2);
  const std::thread::id caller = std::this_thread::get_id();
  constexpr int kBatches = 200;
  for (int batch = 0; batch < kBatches; ++batch) {
    std::vector<size_t> order;
    std::thread::id ran_on;
    pool.ParallelFor(1, [&](size_t i) {
      order.push_back(i);
      ran_on = std::this_thread::get_id();
    });
    ASSERT_EQ(order, (std::vector<size_t>{0})) << batch;
    ASSERT_EQ(ran_on, caller) << batch;
    ASSERT_EQ(pool.tasks_run(), static_cast<uint64_t>(batch) + 1);
  }
}

TEST(TaskPoolTest, SecondLaunchJoinsTheFirst) {
  runtime::TaskPool pool(2);
  constexpr size_t kN = 64;
  std::vector<std::atomic<int>> first(kN);
  std::vector<std::atomic<int>> second(kN);
  pool.Launch(kN, [&](size_t i) {
    std::this_thread::sleep_for(std::chrono::microseconds(50));
    first[i].fetch_add(1);
  });
  pool.Launch(kN, [&](size_t i) { second[i].fetch_add(1); });
  // The second Launch returned, so the first batch is complete.
  for (size_t i = 0; i < kN; ++i) EXPECT_EQ(first[i].load(), 1) << i;
  pool.Join();
  for (size_t i = 0; i < kN; ++i) EXPECT_EQ(second[i].load(), 1) << i;
  EXPECT_EQ(pool.tasks_run(), 2 * kN);
}

TEST(TaskPoolTest, DestructorJoinsAnOutstandingBatch) {
  constexpr size_t kN = 32;
  std::atomic<size_t> done{0};
  {
    runtime::TaskPool pool(2);
    pool.Launch(kN, [&](size_t) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      done.fetch_add(1);
    });
  }
  EXPECT_EQ(done.load(), kN);
}

TEST(TaskPoolTest, ResolveThreadsPrefersEnvOverRequested) {
  unsetenv("PORYGON_THREADS");
  EXPECT_EQ(runtime::TaskPool::ResolveThreads(3), 3);
  EXPECT_EQ(runtime::TaskPool::ResolveThreads(-2), 0);

  setenv("PORYGON_THREADS", "7", 1);
  EXPECT_EQ(runtime::TaskPool::ResolveThreads(3), 7);
  setenv("PORYGON_THREADS", "0", 1);
  EXPECT_EQ(runtime::TaskPool::ResolveThreads(3), 0);
  // Garbage and out-of-range values fall back to the requested count.
  setenv("PORYGON_THREADS", "lots", 1);
  EXPECT_EQ(runtime::TaskPool::ResolveThreads(3), 3);
  setenv("PORYGON_THREADS", "-1", 1);
  EXPECT_EQ(runtime::TaskPool::ResolveThreads(3), 3);
  unsetenv("PORYGON_THREADS");
}

// --- Batch crypto verification ----------------------------------------------

TEST(VerifyBatchTest, MatchesSerialVerifyIncludingFailures) {
  for (int threads : {0, 4}) {
    crypto::FastProvider provider;
    runtime::TaskPool pool(threads);
    provider.SetTaskPool(&pool);

    Rng rng(42);
    std::vector<crypto::KeyPair> keys;
    for (int i = 0; i < 8; ++i) keys.push_back(provider.GenerateKeyPair(&rng));

    std::vector<crypto::CryptoProvider::VerifyJob> jobs;
    std::vector<uint8_t> expected;
    for (int i = 0; i < 8; ++i) {
      Bytes msg = ToBytes("message " + std::to_string(i));
      crypto::Signature sig =
          provider.Sign(keys[i].private_key, ByteView(msg));
      if (i % 3 == 1) sig[0] ^= 0xff;  // Corrupt every third signature.
      jobs.push_back({keys[i].public_key, msg, sig});
      expected.push_back(i % 3 == 1 ? 0 : 1);
    }
    EXPECT_EQ(provider.VerifyBatch(jobs), expected) << threads << " threads";
    EXPECT_TRUE(provider.VerifyBatch({}).empty());
  }
}

TEST(VerifyBatchTest, ProofBatchMatchesSerialVerifyProof) {
  for (int threads : {0, 4}) {
    crypto::FastProvider provider;
    runtime::TaskPool pool(threads);
    provider.SetTaskPool(&pool);

    Rng rng(7);
    std::vector<crypto::CryptoProvider::ProofVerifyJob> jobs;
    std::vector<uint8_t> expected;
    for (int i = 0; i < 6; ++i) {
      crypto::KeyPair kp = provider.GenerateKeyPair(&rng);
      Bytes input = ToBytes("round " + std::to_string(i));
      crypto::VrfProof proof =
          provider.Prove(kp.private_key, ByteView(input));
      if (i == 2) proof.output[0] ^= 0x01;  // Tampered output.
      jobs.push_back({kp.public_key, input, proof});
      expected.push_back(i == 2 ? 0 : 1);
    }
    EXPECT_EQ(provider.VerifyProofBatch(jobs), expected)
        << threads << " threads";
  }
}

// --- Thread-count invariance (the tentpole's acceptance test) ---------------

namespace invariance {

struct RunArtifacts {
  std::string metrics_json;
  std::string trace_json;
  crypto::Hash256 global_root{};
  crypto::Hash256 chain_tip{};
  size_t chain_length = 0;
  uint64_t storage_rejoins = 0;
  double sim_seconds = 0;
};

core::SystemOptions ScenarioOptions(int worker_threads) {
  // fig8c-style open workload: mixed intra- and cross-shard transfers over
  // a 2-shard deployment, tracing enabled.
  core::SystemOptions opt;
  opt.params.shard_bits = 1;
  opt.params.witness_threshold = 2;
  opt.params.execution_threshold = 2;
  opt.params.block_tx_limit = 50;
  opt.params.storage_connections = 2;
  opt.num_storage_nodes = 2;
  opt.num_stateless_nodes = 26;
  opt.oc_size = 4;
  opt.blocks_per_shard_round = 2;
  opt.seed = 33;
  opt.trace.enabled = true;
  opt.trace.sample_transactions = 8;
  opt.worker_threads = worker_threads;
  return opt;
}

// `steady_traffic` adds a few transfers every 400 ms of sim time on top of
// the opening burst, so every exec round writes accounts that the next
// round's state requests read.
RunArtifacts RunScenario(const core::SystemOptions& opt,
                         const net::FaultPlan& plan = {},
                         bool steady_traffic = false) {
  core::PorygonSystem sys(opt);
  sys.CreateAccounts(60, 10'000);
  Rng rng(99);
  std::map<uint64_t, uint64_t> nonces;
  auto submit = [&](int attempts) {
    for (int i = 0; i < attempts; ++i) {
      uint64_t from = 1 + rng.NextBelow(60);
      uint64_t to = 1 + rng.NextBelow(60);
      if (from == to) continue;
      tx::Transaction t;
      t.from = from;
      t.to = to;
      t.amount = 1;
      t.nonce = nonces[from];
      if (sys.SubmitTransaction(t).ok()) ++nonces[from];
    }
  };
  submit(80);
  std::function<void()> tick = [&] {
    submit(6);
    sys.events()->ScheduleAfter(net::FromMillis(400), tick);
  };
  if (steady_traffic) sys.events()->ScheduleAfter(net::FromMillis(400), tick);
  if (!plan.empty()) {
    EXPECT_TRUE(sys.InjectFaults(plan).ok());
  }
  sys.Run(10, net::FromSeconds(600));

  RunArtifacts out;
  out.metrics_json = sys.metrics().ToJson();
  out.trace_json = sys.tracer()->ExportChromeJson();
  out.global_root = sys.canonical_state().GlobalRoot();
  out.chain_tip = sys.chain().back().Hash();
  EXPECT_EQ(sys.tip().hash, out.chain_tip);
  out.chain_length = sys.chain().size();
  out.storage_rejoins =
      sys.metrics_registry()->FindCounter("core.storage_rejoins", {})->value();
  out.sim_seconds = sys.sim_seconds();
  return out;
}

RunArtifacts RunScenario(int worker_threads) {
  return RunScenario(ScenarioOptions(worker_threads));
}

TEST(ThreadInvarianceTest, ExportsAreByteIdenticalForAnyThreadCount) {
  unsetenv("PORYGON_THREADS");  // Options drive the thread count below.
  const RunArtifacts serial = RunScenario(0);
  ASSERT_FALSE(serial.metrics_json.empty());
  ASSERT_FALSE(serial.trace_json.empty());
  // The runtime phases must show up in the (deterministic) export.
  EXPECT_NE(serial.metrics_json.find("runtime.tasks"), std::string::npos);
  // Volatile wall-clock gauges must NOT leak into exports.
  EXPECT_EQ(serial.metrics_json.find("runtime.wall_us"), std::string::npos);

  // End-to-end digests of the serial run, pinned: a change that moves a
  // sim number, the chain or the state must re-pin them and say why.
  EXPECT_EQ(HexEncode(serial.chain_tip),
            "6627a27cfdf92be7989085ab91b06aa0a315e37dcafc13bda0805a7c3d898235");
  EXPECT_EQ(HexEncode(serial.global_root),
            "f798ee9c4abaca68dfc0bf4d2aa09d3ecb82ee0d7fac98e6a20f992a2cd91aa0");
  EXPECT_EQ(HexEncode(crypto::Sha256::Hash(ToBytes(serial.metrics_json))),
            "55c6f42b59e2b991cf523e0e30a2fc422e54a9366909411ecaf0a8ae40549421");

  for (int threads : {1, 4}) {
    const RunArtifacts run = RunScenario(threads);
    EXPECT_EQ(run.metrics_json, serial.metrics_json) << threads << " threads";
    EXPECT_EQ(run.trace_json, serial.trace_json) << threads << " threads";
    EXPECT_EQ(run.global_root, serial.global_root) << threads << " threads";
    EXPECT_EQ(run.chain_tip, serial.chain_tip) << threads << " threads";
    EXPECT_EQ(run.sim_seconds, serial.sim_seconds) << threads << " threads";
  }
}

TEST(ThreadInvarianceTest, PipelinedExecutionMatchesSerial) {
  // Canonical execution runs on the pool behind the event loop and settles
  // at the first state read. Faithful ESCs check every state proof against
  // the committed roots, so a read that raced ahead of the settle (or a
  // settle missed across a storage crash and rejoin) would change what they
  // execute, and with it every export; under TSan it is a reported race.
  unsetenv("PORYGON_THREADS");
  net::FaultPlan plan;
  plan.crashes.push_back({0, net::FromSeconds(5), false});
  plan.crashes.push_back({0, net::FromSeconds(12), true});
  auto run = [&](int threads) {
    core::SystemOptions opt = ScenarioOptions(threads);
    opt.faithful_execution = true;
    opt.num_storage_nodes = 3;
    return RunScenario(opt, plan, /*steady_traffic=*/true);
  };
  const RunArtifacts serial = run(0);
  ASSERT_FALSE(serial.metrics_json.empty());
  // Every round committed, and storage node 0 went down and came back.
  EXPECT_EQ(serial.chain_length, 11u);
  EXPECT_EQ(serial.storage_rejoins, 1u);
  for (int threads : {1, 4}) {
    const RunArtifacts pooled = run(threads);
    EXPECT_EQ(pooled.metrics_json, serial.metrics_json)
        << threads << " threads";
    EXPECT_EQ(pooled.trace_json, serial.trace_json) << threads << " threads";
    EXPECT_EQ(pooled.global_root, serial.global_root)
        << threads << " threads";
    EXPECT_EQ(pooled.chain_tip, serial.chain_tip) << threads << " threads";
    EXPECT_EQ(pooled.sim_seconds, serial.sim_seconds)
        << threads << " threads";
  }
}

TEST(ThreadInvarianceTest, LaunchOutlivesRunAndSettlesAtItsReader) {
  // Fast mode launches each committed block's execution at its commit, so
  // Run() returns with the last one outstanding. canonical_state() settles
  // it, and so does CreateAccounts, which writes what its bodies read:
  // under TSan a reader that skipped the settle is a reported race, and at
  // any width it would change the exports below.
  unsetenv("PORYGON_THREADS");
  struct Outcome {
    std::string metrics_json;
    crypto::Hash256 root_after_first_run{};
    crypto::Hash256 global_root{};
    crypto::Hash256 chain_tip{};
    uint64_t supply = 0;
  };
  auto run = [](int threads) {
    core::SystemOptions opt = ScenarioOptions(threads);
    opt.trace.enabled = false;
    core::PorygonSystem sys(opt);
    sys.CreateAccounts(60, 10'000);
    Rng rng(5);
    std::map<uint64_t, uint64_t> nonces;
    auto submit = [&](int attempts) {
      for (int i = 0; i < attempts; ++i) {
        tx::Transaction t;
        t.from = 1 + rng.NextBelow(60);
        t.to = 1 + rng.NextBelow(60);
        t.amount = 1;
        t.nonce = nonces[t.from];
        if (t.from != t.to && sys.SubmitTransaction(t).ok()) ++nonces[t.from];
      }
    };
    Outcome out;
    submit(40);
    sys.Run(3, net::FromSeconds(600));
    // B_3's execution was launched at its commit and nothing read round 3.
    EXPECT_EQ(sys.launched_exec_round(), std::optional<uint64_t>(3))
        << threads << " threads";
    out.root_after_first_run = sys.canonical_state().GlobalRoot();
    EXPECT_EQ(sys.launched_exec_round(), std::nullopt)
        << threads << " threads";

    submit(40);
    sys.Run(1, net::FromSeconds(600));
    EXPECT_EQ(sys.launched_exec_round(), std::optional<uint64_t>(4))
        << threads << " threads";
    // New accounts land in the shards the launched bodies write.
    sys.CreateAccounts(20, 500);
    EXPECT_EQ(sys.launched_exec_round(), std::nullopt)
        << threads << " threads";
    for (uint64_t id = 61; id <= 80; ++id) {
      EXPECT_EQ(sys.canonical_state().GetOrDefault(id).balance, 500u) << id;
    }
    submit(40);
    sys.Run(4, net::FromSeconds(600));
    out.metrics_json = sys.metrics().ToJson();
    out.global_root = sys.canonical_state().GlobalRoot();
    out.chain_tip = sys.chain().back().Hash();
    out.supply = sys.canonical_state().TotalSupply();
    EXPECT_EQ(out.supply, sys.funded_supply()) << threads << " threads";
    EXPECT_EQ(sys.chain().size(), 9u) << threads << " threads";
    return out;
  };
  const Outcome serial = run(0);
  EXPECT_GT(serial.metrics_json.size(), 0u);
  for (int threads : {2, 4}) {
    const Outcome pooled = run(threads);
    EXPECT_EQ(pooled.metrics_json, serial.metrics_json)
        << threads << " threads";
    EXPECT_EQ(pooled.root_after_first_run, serial.root_after_first_run)
        << threads << " threads";
    EXPECT_EQ(pooled.global_root, serial.global_root) << threads << " threads";
    EXPECT_EQ(pooled.chain_tip, serial.chain_tip) << threads << " threads";
  }
}

TEST(ThreadInvarianceTest, ReaderOfAnOlderRoundDoesNotJoin) {
  // SettledExec(q) joins only a launch of round q or earlier: after B_q
  // commits, round q-1's results come from the cache and the launch of
  // round q keeps running; round q's reader settles it.
  unsetenv("PORYGON_THREADS");
  core::SystemOptions opt = ScenarioOptions(2);
  opt.trace.enabled = false;
  core::PorygonSystem sys(opt);
  sys.CreateAccounts(60, 10'000);
  for (uint64_t from = 1; from <= 20; ++from) {
    tx::Transaction t;
    t.from = from;
    t.to = from + 20;
    t.amount = 1;
    ASSERT_TRUE(sys.SubmitTransaction(t).ok());
  }
  sys.Run(4, net::FromSeconds(600));
  ASSERT_EQ(sys.launched_exec_round(), std::optional<uint64_t>(4));
  const core::PorygonSystem::CachedExec* older = sys.SettledExec(3);
  ASSERT_NE(older, nullptr);
  EXPECT_EQ(older->results.size(), 2u);
  EXPECT_EQ(sys.launched_exec_round(), std::optional<uint64_t>(4));
  const core::PorygonSystem::CachedExec* current = sys.SettledExec(4);
  EXPECT_EQ(sys.launched_exec_round(), std::nullopt);
  ASSERT_NE(current, nullptr);
  EXPECT_EQ(current->results.size(), 2u);
  // Round 4's roots are the canonical shard roots now.
  for (uint32_t d = 0; d < 2; ++d) {
    EXPECT_EQ(current->results[d].shard_root,
              sys.canonical_state().ShardRoot(d))
        << d;
  }
}

TEST(ThreadInvarianceTest, EnvVariableOverridesConfiguredThreads) {
  unsetenv("PORYGON_THREADS");
  const RunArtifacts serial = RunScenario(0);
  setenv("PORYGON_THREADS", "4", 1);
  const RunArtifacts env_run = RunScenario(0);
  unsetenv("PORYGON_THREADS");
  EXPECT_EQ(env_run.metrics_json, serial.metrics_json);
  EXPECT_EQ(env_run.global_root, serial.global_root);
}

}  // namespace invariance

}  // namespace
}  // namespace porygon

// Deterministic parallel compute runtime: TaskPool semantics, batch crypto
// verification, and the headline invariant — a simulation produces
// byte-identical exports and the same final state root for any worker
// thread count (PORYGON_THREADS ∈ {0, 1, 4}).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
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

TEST(TaskPoolTest, JobWithoutWorkersRunsInsideItsWait) {
  runtime::TaskPool pool(0);
  int runs = 0;
  auto job = std::make_shared<runtime::TaskPool::Job>([&] { ++runs; });
  pool.Submit(job, runtime::TaskPool::JobClass::kBackground);
  EXPECT_EQ(runs, 0);  // Nothing runs behind the caller's back.
  pool.Wait(job.get());
  pool.Wait(job.get());
  EXPECT_EQ(runs, 1);
  auto dropped = std::make_shared<runtime::TaskPool::Job>([&] { ++runs; });
  pool.Submit(dropped);
  runtime::TaskPool::Cancel(dropped.get());
  pool.Wait(dropped.get());
  EXPECT_EQ(runs, 1);
}

// Spins until `flag` is set, for at most 10 s, so a broken pool fails the
// test instead of hanging it. Returns whether the flag was set.
bool SpinUntil(const std::atomic<bool>& flag) {
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!flag.load()) {
    if (std::chrono::steady_clock::now() > give_up) return false;
    std::this_thread::yield();
  }
  return true;
}

// A job that holds the worker running it until `release` is set; `busy`
// tells the test a worker has started it.
std::shared_ptr<runtime::TaskPool::Job> HoldingJob(std::atomic<bool>* busy,
                                                   std::atomic<bool>* release) {
  return std::make_shared<runtime::TaskPool::Job>([busy, release] {
    busy->store(true);
    SpinUntil(*release);
  });
}

using JobClass = runtime::TaskPool::JobClass;

TEST(TaskPoolTest, BackgroundJobStartsAfterTheQueuedFrontJobs) {
  runtime::TaskPool pool(1);
  std::atomic<bool> busy{false};
  std::atomic<bool> release{false};
  auto hold = HoldingJob(&busy, &release);
  pool.Submit(hold, JobClass::kBackground);
  ASSERT_TRUE(SpinUntil(busy));
  // Queued behind the held worker: a background job, then two front jobs.
  std::mutex mu;
  std::vector<int> order;
  std::atomic<int> ran{0};
  std::atomic<bool> all_ran{false};
  auto noting = [&](int what) {
    return std::make_shared<runtime::TaskPool::Job>([&, what] {
      {
        std::lock_guard<std::mutex> lock(mu);
        order.push_back(what);
      }
      if (ran.fetch_add(1) + 1 == 3) all_ran.store(true);
    });
  };
  auto background = noting(0);
  auto front1 = noting(1);
  auto front2 = noting(2);
  pool.Submit(background, JobClass::kBackground);
  pool.Submit(front1);
  pool.Submit(front2);
  release.store(true);
  ASSERT_TRUE(SpinUntil(all_ran));
  std::lock_guard<std::mutex> lock(mu);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 0}));
}

TEST(TaskPoolTest, WaitOnARunningJobTakesQueuedFrontJobs) {
  runtime::TaskPool pool(1);
  std::atomic<bool> busy{false};
  std::atomic<bool> release{false};
  auto running = HoldingJob(&busy, &release);
  pool.Submit(running, JobClass::kBackground);
  ASSERT_TRUE(SpinUntil(busy));
  // The held worker can run neither front job; the last one releases it.
  std::thread::id ran_on[2];
  auto first = std::make_shared<runtime::TaskPool::Job>(
      [&] { ran_on[0] = std::this_thread::get_id(); });
  auto last = std::make_shared<runtime::TaskPool::Job>([&] {
    ran_on[1] = std::this_thread::get_id();
    release.store(true);
  });
  // A queued background job is left to the worker.
  std::atomic<bool> other_ran{false};
  std::thread::id other_on;
  auto other = std::make_shared<runtime::TaskPool::Job>([&] {
    other_on = std::this_thread::get_id();
    other_ran.store(true);
  });
  pool.Submit(other, JobClass::kBackground);
  pool.Submit(first);
  pool.Submit(last);
  pool.Wait(running.get());
  const std::thread::id caller = std::this_thread::get_id();
  EXPECT_EQ(ran_on[0], caller);
  EXPECT_EQ(ran_on[1], caller);
  ASSERT_TRUE(SpinUntil(other_ran));
  EXPECT_NE(other_on, caller);
}

TEST(TaskPoolTest, ParallelForFansOutWhileBackgroundJobsAreQueued) {
  runtime::TaskPool pool(1);
  std::atomic<bool> busy{false};
  std::atomic<bool> release{false};
  auto hold = HoldingJob(&busy, &release);
  pool.Submit(hold, JobClass::kBackground);
  ASSERT_TRUE(SpinUntil(busy));
  std::atomic<bool> background_started{false};
  std::vector<std::shared_ptr<runtime::TaskPool::Job>> queued;
  for (int k = 0; k < 3; ++k) {
    queued.push_back(std::make_shared<runtime::TaskPool::Job>(
        [&] { background_started.store(true); }));
    pool.Submit(queued.back(), JobClass::kBackground);
  }
  // The caller claims index 0, frees the worker and holds the index until
  // index 1 starts on the worker, which must take it ahead of the queued
  // background jobs.
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<bool> index_on_worker{false};
  bool background_first = false;
  pool.ParallelFor(2, [&](size_t) {
    if (std::this_thread::get_id() == caller) {
      release.store(true);
      SpinUntil(index_on_worker);
    } else {
      background_first = background_started.load();
      index_on_worker.store(true);
    }
  });
  EXPECT_TRUE(index_on_worker.load());
  EXPECT_FALSE(background_first);
  EXPECT_EQ(pool.tasks_run(), 2u);
  for (const auto& job : queued) pool.Wait(job.get());
  EXPECT_TRUE(background_started.load());
}

TEST(TaskPoolTest, TeardownDropsUnstartedJobsAndReleasesTheirClosures) {
  std::atomic<bool> busy{false};
  std::atomic<bool> release{false};
  std::atomic<int> runs{0};
  auto pool = std::make_unique<runtime::TaskPool>(1);
  auto hold = HoldingJob(&busy, &release);
  pool->Submit(hold, JobClass::kBackground);
  ASSERT_TRUE(SpinUntil(busy));
  std::vector<std::shared_ptr<runtime::TaskPool::Job>> jobs;
  std::vector<std::weak_ptr<int>> tokens;
  for (JobClass job_class : {JobClass::kFront, JobClass::kBackground}) {
    auto token = std::make_shared<int>(0);
    tokens.push_back(token);
    jobs.push_back(std::make_shared<runtime::TaskPool::Job>(
        [&runs, token] { runs.fetch_add(1); }));
    pool->Submit(jobs.back(), job_class);
  }
  // The destructor drops the queued jobs before it waits for the held
  // worker, so their closures (and tokens) go while the worker still holds.
  std::thread teardown([&] { pool.reset(); });
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  auto released = [&] { return tokens[0].expired() && tokens[1].expired(); };
  while (!released() && std::chrono::steady_clock::now() < give_up) {
    std::this_thread::yield();
  }
  EXPECT_TRUE(released());
  release.store(true);
  teardown.join();
  EXPECT_EQ(runs.load(), 0);  // The worker saw the stop, not the queue.
  for (const auto& job : jobs) runtime::TaskPool::Cancel(job.get());
}

// Jobs of both classes submitted and waited on (or cancelled) from the
// caller while fork-join batches interleave, rounds of background jobs are
// launched and waited for in full, and the pool is torn down with jobs
// still queued: every job runs at most once and exactly once if it was
// waited for, its result is complete after its Wait, and its closure (here
// a token) is released once it is done or dropped.
TEST(TaskPoolTest, JobsInterleaveWithBatchesLaunchesAndTeardown) {
  constexpr size_t kJobs = 300;
  for (int threads : {0, 1, 4}) {
    for (int rep = 0; rep < 8; ++rep) {
      SCOPED_TRACE(::testing::Message() << threads << " workers, rep " << rep);
      std::vector<std::atomic<int>> runs(kJobs);
      std::vector<uint64_t> out(kJobs, 0);
      std::vector<std::shared_ptr<runtime::TaskPool::Job>> jobs;
      std::vector<std::weak_ptr<int>> tokens;
      std::vector<bool> cancelled(kJobs, false);
      std::vector<bool> waited(kJobs, false);
      std::vector<uint64_t> launched(64, 0);
      std::vector<std::shared_ptr<runtime::TaskPool::Job>> round;
      auto pool = std::make_unique<runtime::TaskPool>(threads);
      auto launch = [&] {
        round.clear();
        for (size_t i = 0; i < launched.size(); ++i) {
          round.push_back(std::make_shared<runtime::TaskPool::Job>([&, i] {
            uint64_t v = i;
            for (int k = 0; k < 2000; ++k) v = v * 6364136223846793005ull + 1;
            launched[i] = v | 1;
          }));
          pool->Submit(round.back(), JobClass::kBackground);
        }
      };
      launch();
      for (size_t j = 0; j < kJobs; ++j) {
        auto token = std::make_shared<int>(static_cast<int>(j));
        tokens.push_back(token);
        auto job = std::make_shared<runtime::TaskPool::Job>(
            [&runs, &out, j, token] {
              uint64_t v = static_cast<uint64_t>(*token);
              for (int k = 0; k < 500; ++k) v = v * 2862933555777941757ull + 3;
              out[j] = v;
              runs[j].fetch_add(1);
            });
        pool->Submit(job);
        jobs.push_back(std::move(job));
        if (j % 17 == 0) {
          std::vector<int> fork(8, 0);
          pool->ParallelFor(fork.size(), [&](size_t i) { fork[i] = 1; });
          EXPECT_EQ(std::count(fork.begin(), fork.end(), 1), 8);
        }
        if (j % 29 == 0) {
          pool->Wait(jobs[j / 2].get());
          waited[j / 2] = !cancelled[j / 2];
        }
        if (j % 31 == 0 && !waited[j]) {
          runtime::TaskPool::Cancel(jobs[j].get());
          cancelled[j] = true;
        }
        if (j % 97 == 0) {
          for (const auto& b : round) pool->Wait(b.get());
          for (uint64_t v : launched) EXPECT_EQ(v & 1, 1u);
          std::fill(launched.begin(), launched.end(), 0);
          launch();
        }
      }
      // Tear the pool down with jobs of both classes still queued: the
      // unstarted ones are dropped, so a later Cancel returns at once.
      pool.reset();
      for (uint64_t v : launched) EXPECT_TRUE(v == 0 || (v & 1) == 1);
      for (size_t j = 0; j < kJobs; ++j) {
        runtime::TaskPool::Cancel(jobs[j].get());
        EXPECT_TRUE(tokens[j].expired()) << j;
        EXPECT_LE(runs[j].load(), 1) << j;
        if (waited[j]) EXPECT_EQ(runs[j].load(), 1) << j;
        if (runs[j].load() == 0) continue;
        uint64_t v = j;
        for (int k = 0; k < 500; ++k) v = v * 2862933555777941757ull + 3;
        EXPECT_EQ(out[j], v) << j;
      }
    }
  }
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
            "5f407d68be5531f50fce60e0846239c6506ca9d0d1be31b0874ca964f682adee");

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
  // Fast mode launches each committed block's execution at its commit, one
  // job per shard, so Run() returns with the last one outstanding. A shard
  // reader waits for its own shard's job and leaves the execution
  // outstanding; canonical_state() settles it, and so does CreateAccounts,
  // which writes what the shard jobs read: under TSan a reader that skipped
  // the settle is a reported race, and at any width it would change the
  // exports below.
  unsetenv("PORYGON_THREADS");
  struct Outcome {
    std::string metrics_json;
    crypto::Hash256 root_after_first_run{};
    crypto::Hash256 shard_root_read_early{};
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
    // Shard 1's reader leaves the execution outstanding.
    const core::ExecutionResult* early = sys.SettledShardExec(4, 1);
    EXPECT_NE(early, nullptr) << threads << " threads";
    if (early != nullptr) out.shard_root_read_early = early->shard_root;
    EXPECT_EQ(sys.launched_exec_round(), std::optional<uint64_t>(4))
        << threads << " threads";
    // New accounts land in the shards the shard jobs write.
    sys.CreateAccounts(20, 500);
    EXPECT_EQ(sys.launched_exec_round(), std::nullopt)
        << threads << " threads";
    const core::PorygonSystem::CachedExec* settled = sys.SettledExec(4);
    EXPECT_NE(settled, nullptr) << threads << " threads";
    if (settled != nullptr) {
      EXPECT_EQ(settled->results[1].shard_root, out.shard_root_read_early)
          << threads << " threads";
    }
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
  for (int threads : {1, 2, 4}) {
    const Outcome pooled = run(threads);
    EXPECT_EQ(pooled.metrics_json, serial.metrics_json)
        << threads << " threads";
    EXPECT_EQ(pooled.root_after_first_run, serial.root_after_first_run)
        << threads << " threads";
    EXPECT_EQ(pooled.shard_root_read_early, serial.shard_root_read_early)
        << threads << " threads";
    EXPECT_EQ(pooled.global_root, serial.global_root) << threads << " threads";
    EXPECT_EQ(pooled.chain_tip, serial.chain_tip) << threads << " threads";
  }
}

TEST(ThreadInvarianceTest, ReaderOfAnOlderRoundDoesNotJoin) {
  // SettledExec(q) settles only an execution of round q or earlier: after
  // B_q commits, round q-1's results come from the cache and the shard
  // jobs of round q keep running. A reader of one shard of round q waits
  // for that shard's job alone; a reader of the whole round settles it.
  unsetenv("PORYGON_THREADS");
  for (int threads : {0, 2}) {
    SCOPED_TRACE(::testing::Message() << threads << " workers");
    core::SystemOptions opt = ScenarioOptions(threads);
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
    // An older round's shard comes from the cache too.
    EXPECT_EQ(sys.SettledShardExec(3, 0), &older->results[0]);
    const core::ExecutionResult* shard0 = sys.SettledShardExec(4, 0);
    ASSERT_NE(shard0, nullptr);
    EXPECT_EQ(sys.SettledShardExec(4, 2), nullptr);  // No such shard.
    EXPECT_EQ(sys.launched_exec_round(), std::optional<uint64_t>(4));
    const core::PorygonSystem::CachedExec* current = sys.SettledExec(4);
    EXPECT_EQ(sys.launched_exec_round(), std::nullopt);
    ASSERT_NE(current, nullptr);
    EXPECT_EQ(current->results.size(), 2u);
    // The shard read early is the settled slot itself.
    EXPECT_EQ(&current->results[0], shard0);
    // Round 4's roots are the canonical shard roots now.
    for (uint32_t d = 0; d < 2; ++d) {
      EXPECT_EQ(current->results[d].shard_root,
                sys.canonical_state().ShardRoot(d))
          << d;
    }
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

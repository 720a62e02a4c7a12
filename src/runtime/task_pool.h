#ifndef PORYGON_RUNTIME_TASK_POOL_H_
#define PORYGON_RUNTIME_TASK_POOL_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace porygon::runtime {

using WallClock = std::chrono::steady_clock;

// Wall microseconds since `start`. Wall time is inherently nondeterministic:
// it feeds volatile gauges only, never a deterministic export.
uint64_t WallMicrosSince(WallClock::time_point start);

// A small worker pool for fanning deterministic compute out of the
// single-threaded event loop. It runs two kinds of batch and one kind of
// background job:
//
//   * ParallelFor: fork-join. The caller blocks until every index has
//     completed, so from the event loop's point of view the work is
//     synchronous and the sim clock is untouched.
//   * Launch/Join: at most one launched batch runs on the workers while the
//     caller returns to the event loop; Join (or the next Launch, or the
//     destructor) completes it. The caller owns the ordering: it must Join
//     before it reads anything the launched bodies write, and must not write
//     anything they read until then. The sim clock never sees the overlap.
//   * Submit/Wait: a job is one closure the caller starts now and reads
//     later. Workers take queued jobs first, and between the indices of a
//     launched batch, so a job never waits behind a whole launch. Wait runs
//     the job on the caller when no worker has started it and otherwise
//     waits for that one job; with 0 workers Submit queues nothing and Wait
//     is a plain inline call. Cancel drops a job no worker has started.
//     Either way a job's closure (and whatever it captured) is released
//     once the job is done or dropped.
//
// Determinism contract for every body, launched or not, and every job:
//
//   * a body for index i may only read shared inputs and write state that is
//     disjoint per index (e.g. out[i], a per-shard subtree); a job may only
//     read what no thread writes while it is outstanding, and writes only
//     its own result;
//   * bodies and jobs must not touch the RNG, the sim clock, the event
//     queue, the Logger, the Tracer, or a metric, and a job must not call
//     back into the pool (ParallelFor, and so VerifyBatch, is the event
//     loop's);
//   * any cross-index merge happens on the caller thread afterwards, in
//     index order (after Join, for a launched batch); a job's result is read
//     only after its Wait.
//
// Under this contract the observable result is byte-identical whether the
// pool has 0 workers (serial on the caller thread) or N, whether a launched
// batch finishes early or at its Join, and whether a job ran on a worker or
// inside its Wait.
class TaskPool {
 public:
  // One background job (see Submit). The pool and the job's owners share
  // it; the closure runs at most once.
  class Job {
   public:
    explicit Job(std::function<void()> fn) : fn_(std::move(fn)) {}
    virtual ~Job() = default;
    Job(const Job&) = delete;
    Job& operator=(const Job&) = delete;

   private:
    friend class TaskPool;
    enum State : uint8_t { kQueued, kRunning, kDone };
    // kQueued -> kRunning for the one thread that runs it.
    bool Claim();
    // Runs the claimed closure, releases it, and wakes a waiter.
    void Execute();

    std::atomic<uint8_t> state_{kQueued};
    std::function<void()> fn_;
  };

  // Creates a pool with `threads` workers. 0 means no workers: ParallelFor
  // degenerates to a plain serial loop on the caller thread and Launch runs
  // its body inline, both running the exact same per-index body.
  explicit TaskPool(int threads = 0);
  // Joins any launched batch, then stops the workers.
  ~TaskPool();

  TaskPool(const TaskPool&) = delete;
  TaskPool& operator=(const TaskPool&) = delete;

  int thread_count() const { return static_cast<int>(workers_.size()); }

  // Runs body(i) for every i in [0, n), blocking until all complete.
  // Indices are claimed dynamically, so bodies may run in any order and on
  // any thread — the body must be safe under the contract above. Exceptions
  // thrown by bodies are not supported (the codebase is exception-free).
  // While a launched batch is outstanding the workers belong to it: the
  // body then runs serially on the caller, in index order, and the launched
  // batch is left running. A single index always runs on the caller.
  void ParallelFor(size_t n, const std::function<void(size_t)>& body);

  // Starts body(i) for every i in [0, n) on the workers and returns without
  // waiting. Joins the previously launched batch first, so at most one is
  // outstanding. With 0 workers the body runs inline, in index order, before
  // Launch returns. The pool owns `body` until the batch is joined.
  void Launch(size_t n, std::function<void(size_t)> body);

  // Completes the launched batch: runs any index no worker has claimed on
  // the caller, then waits for the rest. A no-op when nothing is launched.
  void Join();

  // Queues `job` for the workers and returns. A worker that finds the queue
  // empty on waking sleeps again, and a burst of submissions wakes at most
  // one sleeping worker at a time. With 0 workers nothing is queued: the
  // job runs in its Wait, or never.
  void Submit(std::shared_ptr<Job> job);
  // Completes `job`: runs it on the caller when no worker has started it,
  // otherwise blocks until the worker running it is done. Idempotent.
  static void Wait(Job* job);
  // Drops `job` unrun when no worker has started it, releasing its
  // closure; otherwise waits for it like Wait. Idempotent.
  static void Cancel(Job* job);

  // Cumulative bookkeeping, maintained by the calling thread (reading it is
  // only meaningful from the event-loop thread). tasks_run counts indices
  // executed or launched; wall_us is real elapsed caller-thread time inside
  // ParallelFor, Launch and Join (not the workers' time behind a launched
  // batch). Wall time is inherently nondeterministic and must never reach a
  // deterministic export.
  uint64_t tasks_run() const { return tasks_run_; }
  uint64_t wall_us() const { return wall_us_; }

  // Resolves a requested thread count against the PORYGON_THREADS
  // environment variable (which wins when set to a valid non-negative
  // integer). Negative requests are treated as 0.
  static int ResolveThreads(int requested);

 private:
  struct Batch {
    size_t n = 0;
    const std::function<void(size_t)>* body = nullptr;
    bool launched = false;  // Workers run queued jobs between its indices.
    std::atomic<size_t> next{0};
    std::atomic<size_t> done{0};
    std::atomic<int> active{0};  // Workers currently inside the batch.
  };

  void WorkerLoop();
  // Claims and runs indices of `batch` until none is left; a worker passes
  // `take_jobs` to run every queued job before each index it claims.
  void RunIndices(Batch* batch, bool take_jobs);
  // Runs queued jobs on the calling worker until the queue is empty.
  void RunQueuedJobs();
  // Hands `batch` to the workers.
  void Post(Batch* batch);
  // Runs the batch's unclaimed indices on the caller, then waits until every
  // index has finished and every worker has stepped out of it.
  void Finish(Batch* batch);

  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  Batch* batch_ = nullptr;  // Guarded by mu_; non-null while a batch runs.
  uint64_t batch_seq_ = 0;  // Guarded by mu_; bumped per posted batch.
  bool stop_ = false;       // Guarded by mu_.
  // Submitted jobs not yet taken by a worker (some may have been claimed
  // or dropped by their owners since), guarded by mu_; queued_ mirrors its
  // size so a worker between indices checks it without the lock.
  std::deque<std::shared_ptr<Job>> jobs_;
  std::atomic<size_t> queued_{0};
  int sleeping_ = 0;          // Guarded by mu_: workers blocked in work_cv_.
  bool wake_pending_ = false;  // Guarded by mu_: a notify is on its way.

  // The outstanding launched batch and the body it runs (caller-thread
  // only; null when nothing is launched).
  std::unique_ptr<Batch> launched_;
  std::function<void(size_t)> launched_body_;

  uint64_t tasks_run_ = 0;  // Caller-thread only.
  uint64_t wall_us_ = 0;    // Caller-thread only.
};

// Runs fn(i) for every i in [0, n) on the pool and returns the results in
// index order. `fn` must obey the TaskPool determinism contract. `pool` may
// be null (serial).
template <typename T, typename Fn>
std::vector<T> ParallelMap(TaskPool* pool, size_t n, Fn&& fn) {
  std::vector<T> out(n);
  if (pool == nullptr) {
    for (size_t i = 0; i < n; ++i) out[i] = fn(i);
    return out;
  }
  pool->ParallelFor(n, [&](size_t i) { out[i] = fn(i); });
  return out;
}

}  // namespace porygon::runtime

#endif  // PORYGON_RUNTIME_TASK_POOL_H_

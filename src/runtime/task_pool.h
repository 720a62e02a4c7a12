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
// single-threaded event loop. It runs one kind of batch and one queue of
// jobs:
//
//   * ParallelFor: fork-join. The caller blocks until every index has
//     completed, so from the event loop's point of view the work is
//     synchronous and the sim clock is untouched.
//   * Submit/Wait: a job is one closure the caller starts now and reads
//     later. The queue holds two classes. Front jobs (a message's front
//     half) are short and wanted soon; background jobs (one shard's
//     canonical execution) are long and read later. A worker takes the
//     oldest front job first, then the indices of a posted ParallelFor,
//     and a background job only when neither is waiting. Wait runs the job
//     on the caller when no worker has started it; otherwise the caller
//     runs queued front jobs until none is left, then waits for that one
//     job. With 0 workers Submit queues nothing and Wait is a plain inline
//     call. Cancel drops a job no worker has started. Either way a job's
//     closure (and whatever it captured) is released once the job is done
//     or dropped.
//
// Determinism contract for every body and every job:
//
//   * a body for index i may only read shared inputs and write state that is
//     disjoint per index (e.g. out[i], a per-shard subtree); a job may only
//     read what no thread writes while it is outstanding, and writes only
//     state no other job or reader touches until its Wait;
//   * bodies and jobs must not touch the RNG, the sim clock, the event
//     queue, the Logger, the Tracer, or a metric, and a job must not call
//     back into the pool (ParallelFor, and so VerifyBatch, is the event
//     loop's);
//   * any cross-index merge happens on the caller thread afterwards, in
//     index order; a job's result is read only after its Wait, and results
//     of several jobs merge on the caller in a fixed order.
//
// Under this contract the observable result is byte-identical whether the
// pool has 0 workers (serial on the caller thread) or N, and whether a job
// ran on a worker, inside its own Wait, or inside the Wait for another job.
class TaskPool {
 public:
  // One job (see Submit). The pool and the job's owners share it; the
  // closure runs at most once.
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

  // The class a submitted job queues in (see Submit).
  enum class JobClass : uint8_t { kFront, kBackground };

  // Creates a pool with `threads` workers. 0 means no workers: ParallelFor
  // degenerates to a plain serial loop on the caller thread and every job
  // runs in its Wait, both running the exact same code.
  explicit TaskPool(int threads = 0);
  // Drops every queued job no worker has started (releasing its closure),
  // lets the workers finish the jobs they run, then stops them.
  ~TaskPool();

  TaskPool(const TaskPool&) = delete;
  TaskPool& operator=(const TaskPool&) = delete;

  int thread_count() const { return static_cast<int>(workers_.size()); }

  // Runs body(i) for every i in [0, n), blocking until all complete.
  // Indices are claimed dynamically, so bodies may run in any order and on
  // any thread — the body must be safe under the contract above. Exceptions
  // thrown by bodies are not supported (the codebase is exception-free).
  // Workers busy with a job join in once it is done, ahead of any queued
  // background job. A single index always runs on the caller.
  void ParallelFor(size_t n, const std::function<void(size_t)>& body);

  // Queues `job` in `job_class` for the workers and returns. A worker that
  // finds nothing to do on waking sleeps again, and a burst of submissions
  // wakes at most one sleeping worker at a time. With 0 workers nothing is
  // queued: the job runs in its Wait, or never.
  void Submit(std::shared_ptr<Job> job, JobClass job_class = JobClass::kFront);
  // Completes `job`: runs it on the caller when no worker has started it.
  // Otherwise the caller runs queued front jobs while the worker runs
  // `job`, and blocks once none is left. Idempotent.
  void Wait(Job* job);
  // Drops `job` unrun when no worker has started it, releasing its
  // closure; otherwise blocks until the worker running it is done.
  // Idempotent.
  static void Cancel(Job* job);

  // Cumulative bookkeeping, maintained by the calling thread (reading it is
  // only meaningful from the event-loop thread). tasks_run counts
  // ParallelFor indices; wall_us is real elapsed caller-thread time inside
  // ParallelFor. Wall time is inherently nondeterministic and must never
  // reach a deterministic export.
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
    std::atomic<size_t> next{0};
    std::atomic<size_t> done{0};
    std::atomic<int> active{0};  // Workers currently inside the batch.
  };

  void WorkerLoop();
  // Claims and runs indices of `batch` until none is left.
  static void RunIndices(Batch* batch);
  // Runs queued front jobs on the caller until `awaited` is done or the
  // front class is empty.
  void RunFrontJobsWhileWaiting(const Job* awaited);
  // Wakes one sleeping worker unless a wake-up is already on its way;
  // returns whether the caller must notify. Called under mu_.
  bool ClaimWakeup();

  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  Batch* batch_ = nullptr;  // Guarded by mu_; non-null while a batch runs.
  uint64_t batch_seq_ = 0;  // Guarded by mu_; bumped per posted batch.
  bool stop_ = false;       // Guarded by mu_.
  // The job queue, one FIFO per class, guarded by mu_: submitted jobs not
  // yet taken by a worker (some may have been claimed or dropped by their
  // owners since).
  std::deque<std::shared_ptr<Job>> front_jobs_;
  std::deque<std::shared_ptr<Job>> background_jobs_;
  int sleeping_ = 0;           // Guarded by mu_: workers blocked in work_cv_.
  bool wake_pending_ = false;  // Guarded by mu_: a notify is on its way.

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

#include "runtime/task_pool.h"

#include <cstdlib>
#include <utility>

#include "common/clause.h"

namespace porygon::runtime {

uint64_t WallMicrosSince(WallClock::time_point start) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          WallClock::now() - start)
          .count());
}

TaskPool::TaskPool(int threads) {
  if (threads < 0) threads = 0;
  workers_.reserve(static_cast<size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

TaskPool::~TaskPool() {
  // No Wait can follow the pool, so a job nobody started is dropped here;
  // a worker finishes the job it runs before it sees stop_.
  std::deque<std::shared_ptr<Job>> dropped;
  {
    std::unique_lock<std::mutex> lock(mu_);
    stop_ = true;
    dropped.swap(front_jobs_);
    for (auto& job : background_jobs_) dropped.push_back(std::move(job));
    background_jobs_.clear();
  }
  work_cv_.notify_all();
  for (const auto& job : dropped) Cancel(job.get());
  for (auto& w : workers_) w.join();
}

bool TaskPool::Job::Claim() {
  uint8_t expected = kQueued;
  return state_.compare_exchange_strong(expected, kRunning,
                                        std::memory_order_acq_rel,
                                        std::memory_order_acquire);
}

void TaskPool::Job::Execute() {
  fn_();
  fn_ = nullptr;  // Whatever the closure captured goes with it.
  state_.store(kDone, std::memory_order_release);
  state_.notify_all();
}

namespace {
// Blocks until the thread running `state`'s job marks it done.
void AwaitDone(std::atomic<uint8_t>* state, uint8_t done) {
  for (uint8_t s = state->load(std::memory_order_acquire); s != done;
       s = state->load(std::memory_order_acquire)) {
    state->wait(s, std::memory_order_acquire);
  }
}
}  // namespace

bool TaskPool::ClaimWakeup() {
  if (sleeping_ == 0 || wake_pending_) return false;
  wake_pending_ = true;
  return true;
}

void TaskPool::Submit(std::shared_ptr<Job> job, JobClass job_class) {
  if (workers_.empty()) return;  // Its Wait runs it.
  bool wake = false;
  {
    std::unique_lock<std::mutex> lock(mu_);
    (job_class == JobClass::kFront ? front_jobs_ : background_jobs_)
        .push_back(std::move(job));
    wake = ClaimWakeup();
  }
  if (wake) work_cv_.notify_one();
}

void TaskPool::Wait(Job* job) {
  if (job->Claim()) {
    job->Execute();
    return;
  }
  RunFrontJobsWhileWaiting(job);
  AwaitDone(&job->state_, Job::kDone);
}

void TaskPool::Cancel(Job* job) {
  uint8_t expected = Job::kQueued;
  if (job->state_.compare_exchange_strong(expected, Job::kDone,
                                          std::memory_order_acq_rel,
                                          std::memory_order_acquire)) {
    job->fn_ = nullptr;
    return;
  }
  AwaitDone(&job->state_, Job::kDone);
}

void TaskPool::RunFrontJobsWhileWaiting(const Job* awaited) {
  while (awaited->state_.load(std::memory_order_acquire) != Job::kDone) {
    std::shared_ptr<Job> job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (front_jobs_.empty()) return;
      job = std::move(front_jobs_.front());
      front_jobs_.pop_front();
    }
    // A job its owner already ran or dropped is only unqueued here.
    if (job->Claim()) job->Execute();
  }
}

void TaskPool::RunIndices(Batch* batch) {
  for (size_t i = batch->next.fetch_add(1, std::memory_order_relaxed);
       i < batch->n; i = batch->next.fetch_add(1, std::memory_order_relaxed)) {
    (*batch->body)(i);
    batch->done.fetch_add(1, std::memory_order_acq_rel);
  }
}

void TaskPool::WorkerLoop() {
  uint64_t seen_seq = 0;
  for (;;) {
    std::shared_ptr<Job> job;
    Batch* batch = nullptr;
    bool wake_another = false;
    {
      std::unique_lock<std::mutex> lock(mu_);
      const auto batch_posted = [&] {
        return batch_ != nullptr && batch_seq_ != seen_seq;
      };
      while (!stop_ && front_jobs_.empty() && !batch_posted() &&
             background_jobs_.empty()) {
        ++sleeping_;
        work_cv_.wait(lock);
        --sleeping_;
        wake_pending_ = false;
      }
      if (stop_) return;
      // Front jobs first, then a posted batch, then background jobs.
      if (batch_posted() && front_jobs_.empty()) {
        batch = batch_;
        seen_seq = batch_seq_;
        batch->active.fetch_add(1, std::memory_order_relaxed);
      } else {
        auto& queue = front_jobs_.empty() ? background_jobs_ : front_jobs_;
        job = std::move(queue.front());
        queue.pop_front();
        // More left behind wake the next sleeper, so a burst spreads
        // without the submitter waking each worker.
        if (!front_jobs_.empty() || !background_jobs_.empty()) {
          wake_another = ClaimWakeup();
        }
      }
    }
    if (wake_another) work_cv_.notify_one();
    if (job != nullptr) {
      if (job->Claim()) job->Execute();
      continue;
    }
    RunIndices(batch);
    {
      // Exit under the lock so the caller's completion wait cannot miss the
      // notification; once active drops to 0 with all indices done, the
      // caller may destroy the batch.
      std::unique_lock<std::mutex> lock(mu_);
      batch->active.fetch_sub(1, std::memory_order_acq_rel);
    }
    done_cv_.notify_all();
  }
}

void TaskPool::ParallelFor(size_t n, const std::function<void(size_t)>& body) {
  if (n == 0) return;
  const auto start = WallClock::now();
  if (workers_.empty() || n == 1) {
    // Serial on the caller thread, index order: no workers, or one index
    // leaves them nothing to do but wake up and check out.
    for (size_t i = 0; i < n; ++i) body(i);
  } else {
    Batch batch;
    batch.n = n;
    batch.body = &body;
    {
      std::unique_lock<std::mutex> lock(mu_);
      batch_ = &batch;
      ++batch_seq_;
    }
    work_cv_.notify_all();
    // The caller participates too, then blocks until every index has
    // finished and every worker has stepped out of the batch.
    RunIndices(&batch);
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [&] {
      return batch.done.load(std::memory_order_acquire) == n &&
             batch.active.load(std::memory_order_acquire) == 0;
    });
    batch_ = nullptr;
  }
  tasks_run_ += n;
  wall_us_ += WallMicrosSince(start);
}

int TaskPool::ResolveThreads(int requested) {
  if (requested < 0) requested = 0;
  const char* env = std::getenv("PORYGON_THREADS");
  int threads = requested;
  if (env != nullptr) clause::ParseInt(env, &threads, 0, 1024);
  return threads;
}

}  // namespace porygon::runtime

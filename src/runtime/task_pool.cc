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
  // Queued jobs stay unrun; an owner that still Waits runs its own.
  Join();
  {
    std::unique_lock<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
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

void TaskPool::Submit(std::shared_ptr<Job> job) {
  if (workers_.empty()) return;  // Its Wait runs it.
  bool wake = false;
  {
    std::unique_lock<std::mutex> lock(mu_);
    jobs_.push_back(std::move(job));
    queued_.store(jobs_.size(), std::memory_order_relaxed);
    if (sleeping_ > 0 && !wake_pending_) {
      wake_pending_ = true;
      wake = true;
    }
  }
  if (wake) work_cv_.notify_one();
}

void TaskPool::Wait(Job* job) {
  if (job->Claim()) {
    job->Execute();
    return;
  }
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

void TaskPool::RunQueuedJobs() {
  for (;;) {
    std::shared_ptr<Job> job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (jobs_.empty()) return;
      job = std::move(jobs_.front());
      jobs_.pop_front();
      queued_.store(jobs_.size(), std::memory_order_relaxed);
    }
    // A job its owner already ran or dropped is only unqueued here.
    if (job->Claim()) job->Execute();
  }
}

void TaskPool::RunIndices(Batch* batch, bool take_jobs) {
  for (;;) {
    if (take_jobs && queued_.load(std::memory_order_relaxed) > 0) {
      RunQueuedJobs();
    }
    size_t i = batch->next.fetch_add(1, std::memory_order_relaxed);
    if (i >= batch->n) break;
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
      while (!stop_ && jobs_.empty() &&
             (batch_ == nullptr || batch_seq_ == seen_seq)) {
        ++sleeping_;
        work_cv_.wait(lock);
        --sleeping_;
        wake_pending_ = false;
      }
      if (stop_) return;
      if (!jobs_.empty()) {
        // Jobs first. More left behind this one wake the next sleeper, so
        // a burst spreads without the submitter waking each worker.
        job = std::move(jobs_.front());
        jobs_.pop_front();
        queued_.store(jobs_.size(), std::memory_order_relaxed);
        if (!jobs_.empty() && sleeping_ > 0 && !wake_pending_) {
          wake_pending_ = true;
          wake_another = true;
        }
      } else {
        batch = batch_;
        seen_seq = batch_seq_;
        batch->active.fetch_add(1, std::memory_order_relaxed);
      }
    }
    if (wake_another) work_cv_.notify_one();
    if (job != nullptr) {
      if (job->Claim()) job->Execute();
      continue;
    }
    RunIndices(batch, /*take_jobs=*/batch->launched);
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

void TaskPool::Post(Batch* batch) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    batch_ = batch;
    ++batch_seq_;
  }
  work_cv_.notify_all();
}

void TaskPool::Finish(Batch* batch) {
  RunIndices(batch, /*take_jobs=*/false);
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [&] {
    return batch->done.load(std::memory_order_acquire) == batch->n &&
           batch->active.load(std::memory_order_acquire) == 0;
  });
  batch_ = nullptr;
}

void TaskPool::ParallelFor(size_t n, const std::function<void(size_t)>& body) {
  if (n == 0) return;
  const auto start = WallClock::now();
  if (workers_.empty() || launched_ != nullptr || n == 1) {
    // Serial on the caller thread, index order: no workers, they belong to
    // the launched batch (which must not be joined here), or one index
    // leaves them nothing to do but wake up and check out.
    for (size_t i = 0; i < n; ++i) body(i);
  } else {
    Batch batch;
    batch.n = n;
    batch.body = &body;
    Post(&batch);
    // The caller participates too, then blocks until the batch is done.
    Finish(&batch);
  }
  tasks_run_ += n;
  wall_us_ += WallMicrosSince(start);
}

void TaskPool::Launch(size_t n, std::function<void(size_t)> body) {
  Join();
  if (n == 0) return;
  const auto start = WallClock::now();
  if (workers_.empty()) {
    for (size_t i = 0; i < n; ++i) body(i);
  } else {
    launched_body_ = std::move(body);
    launched_ = std::make_unique<Batch>();
    launched_->n = n;
    launched_->launched = true;
    launched_->body = &launched_body_;
    Post(launched_.get());
  }
  tasks_run_ += n;
  wall_us_ += WallMicrosSince(start);
}

void TaskPool::Join() {
  if (launched_ == nullptr) return;
  const auto start = WallClock::now();
  Finish(launched_.get());
  launched_.reset();
  launched_body_ = nullptr;
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

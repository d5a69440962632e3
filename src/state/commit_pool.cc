#include "src/state/commit_pool.h"

#include <algorithm>

namespace frn {

CommitPool::CommitPool(size_t workers) : workers_(std::max<size_t>(1, workers)) {
  if (workers_ == 1) {
    return;  // inline mode: the coordinator thread is the only executor
  }
  threads_.reserve(workers_);
  for (size_t t = 0; t < workers_; ++t) {
    threads_.emplace_back([this, t] { WorkerLoop(t); });
  }
}

CommitPool::~CommitPool() {
  {
    MutexLock lock(mutex_);
    shutdown_ = true;
  }
  work_cv_.NotifyAll();
  for (std::thread& t : threads_) {
    t.join();
  }
}

void CommitPool::Run(size_t n_jobs, const std::function<void(size_t)>& fn) {
  if (n_jobs == 0) {
    return;
  }
  if (workers_ == 1 || n_jobs == 1) {
    for (size_t j = 0; j < n_jobs; ++j) {
      fn(j);
    }
    return;
  }
  MutexLock lock(mutex_);
  fn_ = &fn;
  n_jobs_ = n_jobs;
  done_jobs_ = 0;
  ++batch_seq_;
  work_cv_.NotifyAll();
  while (done_jobs_ != n_jobs_) {
    done_cv_.Wait(mutex_);
  }
  // Retire the batch while still holding the mutex (same reasoning as
  // SpecPool): a worker whose stripe was empty may only now wake from the
  // batch-start notify, and its wait predicate reads fn_ under the lock.
  fn_ = nullptr;
  n_jobs_ = 0;
}

void CommitPool::WorkerLoop(size_t thread_index) {
  size_t seen_batch = 0;
  for (;;) {
    // The fn/n_jobs handoff is copied out under the lock; job execution runs
    // unlocked (jobs are mutually independent by construction).
    const std::function<void(size_t)>* fn = nullptr;
    size_t n_jobs = 0;
    {
      MutexLock lock(mutex_);
      while (!shutdown_ && !(batch_seq_ != seen_batch && fn_ != nullptr)) {
        work_cv_.Wait(mutex_);
      }
      if (shutdown_) {
        return;
      }
      seen_batch = batch_seq_;
      fn = fn_;
      n_jobs = n_jobs_;
    }
    // Static stripe: disjoint job indices per worker.
    size_t done = 0;
    for (size_t j = thread_index; j < n_jobs; j += workers_) {
      (*fn)(j);
      ++done;
    }
    MutexLock lock(mutex_);
    done_jobs_ += done;
    if (done_jobs_ == n_jobs) {
      done_cv_.NotifyOne();
    }
  }
}

}  // namespace frn

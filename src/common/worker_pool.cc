#include "src/common/worker_pool.h"

#include <algorithm>

namespace frn {

WorkerPool::WorkerPool(size_t threads) : threads_(std::max<size_t>(1, threads)) {
  if (threads_ == 1) {
    return;  // inline mode: the caller is the only executor
  }
  workers_.reserve(threads_);
  for (size_t w = 0; w < threads_; ++w) {
    workers_.emplace_back([this, w] { WorkerLoop(w); });
  }
}

WorkerPool::~WorkerPool() {
  {
    MutexLock lock(mutex_);
    shutdown_ = true;
  }
  work_cv_.NotifyAll();
  for (std::thread& t : workers_) {
    t.join();
  }
}

void WorkerPool::Run(size_t n_jobs, const Job& fn) {
  if (threads_ == 1 || n_jobs <= 1) {
    for (size_t j = 0; j < n_jobs; ++j) {
      fn(j, j % threads_);
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
  // Retire the batch while still holding the mutex: a worker whose stripe
  // was empty may only now wake from the batch-start notify, and its wait
  // predicate reads fn_ under the lock (a stale pointer would dangle into
  // the caller's frame).
  fn_ = nullptr;
  n_jobs_ = 0;
}

void WorkerPool::WorkerLoop(size_t worker) {
  size_t seen_batch = 0;
  for (;;) {
    // The fn/n_jobs hand-off is copied out under the lock; the jobs run
    // unlocked (they touch disjoint caller-owned slots by contract).
    const Job* fn = nullptr;
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
    // Static stripe: job j belongs to worker j % threads_.
    size_t done = 0;
    for (size_t j = worker; j < n_jobs; j += threads_) {
      (*fn)(j, worker);
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

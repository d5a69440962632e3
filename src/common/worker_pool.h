// The repo's one thread pool: a persistent set of worker threads behind a
// fork-join Run(n, fn). Speculation batches (SpecPool), the commit's
// storage-subtrie folds (StateDb::Commit) and Block-STM execution rounds
// (ParallelBlockExecutor) each own one instance, sized by their own knob.
//
// Job j always runs as worker j % threads(), and fn receives that worker
// index, so a caller can keep per-worker state (a scratch buffer, a stats
// slot) indexed by it: no two jobs running at once share an index. Jobs
// must touch only their own slot of caller-owned state; Run returns after
// every job finished, and that return publishes the jobs' writes to the
// caller. A pool of one thread starts no threads and runs every job inline
// on the caller, in job order — the exact serial operation order. A batch of
// one job also runs inline (as worker 0), which saves two thread hand-offs.
#ifndef SRC_COMMON_WORKER_POOL_H_
#define SRC_COMMON_WORKER_POOL_H_

#include <functional>
#include <thread>
#include <vector>

#include "src/common/sync.h"

namespace frn {

class WorkerPool {
 public:
  // `threads` is clamped to at least 1.
  explicit WorkerPool(size_t threads);
  ~WorkerPool();
  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  size_t threads() const { return threads_; }

  using Job = std::function<void(size_t job, size_t worker)>;
  // Runs fn(j, j % threads()) for every j in [0, n_jobs), blocking until all
  // of them complete. Not reentrant: one caller thread drives the pool.
  void Run(size_t n_jobs, const Job& fn);

 private:
  void WorkerLoop(size_t worker);

  size_t threads_;
  // Batch hand-off state, all guarded by the batch mutex — including the
  // retirement writes (fn_ = nullptr) at the end of Run(): a worker whose
  // stripe was empty may wake from the batch-start notify only after the
  // batch drained, and its wait predicate reads fn_ under this lock.
  Mutex mutex_;
  CondVar work_cv_;  // workers: a batch (or shutdown) is ready
  CondVar done_cv_;  // caller: the batch drained
  bool shutdown_ FRN_GUARDED_BY(mutex_) = false;
  const Job* fn_ FRN_GUARDED_BY(mutex_) = nullptr;
  size_t n_jobs_ FRN_GUARDED_BY(mutex_) = 0;
  size_t batch_seq_ FRN_GUARDED_BY(mutex_) = 0;  // bumped per batch; wakes the workers
  size_t done_jobs_ FRN_GUARDED_BY(mutex_) = 0;
  // Declared after the state the workers use; the destructor joins them.
  std::vector<std::thread> workers_;
};

}  // namespace frn

#endif  // SRC_COMMON_WORKER_POOL_H_

// Worker pool for the parallel trie commit (same shape as the speculation
// engine's SpecPool): a persistent set of threads that fan the independent
// per-account storage-subtrie folds of StateDb::Commit out and block the
// coordinator until the batch drains. Jobs are striped statically over the
// workers (disjoint indices, no claim counter), and each job writes only its
// own slot of caller-owned state, so any schedule produces identical results.
// With one worker no threads are spawned and Run executes inline on the
// coordinator in job order — the exact serial pipeline.
//
// Owned by the ChainManager (StateDb instances are per-block and cannot own
// threads); sized by ChainManagerOptions::commit_workers.
#ifndef SRC_STATE_COMMIT_POOL_H_
#define SRC_STATE_COMMIT_POOL_H_

#include <functional>
#include <thread>
#include <vector>

#include "src/common/sync.h"

namespace frn {

class CommitPool {
 public:
  explicit CommitPool(size_t workers);
  ~CommitPool();
  CommitPool(const CommitPool&) = delete;
  CommitPool& operator=(const CommitPool&) = delete;

  size_t workers() const { return workers_; }

  // Runs fn(0) .. fn(n_jobs - 1), blocking until all complete. fn must only
  // touch per-job state (the jobs are mutually independent by construction).
  void Run(size_t n_jobs, const std::function<void(size_t)>& fn);

 private:
  void WorkerLoop(size_t thread_index);

  size_t workers_;
  std::vector<std::thread> threads_;
  // Batch handoff state. Everything below is guarded by the batch mutex —
  // including the retirement writes (fn_ = nullptr) at the end of Run(): an
  // empty-stripe worker may wake from the batch-start notify only after the
  // batch drained, and its wait predicate reads fn_ under this lock. A clang
  // -Wthread-safety build rejects the unguarded clear that raced here before.
  Mutex mutex_;
  CondVar work_cv_;  // workers: a batch (or shutdown) is ready
  CondVar done_cv_;  // coordinator: the batch drained
  bool shutdown_ FRN_GUARDED_BY(mutex_) = false;
  const std::function<void(size_t)>* fn_ FRN_GUARDED_BY(mutex_) = nullptr;
  size_t n_jobs_ FRN_GUARDED_BY(mutex_) = 0;
  size_t batch_seq_ FRN_GUARDED_BY(mutex_) = 0;  // bumped per batch; wakes the workers
  size_t done_jobs_ FRN_GUARDED_BY(mutex_) = 0;
};

}  // namespace frn

#endif  // SRC_STATE_COMMIT_POOL_H_

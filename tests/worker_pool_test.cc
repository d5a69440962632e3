// WorkerPool contract: every job of a batch runs exactly once, job j runs as
// worker j % threads on that worker's own thread, a one-thread pool runs the
// batch inline on the caller in job order, and back-to-back batches smaller
// than the pool (workers with empty stripes) all drain. tools/run_tsan.sh
// runs this binary under ThreadSanitizer.
#include "src/common/worker_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

namespace frn {
namespace {

TEST(WorkerPoolTest, EveryJobRunsExactlyOnce) {
  for (size_t threads : {1u, 2u, 4u}) {
    WorkerPool pool(threads);
    ASSERT_EQ(pool.threads(), threads);
    for (size_t n : {0u, 1u, 3u, 17u}) {
      SCOPED_TRACE(testing::Message() << "threads=" << threads << " n=" << n);
      std::vector<std::atomic<int>> runs(n);
      pool.Run(n, [&](size_t j, size_t) { runs[j].fetch_add(1); });
      for (size_t j = 0; j < n; ++j) {
        EXPECT_EQ(runs[j].load(), 1) << "job " << j;
      }
    }
  }
}

TEST(WorkerPoolTest, JobRunsOnWorkerJobModThreads) {
  constexpr size_t kThreads = 4;
  constexpr size_t kJobs = 17;
  WorkerPool pool(kThreads);
  std::vector<size_t> worker_of(kJobs, kThreads);
  std::vector<std::thread::id> thread_of(kJobs);
  pool.Run(kJobs, [&](size_t j, size_t worker) {
    worker_of[j] = worker;
    thread_of[j] = std::this_thread::get_id();
  });
  for (size_t j = 0; j < kJobs; ++j) {
    EXPECT_EQ(worker_of[j], j % kThreads) << "job " << j;
    // One thread per worker: jobs of the same worker share a thread, jobs of
    // different workers do not, and none runs on the caller.
    EXPECT_EQ(thread_of[j], thread_of[j % kThreads]) << "job " << j;
    EXPECT_NE(thread_of[j], std::this_thread::get_id()) << "job " << j;
    for (size_t w = 0; w < kThreads; ++w) {
      if (w != j % kThreads) {
        EXPECT_NE(thread_of[j], thread_of[w]) << "job " << j << " vs worker " << w;
      }
    }
  }
}

TEST(WorkerPoolTest, OneThreadRunsInlineInJobOrder) {
  WorkerPool pool(1);
  std::vector<size_t> order;
  std::vector<size_t> workers;
  bool on_caller = true;
  const std::thread::id caller = std::this_thread::get_id();
  pool.Run(5, [&](size_t j, size_t worker) {
    order.push_back(j);
    workers.push_back(worker);
    on_caller = on_caller && std::this_thread::get_id() == caller;
  });
  EXPECT_EQ(order, (std::vector<size_t>{0, 1, 2, 3, 4}));
  EXPECT_EQ(workers, (std::vector<size_t>{0, 0, 0, 0, 0}));
  EXPECT_TRUE(on_caller);
}

TEST(WorkerPoolTest, ManySmallBatchesWithEmptyStripes) {
  // Fewer jobs than threads leaves some workers with an empty stripe; such a
  // worker may wake from the batch-start notify only after the batch was
  // retired. Every batch must still drain, and under TSan race-free.
  WorkerPool pool(4);
  for (size_t round = 0; round < 200; ++round) {
    const size_t n = 2 + round % 2;
    std::vector<std::atomic<int>> runs(n);
    pool.Run(n, [&](size_t j, size_t) { runs[j].fetch_add(1); });
    for (size_t j = 0; j < n; ++j) {
      ASSERT_EQ(runs[j].load(), 1) << "round " << round << " job " << j;
    }
  }
}

}  // namespace
}  // namespace frn

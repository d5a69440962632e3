// The SpecPool unit behaviour: batch draining, CPU wall, per-worker
// accounting, and cold reads spun where they happen. That a whole run counts
// the same outcomes at any worker count is the §5.2 oracle's
// (tests/oracle_test.cc).
#include "src/forerunner/spec_pool.h"

#include <gtest/gtest.h>

#include "src/workload/workload.h"

namespace frn {
namespace {

ScenarioConfig SmallScenario(uint64_t seed = 0x5bec) {
  ScenarioConfig cfg = ScenarioByName("L1");
  cfg.seed = seed;
  cfg.duration = 30;
  cfg.tx_rate = 2.5;
  cfg.n_users = 60;
  cfg.cold_read_latency = std::chrono::nanoseconds(0);
  cfg.dice.seed = seed * 31 + 7;
  return cfg;
}

// A committed genesis of SmallScenario(seed) and its traffic, on a store with
// the given cold-read latency: the input of the SpecPool unit tests.
struct PoolWorld {
  explicit PoolWorld(uint64_t seed, std::chrono::nanoseconds latency = {})
      : cfg(SmallScenario(seed)),
        workload(cfg),
        store(KvStore::Options{.cold_read_latency = latency}),
        trie(&store) {
    StateDb genesis(&trie, Mpt::EmptyRoot());
    workload.InitGenesis(&genesis);
    root = genesis.Commit();
    traffic = workload.GenerateTraffic();
    header.number = 1;
    header.timestamp = kDiceBaseTimestamp + 13;
    header.gas_limit = kDiceBlockGasLimit;
  }

  // One single-future job per transaction traffic[first, first + n), wrapping.
  std::vector<SpecJob> Jobs(size_t first, size_t n) const {
    std::vector<SpecJob> jobs;
    for (size_t i = 0; i < n; ++i) {
      SpecJob job;
      job.root = root;
      job.tx = traffic[(first + i) % traffic.size()].tx;
      job.futures.push_back(FutureContext{header, {}});
      jobs.push_back(std::move(job));
    }
    return jobs;
  }

  ScenarioConfig cfg;
  Workload workload;
  KvStore store;
  Mpt trie;
  Hash root;
  std::vector<TimedTx> traffic;
  BlockContext header;
};

TEST(SpecPoolTest, WorkerAccountingAndWallTime) {
  PoolWorld world(0x1111);
  ASSERT_GT(world.traffic.size(), 8u);

  // Four worker threads (regardless of host cores), so the threaded path —
  // and TSan coverage of it — is exercised.
  SpecPool pool(&world.trie, Speculator::Options{}, 4);
  EXPECT_EQ(pool.workers(), 4u);
  std::vector<SpecJobResult> results = pool.RunBatch(world.Jobs(0, 8));
  ASSERT_EQ(results.size(), 8u);
  for (size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].spec.tx_id, world.traffic[i].tx.id) << "result order preserved";
    EXPECT_EQ(results[i].spec.futures, 1u);
    EXPECT_EQ(results[i].worker, i % 4) << "round-robin assignment";
  }
  // All jobs are accounted to exactly one worker, and the batch's CPU wall is
  // the busiest worker, bounded by the serial sum.
  SpecWorkerStats sum = SumSpecWorkerStats(pool.worker_stats());
  EXPECT_EQ(sum.jobs, 8u);
  EXPECT_EQ(sum.futures, 8u);
  EXPECT_GT(pool.last_batch_wall_seconds(), 0.0);
  EXPECT_LE(pool.last_batch_wall_seconds(), sum.busy_seconds + 1e-12);
  EXPECT_GT(pool.measured_wall_seconds(), 0.0);

  // The single-worker pool reports wall == serial sum for one batch.
  SpecPool serial(&world.trie, Speculator::Options{}, 1);
  std::vector<SpecJobResult> serial_results = serial.RunBatch(world.Jobs(0, 8));
  ASSERT_EQ(serial_results.size(), 8u);
  double serial_sum = 0;
  for (const SpecJobResult& r : serial_results) {
    EXPECT_EQ(r.worker, 0u);
    serial_sum += r.exec_seconds;
  }
  EXPECT_NEAR(serial.last_batch_wall_seconds(), serial_sum, 1e-9);

  // Speculation content is independent of the executing worker.
  for (size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].spec.has_ap, serial_results[i].spec.has_ap);
    EXPECT_EQ(results[i].spec.records.size(), serial_results[i].spec.records.size());
    EXPECT_EQ(results[i].outcomes.size(), serial_results[i].outcomes.size());
    for (size_t f = 0; f < results[i].outcomes.size(); ++f) {
      EXPECT_EQ(results[i].outcomes[f].synthesized,
                serial_results[i].outcomes[f].synthesized);
      EXPECT_EQ(results[i].outcomes[f].stats.final_total,
                serial_results[i].outcomes[f].stats.final_total);
    }
  }
}

TEST(SpecPoolTest, ManySmallBatchesWithEmptyStripes) {
  // Regression for a race in batch retirement: the batch used to be cleared
  // after the batch mutex was released, so a worker whose static stripe was
  // empty (fewer jobs than threads) could wake from the batch-start notify
  // after the coordinator retired the batch and read stale pointers. Many
  // tiny batches on a wide pool maximize empty stripes and late wakeups;
  // under TSan (tools/run_tsan.sh) this must be race-free.
  PoolWorld world(0x2222);
  ASSERT_GT(world.traffic.size(), 2u);
  SpecPool pool(&world.trie, Speculator::Options{}, 4);
  for (size_t round = 0; round < 200; ++round) {
    const size_t n = 1 + round % 2;
    std::vector<SpecJobResult> results = pool.RunBatch(world.Jobs(round, n));
    ASSERT_EQ(results.size(), n);
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(results[i].spec.futures, 1u);
    }
  }
}

TEST(SpecPoolTest, ColdReadsSpinOnTheWorkerThatTakesThem) {
  // No cold read is deferred: every one spins on the worker that takes it,
  // so the store's stall total covers every cold read of the batch.
  const std::chrono::nanoseconds latency(20'000);
  PoolWorld world(0x3333, latency);
  ASSERT_GT(world.traffic.size(), 8u);
  SpecPool pool(&world.trie, Speculator::Options{}, 4);
  world.store.CoolAll();
  world.store.ResetStats();
  ASSERT_EQ(pool.RunBatch(world.Jobs(0, 8)).size(), 8u);

  KvStoreStats io = world.store.stats();
  ASSERT_GT(io.cold_reads, 0u);
  const double latency_seconds = std::chrono::duration<double>(latency).count();
  EXPECT_NEAR(io.stall_seconds, static_cast<double>(io.cold_reads) * latency_seconds, 1e-9);
}

TEST(SpecPoolTest, EmptyBatchIsANoOp) {
  KvStore store(KvStore::Options{.cold_read_latency = std::chrono::nanoseconds(0)});
  Mpt trie(&store);
  SpecPool pool(&trie, Speculator::Options{}, 2);
  std::vector<SpecJobResult> results = pool.RunBatch({});
  EXPECT_TRUE(results.empty());
  EXPECT_EQ(pool.last_batch_wall_seconds(), 0.0);
}

TEST(SpecWorkerStatsTest, ImbalanceEdgeCases) {
  EXPECT_DOUBLE_EQ(SpecWorkerImbalance({}), 1.0);  // no workers: balanced
  std::vector<SpecWorkerStats> idle(3);
  EXPECT_DOUBLE_EQ(SpecWorkerImbalance(idle), 1.0);  // no jobs executed
  std::vector<SpecWorkerStats> two(2);
  two[0].jobs = 1;
  two[0].busy_seconds = 3.0;
  two[1].jobs = 1;
  two[1].busy_seconds = 1.0;
  EXPECT_DOUBLE_EQ(SpecWorkerImbalance(two), 1.5);
  // Idle workers don't dilute the mean: only executors count.
  std::vector<SpecWorkerStats> padded = two;
  padded.emplace_back();
  EXPECT_DOUBLE_EQ(SpecWorkerImbalance(padded), 1.5);
}

TEST(SpecWorkerStatsTest, SumAddsEveryField) {
  std::vector<SpecWorkerStats> w(2);
  w[0].jobs = 2;
  w[0].futures = 5;
  w[0].busy_seconds = 1.5;
  w[0].queue_wait_seconds = 0.5;
  w[1].jobs = 3;
  w[1].futures = 4;
  w[1].busy_seconds = 2.0;
  w[1].queue_wait_seconds = 1.0;
  SpecWorkerStats sum = SumSpecWorkerStats(w);
  EXPECT_EQ(sum.jobs, 5u);
  EXPECT_EQ(sum.futures, 9u);
  EXPECT_DOUBLE_EQ(sum.busy_seconds, 3.5);
  EXPECT_DOUBLE_EQ(sum.queue_wait_seconds, 1.5);
  EXPECT_EQ(SumSpecWorkerStats({}).jobs, 0u);
}

}  // namespace
}  // namespace frn

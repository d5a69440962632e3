// Determinism under parallelism: the parallel speculation engine must produce
// identical simulation outcomes — state roots, per-tx acceleration outcomes,
// AP statistics and the Figure 15 synthesis-stat stream — for any worker
// count, because jobs execute against an immutable head snapshot and merge in
// prediction order on the coordinator. Also covers the SpecPool unit behaviour
// (batch draining, CPU wall, per-worker accounting, cold reads spun where they
// happen).
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

struct RunOutcome {
  SimReport report;
  Hash head_root;
  uint64_t futures_speculated = 0;
  uint64_t synthesis_failures = 0;
  std::vector<SynthesisStats> synthesis_stats;
  std::vector<ApStats> ap_stats;
  std::vector<Node::SpecSummary> executed;
};

RunOutcome RunWithWorkers(size_t workers, uint64_t seed = 0x5bec) {
  ScenarioConfig cfg = SmallScenario(seed);
  Workload workload(cfg);
  auto traffic = workload.GenerateTraffic();
  DiceSimulator sim(cfg.dice, traffic);
  auto genesis = [&](StateDb* state) { workload.InitGenesis(state); };

  auto make_options = [&](ExecStrategy strategy) {
    NodeOptions options = ScenarioNodeOptions(cfg, strategy, sim.miners());
    options.spec_workers = workers;
    // Decouple AP availability from measured wall time so the comparison
    // across worker counts is exact (threading changes timings, never values).
    options.speculation_time_scale = 0;
    return options;
  };

  Node baseline(make_options(ExecStrategy::kBaseline), genesis);
  Node forerunner(make_options(ExecStrategy::kForerunner), genesis);
  RunOutcome out;
  out.report = sim.Run({&baseline, &forerunner}, cfg.name);
  out.head_root = forerunner.head_root();
  out.futures_speculated = forerunner.futures_speculated();
  out.synthesis_failures = forerunner.synthesis_failures();
  out.synthesis_stats = forerunner.synthesis_stats();
  out.ap_stats = forerunner.ap_stats();
  out.executed = forerunner.executed_speculations();
  return out;
}

void ExpectSameOutcome(const RunOutcome& a, const RunOutcome& b, size_t workers) {
  SCOPED_TRACE(testing::Message() << "workers=" << workers);
  EXPECT_TRUE(a.report.roots_consistent);
  EXPECT_TRUE(b.report.roots_consistent);
  EXPECT_EQ(a.head_root, b.head_root);
  EXPECT_EQ(a.report.blocks, b.report.blocks);
  EXPECT_EQ(a.futures_speculated, b.futures_speculated);
  EXPECT_EQ(a.synthesis_failures, b.synthesis_failures);

  // Per-tx acceleration outcomes on the Forerunner node (node 1).
  const auto& ra = a.report.nodes[1].records;
  const auto& rb = b.report.nodes[1].records;
  ASSERT_EQ(ra.size(), rb.size());
  for (size_t i = 0; i < ra.size(); ++i) {
    EXPECT_EQ(ra[i].tx_id, rb[i].tx_id) << "record " << i;
    EXPECT_EQ(ra[i].speculated, rb[i].speculated) << "tx " << ra[i].tx_id;
    EXPECT_EQ(ra[i].accelerated, rb[i].accelerated) << "tx " << ra[i].tx_id;
    EXPECT_EQ(ra[i].perfect, rb[i].perfect) << "tx " << ra[i].tx_id;
    EXPECT_EQ(ra[i].gas_used, rb[i].gas_used) << "tx " << ra[i].tx_id;
    EXPECT_EQ(ra[i].status, rb[i].status) << "tx " << ra[i].tx_id;
    EXPECT_EQ(ra[i].instrs_executed, rb[i].instrs_executed) << "tx " << ra[i].tx_id;
    EXPECT_EQ(ra[i].instrs_skipped, rb[i].instrs_skipped) << "tx " << ra[i].tx_id;
  }

  // The Figure 15 synthesis-stat stream, element-wise.
  ASSERT_EQ(a.synthesis_stats.size(), b.synthesis_stats.size());
  for (size_t i = 0; i < a.synthesis_stats.size(); ++i) {
    EXPECT_EQ(a.synthesis_stats[i].evm_trace_len, b.synthesis_stats[i].evm_trace_len);
    EXPECT_EQ(a.synthesis_stats[i].final_total, b.synthesis_stats[i].final_total);
    EXPECT_EQ(a.synthesis_stats[i].final_fast_path, b.synthesis_stats[i].final_fast_path);
    EXPECT_EQ(a.synthesis_stats[i].guards_inserted, b.synthesis_stats[i].guards_inserted);
  }

  // The §5.5 AP-stat stream, element-wise.
  ASSERT_EQ(a.ap_stats.size(), b.ap_stats.size());
  for (size_t i = 0; i < a.ap_stats.size(); ++i) {
    EXPECT_EQ(a.ap_stats[i].paths, b.ap_stats[i].paths);
    EXPECT_EQ(a.ap_stats[i].nodes, b.ap_stats[i].nodes);
    EXPECT_EQ(a.ap_stats[i].guard_nodes, b.ap_stats[i].guard_nodes);
    EXPECT_EQ(a.ap_stats[i].shortcut_nodes, b.ap_stats[i].shortcut_nodes);
    EXPECT_EQ(a.ap_stats[i].memo_entries, b.ap_stats[i].memo_entries);
  }

  ASSERT_EQ(a.executed.size(), b.executed.size());
  for (size_t i = 0; i < a.executed.size(); ++i) {
    EXPECT_EQ(a.executed[i].tx_id, b.executed[i].tx_id);
    EXPECT_EQ(a.executed[i].futures, b.executed[i].futures);
    EXPECT_EQ(a.executed[i].paths, b.executed[i].paths);
  }
}

TEST(SpecPoolDeterminismTest, IdenticalOutcomesForWorkerCounts128) {
  RunOutcome one = RunWithWorkers(1);
  EXPECT_GT(one.report.blocks, 0u);
  EXPECT_GT(one.futures_speculated, 0u);
  RunOutcome two = RunWithWorkers(2);
  RunOutcome eight = RunWithWorkers(8);
  ExpectSameOutcome(one, two, 2);
  ExpectSameOutcome(one, eight, 8);
}

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

// Tests of the DiCE emulator and the workload generator, plus the end-to-end
// integration test: a full simulated network run where a baseline node and a
// Forerunner node process identical traffic and must agree on every state
// root (the paper's §5.2 correctness validation).
#include "src/dice/simulator.h"

#include <gtest/gtest.h>

#include "src/replay/recording.h"
#include "src/workload/workload.h"

namespace frn {
namespace {

ScenarioConfig SmallScenario(uint64_t seed = 0x51) {
  ScenarioConfig cfg = ScenarioByName("L1");
  cfg.seed = seed;
  cfg.duration = 45;
  cfg.tx_rate = 2.0;
  cfg.n_users = 60;
  cfg.cold_read_latency = std::chrono::nanoseconds(0);
  cfg.dice.seed = seed * 31 + 7;
  return cfg;
}

TEST(WorkloadTest, TrafficIsDeterministicAndNonceOrdered) {
  ScenarioConfig cfg = SmallScenario();
  Workload w1(cfg);
  Workload w2(cfg);
  auto a = w1.GenerateTraffic();
  auto b = w2.GenerateTraffic();
  ASSERT_EQ(a.size(), b.size());
  ASSERT_GT(a.size(), 20u);
  std::unordered_map<Address, uint64_t, AddressHasher> next;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].tx.id, b[i].tx.id);
    EXPECT_EQ(a[i].tx.data, b[i].tx.data);
    EXPECT_EQ(a[i].sent_at, b[i].sent_at);
    // Per-sender nonces are consecutive in send order.
    uint64_t expected = next[a[i].tx.sender];
    EXPECT_EQ(a[i].tx.nonce, expected);
    next[a[i].tx.sender] = expected + 1;
  }
}

TEST(WorkloadTest, GenesisIsDeterministic) {
  ScenarioConfig cfg = SmallScenario();
  Workload workload(cfg);
  auto build_root = [&]() {
    KvStore store(KvStore::Options{.cold_read_latency = std::chrono::nanoseconds(0)});
    Mpt trie(&store);
    StateDb state(&trie, Mpt::EmptyRoot());
    workload.InitGenesis(&state);
    return state.Commit();
  };
  EXPECT_EQ(build_root(), build_root());
}

TEST(WorkloadTest, ScenarioCatalogHasSixDatasets) {
  auto names = AllScenarioNames();
  ASSERT_EQ(names.size(), 6u);
  for (const auto& name : names) {
    ScenarioConfig cfg = ScenarioByName(name);
    EXPECT_EQ(cfg.name, name);
    EXPECT_GT(cfg.tx_rate, 0.0);
  }
  // Distinct seeds produce distinct traffic.
  EXPECT_NE(ScenarioByName("L1").seed, ScenarioByName("R1").seed);
}

TEST(WorkloadTest, UnknownScenarioNameAborts) {
  EXPECT_DEATH(ScenarioByName("R9"), "unknown scenario 'R9'");
}

TEST(DiceTest, MinersHaveDistinctIdentities) {
  ScenarioConfig cfg = SmallScenario();
  Workload workload(cfg);
  DiceSimulator sim(cfg.dice, workload.GenerateTraffic());
  ASSERT_EQ(sim.miners().size(), kDiceMiners);
  for (size_t i = 1; i < sim.miners().size(); ++i) {
    EXPECT_NE(sim.miners()[i].coinbase, sim.miners()[0].coinbase);
    EXPECT_LE(sim.miners()[i].weight, sim.miners()[i - 1].weight);
  }
}

// The headline integration test: baseline + Forerunner over live traffic.
TEST(DiceIntegrationTest, BaselineAndForerunnerAgreeOnEveryRoot) {
  ScenarioConfig cfg = SmallScenario();
  Workload workload(cfg);
  auto traffic = workload.GenerateTraffic();
  DiceSimulator sim(cfg.dice, traffic);

  auto genesis = [&](StateDb* state) { workload.InitGenesis(state); };
  Node baseline(ScenarioNodeOptions(cfg, ExecStrategy::kBaseline, sim.miners()), genesis);
  Node forerunner(ScenarioNodeOptions(cfg, ExecStrategy::kForerunner, sim.miners()), genesis);

  SimReport report = sim.Run({&baseline, &forerunner}, cfg.name);
  EXPECT_TRUE(report.roots_consistent);
  EXPECT_GT(report.blocks, 0u);
  EXPECT_GT(report.txs_packed, 20u);
  ASSERT_EQ(report.nodes.size(), 2u);
  ASSERT_EQ(report.nodes[0].records.size(), report.nodes[1].records.size());

  // Identical per-tx outcomes across nodes.
  size_t heard = 0;
  size_t accelerated = 0;
  for (size_t i = 0; i < report.nodes[0].records.size(); ++i) {
    const TxExecRecord& b = report.nodes[0].records[i];
    const TxExecRecord& f = report.nodes[1].records[i];
    EXPECT_EQ(b.tx_id, f.tx_id);
    EXPECT_EQ(b.status, f.status);
    EXPECT_EQ(b.gas_used, f.gas_used);
    heard += f.heard ? 1 : 0;
    accelerated += f.accelerated ? 1 : 0;
  }
  // Most packed transactions were heard in dissemination and accelerated.
  EXPECT_GT(static_cast<double>(heard) / report.txs_packed, 0.7);
  EXPECT_GT(static_cast<double>(accelerated) / report.txs_packed, 0.5);
  // Off-critical-path work happened on the Forerunner node only.
  EXPECT_GT(report.nodes[1].futures_speculated, 0u);
  EXPECT_EQ(report.nodes[0].futures_speculated, 0u);
  EXPECT_GT(report.nodes[1].speculation_seconds, 0.0);
}

TEST(DiceIntegrationTest, AllFourStrategiesAgreeOnRoots) {
  ScenarioConfig cfg = SmallScenario(0x77);
  cfg.duration = 30;
  Workload workload(cfg);
  DiceSimulator sim(cfg.dice, workload.GenerateTraffic());
  auto genesis = [&](StateDb* state) { workload.InitGenesis(state); };

  Node baseline(ScenarioNodeOptions(cfg, ExecStrategy::kBaseline, sim.miners()), genesis);
  Node perfect(ScenarioNodeOptions(cfg, ExecStrategy::kPerfectMatch, sim.miners()), genesis);
  Node multi(ScenarioNodeOptions(cfg, ExecStrategy::kPerfectMulti, sim.miners()), genesis);
  Node forerunner(ScenarioNodeOptions(cfg, ExecStrategy::kForerunner, sim.miners()), genesis);

  SimReport report =
      sim.Run({&baseline, &perfect, &multi, &forerunner}, cfg.name);
  EXPECT_TRUE(report.roots_consistent);
  EXPECT_GT(report.blocks, 0u);

  // Coverage ordering: Forerunner >= perfect+multi >= perfect single-future.
  auto accel_rate = [&](size_t node) {
    size_t n = 0;
    for (const TxExecRecord& r : report.nodes[node].records) {
      n += r.accelerated ? 1 : 0;
    }
    return static_cast<double>(n) / static_cast<double>(report.txs_packed);
  };
  EXPECT_GE(accel_rate(3) + 1e-9, accel_rate(2));
  EXPECT_GE(accel_rate(2) + 1e-9, accel_rate(1));
}

TEST(DiceIntegrationTest, TemporaryForksExecuteAndReorgConsistently) {
  ScenarioConfig cfg = SmallScenario(0x0F0);
  cfg.duration = 60;
  cfg.dice.fork_rate = 0.5;  // force plenty of forks
  cfg.dice.fork_resolution_delay = 3.0;
  Workload workload(cfg);
  DiceSimulator sim(cfg.dice, workload.GenerateTraffic());
  auto genesis = [&](StateDb* state) { workload.InitGenesis(state); };
  Node baseline(ScenarioNodeOptions(cfg, ExecStrategy::kBaseline, sim.miners()), genesis);
  Node forerunner(ScenarioNodeOptions(cfg, ExecStrategy::kForerunner, sim.miners()), genesis);
  SimReport report = sim.Run({&baseline, &forerunner}, cfg.name);
  EXPECT_TRUE(report.roots_consistent);  // includes the fork-block executions
  EXPECT_GT(report.fork_blocks, 0u);
  EXPECT_GT(report.blocks, 0u);
  // Fork-block records are marked and symmetric across nodes.
  size_t fork_records = 0;
  for (size_t i = 0; i < report.nodes[0].records.size(); ++i) {
    EXPECT_EQ(report.nodes[0].records[i].on_fork, report.nodes[1].records[i].on_fork);
    fork_records += report.nodes[0].records[i].on_fork ? 1 : 0;
  }
  EXPECT_GT(fork_records, 0u);
  // Main-chain record count matches the packed-transaction count.
  EXPECT_EQ(report.nodes[0].records.size() - fork_records, report.txs_packed);
  // After every reorg both nodes still agree on the final state.
  EXPECT_EQ(baseline.head_root(), forerunner.head_root());
}

TEST(DiceIntegrationTest, DepthEightChurnWithVersionedStoreMatchesTrieOnly) {
  ScenarioConfig cfg = SmallScenario(0x0F0);
  cfg.duration = 90;
  cfg.tx_rate = 6.0;  // enough backlog for rivals to extend deep branches
  cfg.dice.fork_rate = 0.5;
  cfg.dice.fork_resolution_delay = 3.0;
  cfg.dice.max_fork_depth = 8;  // losing branches up to eight blocks deep
  Workload workload(cfg);
  DiceSimulator sim(cfg.dice, workload.GenerateTraffic());
  auto genesis = [&](StateDb* state) { workload.InitGenesis(state); };
  // Both nodes widen the undo window (and with it their stores' retention)
  // to cover the deepest fork; every reorg is a handle swap.
  NodeOptions base = ScenarioNodeOptions(cfg, ExecStrategy::kBaseline, sim.miners());
  base.chain.max_reorg_depth = 8;
  NodeOptions forerunner = base;
  forerunner.strategy = ExecStrategy::kForerunner;
  Node baseline(base, genesis);
  Node node(forerunner, genesis);
  SimReport report = sim.Run({&baseline, &node}, cfg.name);
  EXPECT_TRUE(report.roots_consistent);  // includes every fork-branch block
  EXPECT_GT(report.fork_blocks, 0u);
  EXPECT_GE(report.max_fork_depth_seen, 3u);  // churn actually went deep
  // Through every reorg, the final head matches the trie-only replay of the
  // main chain.
  const std::vector<Hash> roots = ReplayTrieOnly(genesis, report.chain);
  ASSERT_FALSE(roots.empty());
  EXPECT_EQ(baseline.head_root(), roots.back());
  EXPECT_EQ(node.head_root(), roots.back());
  // The store was live the whole run and never tripped: no commit was
  // refused, no read fell off coverage, and the view is still active.
  for (const NodeRunStats& stats : report.nodes) {
    EXPECT_TRUE(stats.state_view_active);
    EXPECT_EQ(stats.versioned.invalidations, 0u);
    EXPECT_GT(stats.versioned.commits, 0u);
    EXPECT_EQ(stats.chain_state.versioned_misses, 0u);
  }
}

TEST(DiceIntegrationTest, SimulationIsDeterministic) {
  // Two independent runs with the same seeds must produce identical chains
  // and identical final state roots (wall-clock timings excluded).
  auto run_once = [](uint64_t seed) {
    ScenarioConfig cfg = SmallScenario(seed);
    cfg.duration = 25;
    Workload workload(cfg);
    DiceSimulator sim(cfg.dice, workload.GenerateTraffic());
    auto genesis = [&](StateDb* state) { workload.InitGenesis(state); };
    Node baseline(ScenarioNodeOptions(cfg, ExecStrategy::kBaseline, sim.miners()), genesis);
    SimReport report = sim.Run({&baseline}, cfg.name);
    return std::make_pair(report, baseline.head_root());
  };
  auto [r1, root1] = run_once(0x1234);
  auto [r2, root2] = run_once(0x1234);
  EXPECT_EQ(root1, root2);
  ASSERT_EQ(r1.blocks, r2.blocks);
  ASSERT_EQ(r1.chain.size(), r2.chain.size());
  for (size_t b = 0; b < r1.chain.size(); ++b) {
    EXPECT_EQ(r1.chain[b].header.timestamp, r2.chain[b].header.timestamp);
    EXPECT_EQ(r1.chain[b].header.coinbase, r2.chain[b].header.coinbase);
    ASSERT_EQ(r1.chain[b].txs.size(), r2.chain[b].txs.size());
    for (size_t t = 0; t < r1.chain[b].txs.size(); ++t) {
      EXPECT_EQ(r1.chain[b].txs[t].id, r2.chain[b].txs[t].id);
    }
  }
  // And a different seed produces a different chain.
  auto [r3, root3] = run_once(0x9999);
  EXPECT_NE(root1, root3);
}

TEST(DiceIntegrationTest, MinersPackNonceChainsInOrder) {
  ScenarioConfig cfg = SmallScenario(0x66);
  cfg.duration = 30;
  Workload workload(cfg);
  DiceSimulator sim(cfg.dice, workload.GenerateTraffic());
  auto genesis = [&](StateDb* state) { workload.InitGenesis(state); };
  Node baseline(ScenarioNodeOptions(cfg, ExecStrategy::kBaseline, sim.miners()), genesis);
  SimReport report = sim.Run({&baseline}, cfg.name);
  // Across the whole chain, each sender's nonces appear in increasing order,
  // and no transaction failed with a nonce error.
  std::unordered_map<Address, uint64_t, AddressHasher> next;
  size_t index = 0;
  for (const Block& block : report.chain) {
    for (const Transaction& tx : block.txs) {
      uint64_t expected = next[tx.sender];
      EXPECT_EQ(tx.nonce, expected) << "tx " << tx.id;
      next[tx.sender] = expected + 1;
      EXPECT_NE(report.nodes[0].records[index].status, ExecStatus::kBadNonce);
      ++index;
    }
  }
}

TEST(DiceIntegrationTest, HeardDelaysPopulated) {
  ScenarioConfig cfg = SmallScenario(0x99);
  cfg.duration = 30;
  Workload workload(cfg);
  DiceSimulator sim(cfg.dice, workload.GenerateTraffic());
  auto genesis = [&](StateDb* state) { workload.InitGenesis(state); };
  Node baseline(ScenarioNodeOptions(cfg, ExecStrategy::kBaseline, sim.miners()), genesis);
  SimReport report = sim.Run({&baseline}, cfg.name);
  EXPECT_EQ(report.heard_delays.size(), report.heard_count);
  for (double d : report.heard_delays) {
    EXPECT_GE(d, 0.0);
  }
}

}  // namespace
}  // namespace frn

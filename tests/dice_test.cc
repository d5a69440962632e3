// Tests of the DiCE emulator and the workload generator: deterministic
// traffic and genesis, miner identities, nonce-ordered packing, heard delays,
// and the refusal of a fork branch deeper than a node's undo window. Whole
// runs that must agree on every state root (the paper's §5.2 correctness
// validation) are the oracle's (tests/oracle_test.cc).
#include "src/dice/simulator.h"

#include <gtest/gtest.h>

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

// A node that cannot unwind a losing branch would execute the winner on top
// of it; DiCE names the node, its window and the branch depth, and aborts.
TEST(DiceTest, BranchDeeperThanTheUndoWindowAborts) {
  ScenarioConfig cfg = SmallScenario(0x0F0);
  cfg.duration = 30;
  cfg.dice.fork_rate = 0.5;
  cfg.dice.fork_resolution_delay = 3.0;
  cfg.dice.max_fork_depth = 3;
  Workload workload(cfg);
  DiceSimulator sim(cfg.dice, workload.GenerateTraffic());
  NodeOptions options = ScenarioNodeOptions(cfg, ExecStrategy::kBaseline, sim.miners());
  options.chain.max_reorg_depth = 1;
  Node node(options, [&](StateDb* state) { workload.InitGenesis(state); });
  EXPECT_DEATH(sim.Run({&node}, cfg.name),
               "node 0 has a 1-block undo window, too short for a [2-9]-block fork branch");
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

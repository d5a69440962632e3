// Tests of the §5.1 recorder/emulator: capture a live run, serialize it,
// round-trip the file format, and replay it against fresh nodes — the replay
// must reproduce the live run's chain, per-transaction outcomes and state
// roots exactly.
#include "src/replay/recording.h"

#include <cstdio>
#include <gtest/gtest.h>

#include "src/workload/workload.h"

namespace frn {
namespace {

ScenarioConfig SmallScenario() {
  ScenarioConfig cfg = ScenarioByName("L1");
  cfg.seed = 0x3E0;
  cfg.duration = 35;
  cfg.tx_rate = 2.0;
  cfg.n_users = 50;
  cfg.cold_read_latency = std::chrono::nanoseconds(0);
  cfg.dice.seed = 0x3E0D1CE;
  return cfg;
}

class ReplayTest : public ::testing::Test {
 protected:
  void SetUp() override {
    cfg_ = SmallScenario();
    workload_ = std::make_unique<Workload>(cfg_);
    traffic_ = workload_->GenerateTraffic();
    sim_ = std::make_unique<DiceSimulator>(cfg_.dice, traffic_);
    genesis_ = [w = workload_.get()](StateDb* state) { w->InitGenesis(state); };
    // Live run with a baseline node.
    Node live(ScenarioNodeOptions(cfg_, ExecStrategy::kBaseline, sim_->miners()), genesis_);
    live_report_ = sim_->Run({&live}, cfg_.name);
    recording_ = CaptureRecording(live_report_, traffic_);
  }

  ScenarioConfig cfg_;
  std::unique_ptr<Workload> workload_;
  std::vector<TimedTx> traffic_;
  std::unique_ptr<DiceSimulator> sim_;
  std::function<void(StateDb*)> genesis_;
  SimReport live_report_;
  Recording recording_;
};

TEST_F(ReplayTest, CaptureCoversAllPackedTransactions) {
  ASSERT_GT(live_report_.blocks, 0u);
  size_t recorded = 0;
  for (const Block& block : recording_.blocks) {
    recorded += block.txs.size();
  }
  EXPECT_EQ(recorded, live_report_.txs_packed);
  EXPECT_EQ(recording_.blocks.size(), live_report_.chain.size());
  // Heard times are sorted and within the simulation window.
  for (size_t i = 1; i < recording_.heard.size(); ++i) {
    EXPECT_LE(recording_.heard[i - 1].heard_at, recording_.heard[i].heard_at);
  }
}

TEST_F(ReplayTest, SerializationRoundTrips) {
  std::string text = SerializeRecording(recording_);
  Recording back;
  ASSERT_TRUE(DeserializeRecording(text, &back));
  EXPECT_EQ(back.scenario, recording_.scenario);
  ASSERT_EQ(back.heard.size(), recording_.heard.size());
  for (size_t i = 0; i < back.heard.size(); ++i) {
    EXPECT_EQ(back.heard[i].tx.id, recording_.heard[i].tx.id);
    EXPECT_EQ(back.heard[i].tx.data, recording_.heard[i].tx.data);
    EXPECT_EQ(back.heard[i].tx.value, recording_.heard[i].tx.value);
    EXPECT_NEAR(back.heard[i].heard_at, recording_.heard[i].heard_at, 1e-6);
  }
  ASSERT_EQ(back.blocks.size(), recording_.blocks.size());
  for (size_t b = 0; b < back.blocks.size(); ++b) {
    EXPECT_EQ(back.blocks[b].header.timestamp, recording_.blocks[b].header.timestamp);
    EXPECT_EQ(back.blocks[b].header.coinbase, recording_.blocks[b].header.coinbase);
    ASSERT_EQ(back.blocks[b].txs.size(), recording_.blocks[b].txs.size());
    for (size_t t = 0; t < back.blocks[b].txs.size(); ++t) {
      EXPECT_EQ(back.blocks[b].txs[t].id, recording_.blocks[b].txs[t].id);
    }
  }
  // Serialization is deterministic.
  EXPECT_EQ(SerializeRecording(back), text);
}

TEST_F(ReplayTest, FileRoundTrip) {
  std::string path = std::string(::testing::TempDir()) + "/forerunner_recording_test.txt";
  ASSERT_TRUE(WriteRecording(recording_, path));
  Recording back;
  ASSERT_TRUE(ReadRecording(path, &back));
  EXPECT_EQ(SerializeRecording(back), SerializeRecording(recording_));
  std::remove(path.c_str());
}

TEST_F(ReplayTest, DeserializeRejectsCorruptInput) {
  Recording out;
  EXPECT_FALSE(DeserializeRecording("", &out));
  EXPECT_FALSE(DeserializeRecording("BOGUS v1 L1\n", &out));
  std::string text = SerializeRecording(recording_);
  text.resize(text.size() / 2);  // truncated
  Recording partial;
  EXPECT_FALSE(DeserializeRecording(text, &partial));
}

TEST_F(ReplayTest, ReplayedReportCarriesEveryNodeStat) {
  // A replay fills each node's stats the way a live DiCE run does.
  NodeOptions options = ScenarioNodeOptions(cfg_, ExecStrategy::kForerunner, sim_->miners());
  options.spec_workers = 2;
  Node baseline(ScenarioNodeOptions(cfg_, ExecStrategy::kBaseline, sim_->miners()), genesis_);
  Node forerunner(options, genesis_);
  SimReport replayed = ReplayRecording(recording_, {&baseline, &forerunner});
  ASSERT_EQ(replayed.nodes.size(), 2u);
  EXPECT_EQ(replayed.nodes[0].strategy, ExecStrategy::kBaseline);
  const NodeRunStats& stats = replayed.nodes[1];
  EXPECT_EQ(stats.strategy, ExecStrategy::kForerunner);
  EXPECT_EQ(stats.spec_workers, 2u);
  EXPECT_EQ(stats.spec_worker_stats.size(), 2u);
  EXPECT_GT(stats.speculation_wall_seconds, 0.0);
  EXPECT_GT(stats.chain_state.versioned_hits, 0u);
  EXPECT_GT(stats.versioned.commits, 0u);
  EXPECT_TRUE(stats.state_view_active);
}

}  // namespace
}  // namespace frn

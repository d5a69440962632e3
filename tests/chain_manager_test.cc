// Tests of the chain manager subsystem: multi-depth rollbacks restore exact
// roots/nonces and re-inject orphans exactly once, the undo window is
// bounded, fork choice follows height/first-seen, and (with the opt-in knobs)
// speculation survives a reorg instead of being rebuilt from scratch.
#include "src/forerunner/chain_manager.h"

#include <gtest/gtest.h>

#include "src/contracts/contracts.h"
#include "src/crypto/keccak.h"
#include "src/forerunner/node.h"
#include "src/replay/recording.h"
#include "tests/test_util.h"

namespace frn {
namespace {

class ChainRollbackTest : public ::testing::Test {
 protected:
  void SetUp() override {
    options_.store.cold_read_latency = std::chrono::nanoseconds(0);
    sender_ = Address::FromId(1);
  }

  std::unique_ptr<Node> MakeNode() {
    auto genesis = [this](StateDb* state) {
      state->AddBalance(sender_, U256::Exp(U256(10), U256(21)));
    };
    return std::make_unique<Node>(options_, genesis);
  }

  Block MakeBlock(uint64_t number) {
    Transaction tx;
    tx.id = number;
    tx.sender = sender_;
    tx.to = Address::FromId(2);
    tx.value = U256(5);
    tx.nonce = number - 1;
    tx.gas_limit = 30'000;
    tx.gas_price = U256(1'000'000'000);
    Block block;
    block.header.number = number;
    block.header.timestamp = 1'700'000'000 + number * 13;
    block.txs = {tx};
    return block;
  }

  NodeOptions options_;
  Address sender_;
};

TEST_F(ChainRollbackTest, MultiDepthRollbackRestoresRootsNoncesAndOrphans) {
  auto node = MakeNode();
  std::vector<Hash> roots;  // roots[k] = root after block k+1
  std::vector<Block> blocks;
  for (uint64_t n = 1; n <= 5; ++n) {
    Block block = MakeBlock(n);
    node->OnHeard(block.txs[0], 0.5 * n);
    BlockExecReport report = node->ExecuteBlock(block, 13.0 * n);
    roots.push_back(report.state_root);
    blocks.push_back(block);
  }
  EXPECT_EQ(node->pool_size(), 0u);
  EXPECT_EQ(node->head().number, 5u);
  // Five blocks committed but only the last four are undoable (default window).
  EXPECT_EQ(node->reorg_window(), 4u);

  // Walk back depth 1..4: each step restores the exact prior root and height
  // and returns exactly that block's orphan to the pool (no duplicates).
  for (size_t depth = 1; depth <= 4; ++depth) {
    ASSERT_TRUE(node->CanRollback());
    node->RollbackHead();
    EXPECT_EQ(node->head().number, 5u - depth);
    EXPECT_EQ(node->head_root(), roots[4 - depth]);
    EXPECT_EQ(node->pool_size(), depth);
    EXPECT_EQ(node->chain().chain_nonces().at(sender_), 5u - depth);
  }
  EXPECT_EQ(node->mempool_stats().reinserted, 4u);

  // The window is exhausted: a fifth rollback is refused and changes nothing.
  EXPECT_FALSE(node->CanRollback());
  Hash before = node->head_root();
  node->RollbackHead();
  EXPECT_EQ(node->head_root(), before);
  EXPECT_EQ(node->head().number, 1u);
  EXPECT_EQ(node->pool_size(), 4u);

  // Replaying the same blocks reproduces the exact same roots.
  for (uint64_t n = 2; n <= 5; ++n) {
    BlockExecReport report = node->ExecuteBlock(blocks[n - 1], 100.0 + n);
    EXPECT_EQ(report.state_root, roots[n - 1]);
    EXPECT_TRUE(report.txs[0].heard);  // the reinserted orphan, found again
  }
  EXPECT_EQ(node->pool_size(), 0u);
  EXPECT_EQ(node->head_root(), roots[4]);
}

TEST_F(ChainRollbackTest, ReorgWindowIsConfigurable) {
  options_.chain.max_reorg_depth = 2;
  auto node = MakeNode();
  for (uint64_t n = 1; n <= 5; ++n) {
    node->ExecuteBlock(MakeBlock(n), 13.0 * n);
  }
  EXPECT_EQ(node->reorg_window(), 2u);
  node->RollbackHead();
  node->RollbackHead();
  EXPECT_EQ(node->head().number, 3u);
  EXPECT_FALSE(node->CanRollback());
}

TEST_F(ChainRollbackTest, DepthEightRollbackWithVersionedStoreMatchesTrieOnly) {
  // Widen the undo window to depth 8; the node's versioned store retains as
  // many versions, so every rollback inside the window is a handle swap.
  options_.chain.max_reorg_depth = 8;
  options_.chain.commit_workers = 2;
  auto node = MakeNode();

  std::vector<Block> blocks;
  for (uint64_t n = 1; n <= 9; ++n) {
    blocks.push_back(MakeBlock(n));
  }
  // roots[k] = trie-only reference root after block k+1.
  const std::vector<Hash> roots = ReplayTrieOnly(
      [this](StateDb* state) { state->AddBalance(sender_, U256::Exp(U256(10), U256(21))); },
      blocks);
  for (uint64_t n = 1; n <= 9; ++n) {
    ASSERT_EQ(node->ExecuteBlock(blocks[n - 1], 13.0 * n).state_root, roots[n - 1])
        << "block " << n;
  }

  // Walk the full depth-8 window back: every step must land on the exact
  // trie-only root.
  for (size_t depth = 1; depth <= 8; ++depth) {
    ASSERT_TRUE(node->CanRollback());
    node->RollbackHead();
    EXPECT_EQ(node->head().number, 9u - depth);
    EXPECT_EQ(node->head_root(), roots[8 - depth]);
  }
  EXPECT_TRUE(node->view_active());

  // Replaying the chain forward reproduces every root bit-identically.
  for (uint64_t n = 2; n <= 9; ++n) {
    EXPECT_EQ(node->ExecuteBlock(blocks[n - 1], 200.0 + n).state_root, roots[n - 1]);
  }
  EXPECT_EQ(node->versioned_stats().invalidations, 0u);
}

TEST(ChainManagerTest, ForkChoiceAdoptsByHeightThenFirstSeen) {
  ChainManager::BranchTip current{10, 100.0};
  EXPECT_TRUE(ChainManager::ShouldAdopt(current, {11, 200.0}));   // longer wins
  EXPECT_FALSE(ChainManager::ShouldAdopt(current, {9, 1.0}));     // shorter loses
  EXPECT_FALSE(ChainManager::ShouldAdopt(current, {10, 200.0}));  // tie: later loses
  EXPECT_FALSE(ChainManager::ShouldAdopt(current, {10, 100.0}));  // tie: no churn
  EXPECT_TRUE(ChainManager::ShouldAdopt(current, {10, 50.0}));    // tie: earlier wins
}

TEST(ChainManagerTest, SpeculationRetainedAcrossReorg) {
  NodeOptions options;
  options.store.cold_read_latency = std::chrono::nanoseconds(0);
  options.spec.retain_across_reorg = true;
  options.spec.roots_per_tx = 4;
  Address sender = Address::FromId(1);
  Address registry = Address::FromId(90);
  auto genesis = [&](StateDb* state) {
    state->AddBalance(sender, U256::Exp(U256(10), U256(21)));
    state->SetCode(registry, Registry::Code());
  };
  Node node(options, genesis);

  Transaction tx;
  tx.id = 1;
  tx.sender = sender;
  tx.to = registry;
  tx.data = EncodeCall(Registry::kSet, {U256(1), U256(11)});
  tx.gas_limit = 150'000;
  tx.gas_price = U256(1'000'000'000);
  tx.nonce = 0;

  node.OnHeard(tx, 1.0);
  node.RunSpeculationPipeline(1.5);
  ASSERT_EQ(node.futures_speculated(), 2u);  // two header variants

  Block block;
  block.header.number = 1;
  block.header.timestamp = 1'700'000'013;
  block.header.coinbase = Address::FromId(0xC0FFEE);
  block.txs = {tx};
  BlockExecReport first = node.ExecuteBlock(block, 13.0);
  EXPECT_TRUE(first.txs[0].accelerated);
  EXPECT_EQ(node.spec_cache_stats().retired, 1u);

  // The reorg restores the parked speculation; since its retained roots still
  // cover the restored head, the next pipeline round skips re-speculation.
  node.RollbackHead();
  SpecCacheStats stats = node.spec_cache_stats();
  EXPECT_EQ(stats.restored, 1u);
  node.RunSpeculationPipeline(14.0);
  stats = node.spec_cache_stats();
  EXPECT_GE(stats.root_skips, 1u);
  EXPECT_GE(stats.reorg_hits, 1u);
  EXPECT_EQ(node.futures_speculated(), 2u);  // no re-speculation happened

  // The restored speculation accelerates the replay to the identical root.
  BlockExecReport second = node.ExecuteBlock(block, 20.0);
  EXPECT_TRUE(second.txs[0].speculated);
  EXPECT_TRUE(second.txs[0].accelerated);
  EXPECT_EQ(second.state_root, first.state_root);
}

TEST(ChainManagerTest, SpecCacheEvictsLeastRecentlyUsed) {
  NodeOptions options;
  options.store.cold_read_latency = std::chrono::nanoseconds(0);
  options.spec.max_entries = 1;
  Address alice = Address::FromId(1);
  Address bob = Address::FromId(2);
  auto genesis = [&](StateDb* state) {
    state->AddBalance(alice, U256::Exp(U256(10), U256(21)));
    state->AddBalance(bob, U256::Exp(U256(10), U256(21)));
  };
  Node node(options, genesis);

  for (uint64_t i = 0; i < 2; ++i) {
    Transaction tx;
    tx.id = i + 1;
    tx.sender = i == 0 ? alice : bob;
    tx.to = Address::FromId(50);
    tx.value = U256(5);
    tx.gas_limit = 30'000;
    tx.gas_price = U256(1'000'000'000);
    node.OnHeard(tx, 1.0);
  }
  node.RunSpeculationPipeline(1.5);
  SpecCacheStats stats = node.spec_cache_stats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.max_entries_seen, 2u);  // both merged before the LRU trim
}

TEST(ChainManagerTest, CoveredSkipRefreshesSpecCacheLru) {
  SpecManagerOptions options;
  options.max_entries = 2;
  SpeculationManager mgr(options);
  const Hash head = Keccak256Word(U256(42));

  auto predict = [](uint64_t id) {
    TxPrediction p;
    p.tx.id = id;
    return p;
  };
  auto merge = [&](uint64_t id) {
    std::vector<TxPrediction> predictions = {predict(id)};
    std::vector<SpecJob> jobs = mgr.BuildJobs(predictions, head, 2);
    ASSERT_EQ(jobs.size(), 1u);
    std::vector<SpecJobResult> results(1);
    results[0].spec.tx_id = id;
    mgr.MergeResults(&results, /*sim_time=*/0.0, /*time_scale=*/0.0, {});
  };

  merge(1);  // the hot entry, merged first (oldest merge-time stamp)
  merge(2);
  // Tx 1 stays pending and covered: the head never moves, so every further
  // pipeline round skips it. A covered skip is a use — it must refresh the
  // entry's LRU, or the cache's hottest entry carries its original stamp.
  for (int round = 0; round < 3; ++round) {
    std::vector<TxPrediction> predictions = {predict(1)};
    EXPECT_TRUE(mgr.BuildJobs(predictions, head, 2).empty());
  }
  EXPECT_EQ(mgr.stats().root_skips, 3u);

  // A third entry forces an eviction under the 2-entry cap. Pre-fix the
  // skips never touched tx 1's stamp, so the repeatedly-covered (hottest)
  // entry was evicted ahead of the never-reused tx 2.
  merge(3);
  EXPECT_EQ(mgr.stats().evictions, 1u);
  EXPECT_NE(mgr.Lookup(1, 1.0), nullptr);  // survived: skipped = used
  EXPECT_EQ(mgr.Lookup(2, 1.0), nullptr);  // the true LRU victim
}

}  // namespace
}  // namespace frn

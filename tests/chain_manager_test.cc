// Tests of the chain manager subsystem: multi-depth rollbacks restore exact
// roots/nonces and re-inject orphans exactly once, the undo window is
// bounded, fork choice follows height/first-seen, and the speculation cache
// is keyed by the head root and bounded by the pool.
#include "src/forerunner/chain_manager.h"

#include <gtest/gtest.h>

#include "src/crypto/keccak.h"
#include "src/forerunner/node.h"
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

  // A block that advances one sender twice and a first-time sender once (the
  // newcomer is funded by the block's first transaction). Its rollback must
  // put the repeat sender back on its pre-block nonce and forget the
  // newcomer entirely.
  const Address newcomer = Address::FromId(3);
  Block block = MakeBlock(6);
  block.txs[0].to = newcomer;
  block.txs[0].value = U256::Exp(U256(10), U256(18));
  Transaction second = MakeBlock(7).txs[0];
  Transaction first_time = MakeBlock(8).txs[0];
  first_time.sender = newcomer;
  first_time.nonce = 0;
  block.txs.push_back(second);
  block.txs.push_back(first_time);
  for (const Transaction& tx : block.txs) {
    node->OnHeard(tx, 110.0);
  }
  BlockExecReport six = node->ExecuteBlock(block, 120.0);
  for (const TxExecRecord& record : six.txs) {
    EXPECT_EQ(record.status, ExecStatus::kSuccess) << "tx " << record.tx_id;
  }
  EXPECT_EQ(node->chain().chain_nonces().at(sender_), 7u);
  EXPECT_EQ(node->chain().chain_nonces().at(newcomer), 1u);
  node->RollbackHead();
  EXPECT_EQ(node->head_root(), roots[4]);
  EXPECT_EQ(node->chain().chain_nonces().at(sender_), 5u);
  EXPECT_FALSE(node->chain().chain_nonces().contains(newcomer));
  EXPECT_EQ(node->pool_size(), 3u);
  EXPECT_EQ(node->ExecuteBlock(block, 130.0).state_root, six.state_root);
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

TEST(ChainManagerTest, ForkChoiceAdoptsByHeightThenFirstSeen) {
  ChainManager::BranchTip current{10, 100.0};
  EXPECT_TRUE(ChainManager::ShouldAdopt(current, {11, 200.0}));   // longer wins
  EXPECT_FALSE(ChainManager::ShouldAdopt(current, {9, 1.0}));     // shorter loses
  EXPECT_FALSE(ChainManager::ShouldAdopt(current, {10, 200.0}));  // tie: later loses
  EXPECT_FALSE(ChainManager::ShouldAdopt(current, {10, 100.0}));  // tie: no churn
  EXPECT_TRUE(ChainManager::ShouldAdopt(current, {10, 50.0}));    // tie: earlier wins
}

TEST(ChainManagerTest, CoveredSkipBuildsNoJobUntilTheHeadMoves) {
  SpeculationManager mgr;
  const Hash head = Keccak256Word(U256(42));
  const Hash next_head = Keccak256Word(U256(43));
  std::vector<TxPrediction> predictions(1);
  predictions[0].tx.id = 1;

  std::vector<SpecJob> jobs = mgr.BuildJobs(predictions, head, 2);
  ASSERT_EQ(jobs.size(), 1u);
  EXPECT_EQ(jobs[0].root, head);
  std::vector<SpecJobResult> results(1);
  results[0].spec.tx_id = 1;
  mgr.MergeResults(&results, /*sim_time=*/0.0, /*time_scale=*/0.0, {});

  // The head never moves: every further round skips the transaction.
  for (int round = 0; round < 3; ++round) {
    EXPECT_TRUE(mgr.BuildJobs(predictions, head, 2).empty());
  }
  EXPECT_EQ(mgr.stats().root_skips, 3u);
  EXPECT_NE(mgr.Lookup(1, 1.0), nullptr);

  // A head move re-speculates it against the new root.
  jobs = mgr.BuildJobs(predictions, next_head, 2);
  ASSERT_EQ(jobs.size(), 1u);
  EXPECT_EQ(jobs[0].root, next_head);
  EXPECT_EQ(mgr.stats().root_skips, 3u);
  EXPECT_EQ(mgr.stats().entries, 1u);
}

TEST(ChainManagerTest, PoolCapacityBoundsTheSpecCache) {
  // The pool holds 3 transactions. Every round hears two new senders, each
  // dearer than the last (so the cheapest residents are evicted), and
  // doubles the price of the previous round's dearest transaction (a
  // replacement); the cache must shed both kinds of loser.
  constexpr size_t kCapacity = 3;
  constexpr uint64_t kRounds = 6;
  NodeOptions options;
  options.store.cold_read_latency = std::chrono::nanoseconds(0);
  options.spec_workers = 1;
  options.mempool.capacity = kCapacity;
  auto genesis = [&](StateDb* state) {
    for (uint64_t s = 1; s <= 2 * kRounds; ++s) {
      state->AddBalance(Address::FromId(s), U256::Exp(U256(10), U256(21)));
    }
  };
  Node node(options, genesis);

  uint64_t next_id = 1;
  // Sender s first bids 10*s gwei; a replacement bids `bump` times that.
  auto transfer = [&](uint64_t sender, uint64_t bump) {
    Transaction tx;
    tx.id = next_id++;
    tx.sender = Address::FromId(sender);
    tx.to = Address::FromId(50);
    tx.value = U256(5);
    tx.gas_limit = 30'000;
    tx.gas_price = U256(bump * sender * 10'000'000'000);
    return tx;
  };
  for (uint64_t round = 0; round < kRounds; ++round) {
    double now = 1.0 + static_cast<double>(round);
    if (round > 0) {
      node.OnHeard(transfer(2 * round, 2), now);
    }
    node.OnHeard(transfer(2 * round + 1, 1), now);
    node.OnHeard(transfer(2 * round + 2, 1), now);
    node.RunSpeculationPipeline(now + 0.5);
    SpecCacheStats cache = node.spec_cache_stats();
    EXPECT_LE(cache.entries, node.pool_size()) << "round " << round;
    EXPECT_GT(cache.entries, 0u) << "round " << round;
  }
  EXPECT_EQ(node.pool_size(), kCapacity);
  EXPECT_GT(node.mempool_stats().evictions, 0u);
  EXPECT_EQ(node.mempool_stats().replacements, kRounds - 1);
  EXPECT_GT(node.spec_cache_stats().dropped, 0u);
  EXPECT_LE(node.spec_cache_stats().max_entries_seen, kCapacity);
}

}  // namespace
}  // namespace frn

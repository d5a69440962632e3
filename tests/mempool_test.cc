// Tests of the mempool subsystem: replacement-by-fee, deterministic capacity
// eviction with per-sender nonce queues, reorg reinsertion, and the
// steady-state guarantee that retirement releases all per-tx bookkeeping.
#include "src/forerunner/mempool.h"

#include <gtest/gtest.h>

#include "src/contracts/contracts.h"
#include "src/forerunner/node.h"
#include "tests/test_util.h"

namespace frn {
namespace {

Transaction MakeTx(uint64_t id, Address sender, uint64_t nonce, uint64_t price) {
  Transaction tx;
  tx.id = id;
  tx.sender = sender;
  tx.to = Address::FromId(99);
  tx.nonce = nonce;
  tx.gas_price = U256(price);
  tx.gas_limit = 100'000;
  return tx;
}

TEST(MempoolTest, ReplacementByFeeRequiresBump) {
  Mempool pool(MempoolOptions{});
  Address alice = Address::FromId(1);

  ASSERT_EQ(pool.Add(MakeTx(1, alice, 0, 100), 1.0).outcome,
            Mempool::AddOutcome::kAdded);
  ASSERT_EQ(pool.Add(MakeTx(2, alice, 1, 100), 1.0).outcome,
            Mempool::AddOutcome::kAdded);

  // 5% over the resident price: below the 10% bump, rejected.
  Mempool::AddResult under = pool.Add(MakeTx(3, alice, 0, 105), 2.0);
  EXPECT_EQ(under.outcome, Mempool::AddOutcome::kUnderpriced);
  EXPECT_FALSE(under.accepted());
  EXPECT_EQ(pool.size(), 2u);
  EXPECT_TRUE(pool.Contains(1));
  EXPECT_FALSE(pool.Contains(3));

  // Exactly the 10% bump displaces the resident, keeping its arrival slot.
  Mempool::AddResult replaced = pool.Add(MakeTx(4, alice, 0, 110), 3.0);
  EXPECT_EQ(replaced.outcome, Mempool::AddOutcome::kReplaced);
  EXPECT_EQ(replaced.replaced_id, 1u);
  EXPECT_EQ(pool.size(), 2u);
  EXPECT_FALSE(pool.Contains(1));
  EXPECT_TRUE(pool.Contains(4));
  MempoolView view = pool.View();
  EXPECT_EQ(view.begin()->tx.id, 4u);  // replacement kept position 0
  EXPECT_EQ(std::next(view.begin())->tx.id, 2u);

  MempoolStats stats = pool.stats();
  EXPECT_EQ(stats.replacements, 1u);
  EXPECT_EQ(stats.underpriced, 1u);
  EXPECT_EQ(stats.heard, 3u);
}

TEST(MempoolTest, DuplicateAnnouncementsAreIgnored) {
  Mempool pool(MempoolOptions{});
  Address alice = Address::FromId(1);
  ASSERT_TRUE(pool.Add(MakeTx(1, alice, 0, 100), 1.0).accepted());
  Mempool::AddResult dup = pool.Add(MakeTx(1, alice, 0, 100), 2.0);
  EXPECT_EQ(dup.outcome, Mempool::AddOutcome::kDuplicate);
  EXPECT_EQ(pool.size(), 1u);
  EXPECT_EQ(pool.stats().duplicates, 1u);
}

TEST(MempoolTest, CapacityEvictionIsDeterministic) {
  MempoolOptions options;
  options.capacity = 3;
  Mempool pool(options);
  // Three senders with one tx each; sender C is the cheapest.
  ASSERT_TRUE(pool.Add(MakeTx(1, Address::FromId(1), 0, 300), 1.0).accepted());
  ASSERT_TRUE(pool.Add(MakeTx(2, Address::FromId(2), 0, 200), 1.0).accepted());
  ASSERT_TRUE(pool.Add(MakeTx(3, Address::FromId(3), 0, 100), 1.0).accepted());

  // A pricier newcomer evicts the cheapest resident.
  Mempool::AddResult added = pool.Add(MakeTx(4, Address::FromId(4), 0, 400), 2.0);
  EXPECT_EQ(added.outcome, Mempool::AddOutcome::kAdded);
  ASSERT_EQ(added.evicted_ids.size(), 1u);
  EXPECT_EQ(added.evicted_ids[0], 3u);
  EXPECT_EQ(pool.size(), 3u);

  // A newcomer cheaper than everything immediately loses the capacity fight.
  Mempool::AddResult evicted = pool.Add(MakeTx(5, Address::FromId(5), 0, 50), 3.0);
  EXPECT_EQ(evicted.outcome, Mempool::AddOutcome::kEvicted);
  EXPECT_FALSE(evicted.accepted());
  ASSERT_EQ(evicted.evicted_ids.size(), 1u);
  EXPECT_EQ(evicted.evicted_ids[0], 5u);
  EXPECT_FALSE(pool.Contains(5));
  EXPECT_EQ(pool.stats().evictions, 2u);
}

TEST(MempoolTest, EvictionDropsSenderTailSoNoNonceGapOpens) {
  MempoolOptions options;
  options.capacity = 3;
  Mempool pool(options);
  Address alice = Address::FromId(1);
  // Alice's nonce-0 tx is the cheapest entry, but evicting it would orphan
  // her queued nonce-1 and nonce-2; the tail (highest nonce) goes instead.
  ASSERT_TRUE(pool.Add(MakeTx(1, alice, 0, 10), 1.0).accepted());
  ASSERT_TRUE(pool.Add(MakeTx(2, alice, 1, 500), 1.0).accepted());
  ASSERT_TRUE(pool.Add(MakeTx(3, alice, 2, 500), 1.0).accepted());

  Mempool::AddResult added = pool.Add(MakeTx(4, Address::FromId(2), 0, 400), 2.0);
  EXPECT_TRUE(added.accepted());
  ASSERT_EQ(added.evicted_ids.size(), 1u);
  EXPECT_EQ(added.evicted_ids[0], 3u);  // alice's highest nonce, not her nonce 0
  EXPECT_TRUE(pool.Contains(1));
  EXPECT_TRUE(pool.Contains(2));
  EXPECT_FALSE(pool.Contains(3));
}

TEST(MempoolTest, RetireAndReinsertRoundTrip) {
  Mempool pool(MempoolOptions{});
  Address alice = Address::FromId(1);
  ASSERT_TRUE(pool.Add(MakeTx(1, alice, 0, 100), 1.5).accepted());

  double heard_at = 0;
  EXPECT_TRUE(pool.Retire(1, &heard_at));
  EXPECT_EQ(heard_at, 1.5);
  EXPECT_EQ(pool.size(), 0u);
  EXPECT_FALSE(pool.Retire(1, &heard_at));  // already gone

  // Reinsertion restores the original heard stamp and is idempotent.
  EXPECT_TRUE(pool.Reinsert(MakeTx(1, alice, 0, 100), 1.5).accepted());
  EXPECT_EQ(pool.Reinsert(MakeTx(1, alice, 0, 100), 1.5).outcome,
            Mempool::AddOutcome::kDuplicate);
  EXPECT_EQ(pool.size(), 1u);
  EXPECT_EQ(pool.View().begin()->heard_at, 1.5);
  MempoolStats stats = pool.stats();
  EXPECT_EQ(stats.retired, 1u);
  EXPECT_EQ(stats.reinserted, 1u);
}

// The pre-decomposition node kept a heard-time entry forever for every tx it
// ever heard; retirement must now release all per-tx bookkeeping so a node
// that drains its traffic returns to an empty steady state.
TEST(MempoolTest, NodeHeardBookkeepingReachesSteadyState) {
  NodeOptions options;
  options.store.cold_read_latency = std::chrono::nanoseconds(0);
  Address sender = Address::FromId(1);
  auto genesis = [&](StateDb* state) {
    state->AddBalance(sender, U256::Exp(U256(10), U256(21)));
  };
  Node node(options, genesis);

  Block block;
  block.header.number = 1;
  block.header.timestamp = 1'700'000'013;
  for (uint64_t i = 0; i < 3; ++i) {
    Transaction tx;
    tx.id = i + 1;
    tx.sender = sender;
    tx.to = Address::FromId(2);
    tx.value = U256(5);
    tx.nonce = i;
    tx.gas_limit = 30'000;
    tx.gas_price = U256(1'000'000'000);
    node.OnHeard(tx, 1.0 + i);
    block.txs.push_back(tx);
  }
  EXPECT_EQ(node.pool_size(), 3u);
  EXPECT_EQ(node.mempool_stats().heard, 3u);

  node.ExecuteBlock(block, 13.0);
  MempoolStats stats = node.mempool_stats();
  EXPECT_EQ(node.pool_size(), 0u);
  EXPECT_EQ(stats.size, 0u);
  EXPECT_EQ(stats.retired, 3u);

  // A reorg brings them back with their original heard stamps...
  node.RollbackHead();
  EXPECT_EQ(node.pool_size(), 3u);
  EXPECT_EQ(node.mempool_stats().reinserted, 3u);

  // ...and re-execution drains the pool again: no residue either way.
  node.ExecuteBlock(block, 20.0);
  stats = node.mempool_stats();
  EXPECT_EQ(node.pool_size(), 0u);
  EXPECT_EQ(stats.size, 0u);
  EXPECT_EQ(stats.retired, 6u);
}

}  // namespace
}  // namespace frn

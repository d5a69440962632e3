// Tests of the multi-version snapshot store: handle acquisition and pinned
// reads, fork commits without invalidation, retention folding (including
// pinned-handle deferral), stale-parent refusal staying local, concurrent
// readers pinning views through commit/fork churn (the TSan target), and
// node-level identity of store-backed nodes against the trie-only reference
// replay across rollbacks and commit-worker counts.
#include "src/state/versioned_state.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "src/crypto/keccak.h"
#include "src/forerunner/node.h"
#include "src/replay/recording.h"

namespace frn {
namespace {

Hash RootFor(uint64_t n) { return Keccak256Word(U256(n)); }

// Direct-store commit helper: one account delta (id 1 = balance n) plus one
// slot delta (slot 7 = 10n), committed under a synthetic distinct root.
SnapshotHandle CommitDelta(VersionedState* store, const SnapshotHandle& parent,
                           uint64_t n) {
  Account account;
  account.balance = U256(n);
  account.exists = true;
  return store->Commit(
      parent, RootFor(n), {{Address::FromId(1), account}},
      {{StateSlotKey{Address::FromId(1), U256(7)}, U256(n * 10)}});
}

TEST(VersionedStateTest, BaseCoversEmptyRootAndZeroHash) {
  VersionedState store(4);
  SnapshotHandle h = store.AcquireAt(Mpt::EmptyRoot());
  ASSERT_TRUE(h.valid());
  EXPECT_EQ(h.height(), 0u);
  EXPECT_EQ(h.root(), Mpt::EmptyRoot());
  // A zero hash normalizes to the empty root.
  EXPECT_TRUE(store.AcquireAt(Hash{}).valid());
  // The empty base answers authoritatively: no account, zero slot.
  EXPECT_FALSE(store.GetAccount(h, Address::FromId(1)).has_value());
  EXPECT_EQ(store.GetStorage(h, Address::FromId(1), U256(7)), U256(0));
}

TEST(VersionedStateTest, CommitThenAcquireReadsBack) {
  VersionedState store(4);
  SnapshotHandle h1 = CommitDelta(&store, store.AcquireAt(Mpt::EmptyRoot()), 1);
  ASSERT_TRUE(h1.valid());
  EXPECT_EQ(h1.height(), 1u);
  EXPECT_EQ(h1.root(), RootFor(1));

  SnapshotHandle again = store.AcquireAt(RootFor(1));
  ASSERT_TRUE(again.valid());
  auto account = store.GetAccount(again, Address::FromId(1));
  ASSERT_TRUE(account.has_value());
  EXPECT_EQ(account->balance, U256(1));
  EXPECT_EQ(store.GetStorage(again, Address::FromId(1), U256(7)), U256(10));
  // Unwritten locations read as authoritative absence through any view.
  EXPECT_FALSE(store.GetAccount(again, Address::FromId(2)).has_value());
  EXPECT_EQ(store.GetStorage(again, Address::FromId(1), U256(8)), U256(0));
}

TEST(VersionedStateTest, ForkCommitOnOldHandleNeedsNoInvalidation) {
  VersionedState store(4);
  SnapshotHandle h1 = CommitDelta(&store, store.AcquireAt(Mpt::EmptyRoot()), 1);
  SnapshotHandle h2 = CommitDelta(&store, h1, 2);
  ASSERT_TRUE(h2.valid());
  // A competing branch commits on top of block 1's still-pinned handle — the
  // old flat layer's permanent-invalidation case, now just a second child.
  SnapshotHandle fork = CommitDelta(&store, h1, 3);
  ASSERT_TRUE(fork.valid());
  EXPECT_EQ(fork.height(), 2u);
  EXPECT_EQ(store.stats().invalidations, 0u);

  // Both branches stay acquirable (h2 pins the losing one) and each reads its
  // own delta over the shared parent.
  SnapshotHandle main_view = store.AcquireAt(RootFor(2));
  SnapshotHandle fork_view = store.AcquireAt(RootFor(3));
  ASSERT_TRUE(main_view.valid());
  ASSERT_TRUE(fork_view.valid());
  EXPECT_EQ(store.GetAccount(main_view, Address::FromId(1))->balance, U256(2));
  EXPECT_EQ(store.GetAccount(fork_view, Address::FromId(1))->balance, U256(3));
}

TEST(VersionedStateTest, RetentionFoldsOldVersionsIntoBase) {
  VersionedState store(2);
  SnapshotHandle h = store.AcquireAt(Mpt::EmptyRoot());
  for (uint64_t n = 1; n <= 5; ++n) {
    h = CommitDelta(&store, h, n);
    ASSERT_TRUE(h.valid());
  }
  VersionedStateStats stats = store.stats();
  EXPECT_EQ(stats.commits, 5u);
  EXPECT_GE(stats.folds, 3u);
  EXPECT_LE(stats.depth, 2u);
  // The folded base still answers for its own root; roots folded past it are
  // gone, and the store counts those misses.
  EXPECT_TRUE(store.AcquireAt(RootFor(5)).valid());
  EXPECT_TRUE(store.AcquireAt(RootFor(4)).valid());
  EXPECT_FALSE(store.AcquireAt(RootFor(1)).valid());
  EXPECT_FALSE(store.AcquireAt(RootFor(2)).valid());
  EXPECT_GT(store.stats().acquire_misses, 0u);
  // The base absorbed every folded delta: the latest view reads full state.
  EXPECT_EQ(store.GetAccount(h, Address::FromId(1))->balance, U256(5));
  EXPECT_EQ(store.GetStorage(h, Address::FromId(1), U256(7)), U256(50));
}

TEST(VersionedStateTest, PinnedHandleDefersFoldingUntilReleased) {
  VersionedState store(1);
  SnapshotHandle pin = CommitDelta(&store, store.AcquireAt(Mpt::EmptyRoot()), 1);
  SnapshotHandle h = CommitDelta(&store, pin, 2);
  h = CommitDelta(&store, h, 3);
  // Folding v2 would retire the base the pin's chain bottoms out in; the
  // store defers instead of breaking the pinned reader.
  VersionedStateStats stats = store.stats();
  EXPECT_GT(stats.fold_deferrals, 0u);
  const uint64_t folds_while_pinned = stats.folds;
  EXPECT_EQ(store.GetAccount(pin, Address::FromId(1))->balance, U256(1));
  EXPECT_EQ(store.GetAccount(h, Address::FromId(1))->balance, U256(3));

  pin.Release();
  h = CommitDelta(&store, h, 4);
  EXPECT_GT(store.stats().folds, folds_while_pinned);  // pruning caught up
  EXPECT_LE(store.stats().depth, 1u);
}

TEST(VersionedStateTest, FoldDeferralsDrainOnHandleRelease) {
  VersionedState store(1);
  SnapshotHandle pin = CommitDelta(&store, store.AcquireAt(Mpt::EmptyRoot()), 1);
  SnapshotHandle h = CommitDelta(&store, pin, 2);
  h = CommitDelta(&store, h, 3);
  VersionedStateStats stats = store.stats();
  ASSERT_GT(stats.fold_deferrals, 0u);
  const uint64_t folds_while_pinned = stats.folds;
  ASSERT_GT(stats.depth, 1u);  // retention exceeded while the pin held

  // Releasing the pinning handle must retry the deferred folds immediately —
  // not at the next seal. (Pre-fix, a node that stopped committing would
  // carry the over-retention chain until the next block sealed.)
  pin.Release();
  stats = store.stats();
  EXPECT_GT(stats.folds, folds_while_pinned);
  EXPECT_LE(stats.depth, 1u);
  // The drained store still serves the live view correctly.
  EXPECT_EQ(store.GetAccount(h, Address::FromId(1))->balance, U256(3));
}

TEST(VersionedStateTest, StaleParentIsRefusedLocally) {
  VersionedState store(4);
  SnapshotHandle good = CommitDelta(&store, store.AcquireAt(Mpt::EmptyRoot()), 1);
  SnapshotHandle refused = CommitDelta(&store, SnapshotHandle{}, 2);
  EXPECT_FALSE(refused.valid());
  EXPECT_EQ(store.stats().invalidations, 1u);
  // Unlike the old flat layer's permanent trip wire, the store keeps serving
  // every retained view and accepting well-parented commits.
  EXPECT_TRUE(store.AcquireAt(RootFor(1)).valid());
  SnapshotHandle next = CommitDelta(&store, good, 3);
  EXPECT_TRUE(next.valid());
  EXPECT_EQ(store.stats().invalidations, 1u);
}

TEST(VersionedStateTest, ConcurrentReadersPinThroughCommitAndForkChurn) {
  VersionedState store(3);
  constexpr uint64_t kRounds = 50;
  std::atomic<uint64_t> latest{0};
  std::atomic<bool> stop{false};

  // Readers chase the latest sealed root, pin it, and verify the pinned view
  // is frozen: it must read its own version's values no matter how many
  // commits, forks, and folds land while the handle is held.
  auto reader = [&] {
    while (!stop.load(std::memory_order_acquire)) {
      const uint64_t n = latest.load(std::memory_order_acquire);
      if (n == 0) {
        std::this_thread::yield();
        continue;
      }
      SnapshotHandle h = store.AcquireAt(RootFor(n));
      if (!h.valid()) {
        continue;  // already folded past retention — a legal miss
      }
      auto account = store.GetAccount(h, Address::FromId(1));
      ASSERT_TRUE(account.has_value());
      EXPECT_EQ(account->balance, U256(h.height()));
      EXPECT_EQ(store.GetStorage(h, Address::FromId(1), U256(7)),
                U256(h.height() * 10));
    }
  };
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back(reader);
  }

  SnapshotHandle h = store.AcquireAt(Mpt::EmptyRoot());
  for (uint64_t n = 1; n <= kRounds; ++n) {
    SnapshotHandle parent = h;
    h = CommitDelta(&store, parent, n);
    ASSERT_TRUE(h.valid());
    if (n % 7 == 0) {
      // Fork churn: a losing branch off the previous block, sealed and
      // immediately dropped (its returned handle is the only pin).
      Account fork_account;
      fork_account.balance = U256(n);
      fork_account.exists = true;
      store.Commit(parent, Keccak256Word(U256(n + 1'000'000)),
                   {{Address::FromId(1), fork_account}}, {});
    }
    latest.store(n, std::memory_order_release);
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& t : readers) {
    t.join();
  }
  EXPECT_EQ(store.stats().invalidations, 0u);
  EXPECT_EQ(store.stats().commits, kRounds + kRounds / 7);
}

// ---- Node-level identity: store-backed nodes vs the trie-only replay ----

class VersionedNodeTest : public ::testing::Test {
 protected:
  void SetUp() override { sender_ = Address::FromId(1); }

  NodeOptions BaseOptions() {
    NodeOptions options;
    options.store.cold_read_latency = std::chrono::nanoseconds(0);
    options.speculation_time_scale = 0;  // exact cross-config reproducibility
    return options;
  }

  void Genesis(StateDb* state) const {
    state->AddBalance(sender_, U256::Exp(U256(10), U256(21)));
  }

  std::unique_ptr<Node> MakeNode(const NodeOptions& options) {
    return std::make_unique<Node>(options, [this](StateDb* state) { Genesis(state); });
  }

  // The trie-only reference roots of blocks 1..n.
  std::vector<Hash> ReferenceRoots(const std::vector<Block>& blocks) {
    return ReplayTrieOnly([this](StateDb* state) { Genesis(state); }, blocks);
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

  Address sender_;
};

TEST_F(VersionedNodeTest, MatchesPlainNodeAndFollowsRollbacks) {
  auto node = MakeNode(BaseOptions());
  ASSERT_TRUE(node->view_active());

  std::vector<Block> blocks;
  for (uint64_t n = 1; n <= 5; ++n) {
    blocks.push_back(MakeBlock(n));
  }
  const std::vector<Hash> roots = ReferenceRoots(blocks);
  for (uint64_t n = 1; n <= 5; ++n) {
    ASSERT_EQ(node->ExecuteBlock(blocks[n - 1], 13.0 * n).state_root, roots[n - 1])
        << "block " << n;
  }

  // A depth-2 reorg is a handle swap; the node lands on the reference root
  // and replays to identical roots.
  node->RollbackHead();
  node->RollbackHead();
  EXPECT_EQ(node->head_root(), roots[2]);
  EXPECT_TRUE(node->view_active());
  for (uint64_t n = 4; n <= 5; ++n) {
    EXPECT_EQ(node->ExecuteBlock(blocks[n - 1], 100.0 + n).state_root, roots[n - 1]);
  }
  EXPECT_EQ(node->versioned_stats().invalidations, 0u);
  StateDbStats reads = node->chain_state_stats();
  EXPECT_GT(reads.versioned_hits, 0u);
  EXPECT_EQ(reads.account_trie_reads + reads.storage_trie_reads, 0u);
}

TEST_F(VersionedNodeTest, RootsMatchAtAnyCommitWorkerCount) {
  NodeOptions w2 = BaseOptions();
  w2.chain.commit_workers = 2;
  NodeOptions w4 = BaseOptions();
  w4.chain.commit_workers = 4;
  auto node1 = MakeNode(BaseOptions());
  auto node2 = MakeNode(w2);
  auto node4 = MakeNode(w4);
  std::vector<Block> blocks;
  for (uint64_t n = 1; n <= 5; ++n) {
    blocks.push_back(MakeBlock(n));
  }
  const std::vector<Hash> roots = ReferenceRoots(blocks);
  for (uint64_t n = 1; n <= 5; ++n) {
    const Block& block = blocks[n - 1];
    EXPECT_EQ(node1->ExecuteBlock(block, 13.0 * n).state_root, roots[n - 1]);
    EXPECT_EQ(node2->ExecuteBlock(block, 13.0 * n).state_root, roots[n - 1]);
    EXPECT_EQ(node4->ExecuteBlock(block, 13.0 * n).state_root, roots[n - 1]);
  }
  EXPECT_EQ(node4->versioned_stats().invalidations, 0u);
  EXPECT_TRUE(node4->view_active());
}

}  // namespace
}  // namespace frn

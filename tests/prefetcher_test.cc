// Tests of the state prefetcher: it warms the KvStore hot set for everything
// a pre-execution read, it never changes logical state (a commit after
// prefetching reproduces the same root), and at a version-retained root —
// where committed reads never walk the trie — it still walks the account and
// storage paths, so the Merkle commit that re-hashes them finds every node hot.
#include "src/forerunner/prefetcher.h"

#include <gtest/gtest.h>

#include "src/crypto/keccak.h"
#include "src/state/versioned_state.h"
#include "src/state/statedb.h"

namespace frn {
namespace {

// Unlike most tests, keep the cold-read latency nonzero: the prefetcher's
// whole point is moving that latency off the critical path, and the stall
// accounting is how we observe which walks it saved.
KvStore::Options ModelStore() {
  KvStore::Options o;
  o.cold_read_latency = std::chrono::nanoseconds(2000);
  return o;
}

class PrefetcherTest : public ::testing::Test {
 protected:
  PrefetcherTest() : store_(ModelStore()), trie_(&store_) {}

  // Three accounts: one with storage and code, one plain, one untouched.
  // With `versioned`, the commit also publishes a version at the root.
  Hash BuildState(VersionedState* versioned = nullptr) {
    StateDb db(&trie_, Mpt::EmptyRoot(), versioned);
    db.AddBalance(a_, U256(100));
    db.SetStorage(a_, U256(1), U256(11));
    db.SetStorage(a_, U256(2), U256(22));
    db.SetCode(a_, Bytes{0x60, 0x00, 0x60, 0x00, 0xF3});
    db.AddBalance(b_, U256(200));
    return db.Commit();
  }

  ReadSet ReadsForAB() {
    ReadSet reads;
    reads.accounts = {a_, b_};
    reads.storage_keys = {{a_, U256(1)}, {a_, U256(2)}};
    return reads;
  }

  KvStore store_;
  Mpt trie_;
  Address a_ = Address::FromId(1);
  Address b_ = Address::FromId(2);
};

TEST_F(PrefetcherTest, WarmsHotSetOffTheCriticalPath) {
  Hash root = BuildState();
  store_.CoolAll();
  store_.ResetStats();

  Prefetcher prefetcher(&trie_);
  prefetcher.Prefetch(root, ReadsForAB());

  // The prefetch walk itself paid the cold reads...
  EXPECT_GT(store_.stats().cold_reads, 0u);

  // ...so a store-less critical-path reader re-walks the trie, but every
  // node it needs is now hot: zero cold reads, zero stall.
  store_.ResetStats();
  StateDb critical(&trie_, root);
  EXPECT_EQ(critical.GetBalance(a_), U256(100));
  EXPECT_EQ(critical.GetStorage(a_, U256(1)), U256(11));
  EXPECT_EQ(critical.GetStorage(a_, U256(2)), U256(22));
  EXPECT_EQ(critical.GetBalance(b_), U256(200));
  EXPECT_EQ(store_.stats().cold_reads, 0u);
  EXPECT_DOUBLE_EQ(store_.stats().stall_seconds, 0.0);
}

TEST_F(PrefetcherTest, NeverChangesLogicalStateOrRoot) {
  Hash root = BuildState();
  Prefetcher prefetcher(&trie_);

  ReadSet reads = ReadsForAB();
  // Include locations that do not exist: prefetching absence is legal.
  reads.accounts.push_back(Address::FromId(99));
  reads.storage_keys.push_back({b_, U256(7)});
  prefetcher.Prefetch(root, reads);

  // A fresh state view opened at the same root commits to the same root:
  // prefetching warmed nodes but wrote nothing logical.
  StateDb db(&trie_, root);
  EXPECT_EQ(db.GetBalance(a_), U256(100));
  EXPECT_EQ(db.GetBalance(Address::FromId(99)), U256(0));
  EXPECT_EQ(db.Commit(), root);
}

TEST_F(PrefetcherTest, RetainedRootPrefetchWarmsTheCommit) {
  VersionedState versioned(4);
  Hash root = BuildState(&versioned);
  ASSERT_TRUE(versioned.AcquireAt(root).valid());
  store_.CoolAll();
  store_.ResetStats();

  Prefetcher prefetcher(&trie_, &versioned);
  prefetcher.Prefetch(root, ReadsForAB());
  EXPECT_GT(store_.stats().cold_reads, 0u);  // the walks happened here

  // The critical path reads through the pinned view (never the trie), then
  // commits: the account and storage Puts re-walk exactly the prefetched
  // paths, and find every node hot.
  store_.ResetStats();
  StateDb db(&trie_, root, &versioned);
  ASSERT_TRUE(db.view().valid());
  db.AddBalance(a_, U256(1));
  db.SetStorage(a_, U256(1), U256(12));
  db.SetStorage(a_, U256(2), U256(23));
  db.AddBalance(b_, U256(1));
  Hash next = db.Commit();
  EXPECT_NE(next, root);
  EXPECT_EQ(db.stats().account_trie_reads + db.stats().storage_trie_reads, 0u);
  EXPECT_EQ(store_.stats().cold_reads, 0u);
  EXPECT_DOUBLE_EQ(store_.stats().stall_seconds, 0.0);
}

TEST_F(PrefetcherTest, RetainedRootStillHeatsCodeBlobs) {
  VersionedState versioned(4);
  Hash root;
  Bytes code{0x60, 0x00, 0x60, 0x00, 0xF3};
  {
    StateDb db(&trie_, Mpt::EmptyRoot(), &versioned);
    db.AddBalance(a_, U256(100));
    db.SetCode(a_, code);
    root = db.Commit();
  }
  ASSERT_TRUE(versioned.AcquireAt(root).valid());
  store_.CoolAll();
  store_.ResetStats();

  Prefetcher prefetcher(&trie_, &versioned);
  ReadSet reads;
  reads.accounts = {a_};
  prefetcher.Prefetch(root, reads);

  // Code lives behind the store, not in the version maps: the prefetch
  // leaves the blob hot for the critical path's GetCode.
  Hash code_hash = Keccak256(code);
  EXPECT_TRUE(store_.IsHot(code_hash));
}

}  // namespace
}  // namespace frn

#include "src/state/statedb.h"

#include <gtest/gtest.h>

#include <set>

#include "src/common/clock.h"
#include "src/common/rng.h"
#include "src/rlp/rlp.h"
#include "src/state/versioned_state.h"

namespace frn {
namespace {

KvStore::Options FastStore() {
  KvStore::Options o;
  o.cold_read_latency = std::chrono::nanoseconds(0);
  return o;
}

class StateDbTest : public ::testing::Test {
 protected:
  StateDbTest() : store_(FastStore()), trie_(&store_) {}

  KvStore store_;
  Mpt trie_;
};

TEST_F(StateDbTest, FreshAccountDefaults) {
  StateDb db(&trie_, Mpt::EmptyRoot());
  Address a = Address::FromId(1);
  EXPECT_FALSE(db.Exists(a));
  EXPECT_EQ(db.GetBalance(a), U256());
  EXPECT_EQ(db.GetNonce(a), 0u);
  EXPECT_TRUE(db.GetCode(a).empty());
  EXPECT_EQ(db.GetStorage(a, U256(1)), U256());
}

TEST_F(StateDbTest, BalanceArithmetic) {
  StateDb db(&trie_, Mpt::EmptyRoot());
  Address a = Address::FromId(1);
  db.AddBalance(a, U256(100));
  EXPECT_EQ(db.GetBalance(a), U256(100));
  EXPECT_TRUE(db.SubBalance(a, U256(40)));
  EXPECT_EQ(db.GetBalance(a), U256(60));
  EXPECT_FALSE(db.SubBalance(a, U256(61)));
  EXPECT_EQ(db.GetBalance(a), U256(60));
}

TEST_F(StateDbTest, StorageReadYourWrites) {
  StateDb db(&trie_, Mpt::EmptyRoot());
  Address a = Address::FromId(2);
  db.SetStorage(a, U256(5), U256(42));
  EXPECT_EQ(db.GetStorage(a, U256(5)), U256(42));
  EXPECT_EQ(db.GetCommittedStorage(a, U256(5)), U256());
}

TEST_F(StateDbTest, SnapshotRevertUndoesEverything) {
  StateDb db(&trie_, Mpt::EmptyRoot());
  Address a = Address::FromId(3);
  Address b = Address::FromId(4);
  db.AddBalance(a, U256(10));
  db.SetStorage(a, U256(1), U256(11));
  int snap = db.Snapshot();
  db.AddBalance(b, U256(5));
  db.SetStorage(a, U256(1), U256(99));
  db.SetNonce(a, 7);
  db.SetCode(b, Bytes{0x60, 0x00});
  db.RevertToSnapshot(snap);
  EXPECT_EQ(db.GetBalance(b), U256());
  EXPECT_EQ(db.GetStorage(a, U256(1)), U256(11));
  EXPECT_EQ(db.GetNonce(a), 0u);
  EXPECT_TRUE(db.GetCode(b).empty());
  EXPECT_EQ(db.GetBalance(a), U256(10));
}

TEST_F(StateDbTest, NestedSnapshots) {
  StateDb db(&trie_, Mpt::EmptyRoot());
  Address a = Address::FromId(5);
  db.SetStorage(a, U256(0), U256(1));
  int s1 = db.Snapshot();
  db.SetStorage(a, U256(0), U256(2));
  int s2 = db.Snapshot();
  db.SetStorage(a, U256(0), U256(3));
  db.RevertToSnapshot(s2);
  EXPECT_EQ(db.GetStorage(a, U256(0)), U256(2));
  db.RevertToSnapshot(s1);
  EXPECT_EQ(db.GetStorage(a, U256(0)), U256(1));
}

TEST_F(StateDbTest, CommitPersistsAcrossReopen) {
  Hash root;
  Address a = Address::FromId(6);
  {
    StateDb db(&trie_, Mpt::EmptyRoot());
    db.AddBalance(a, U256(1000));
    db.SetNonce(a, 3);
    db.SetStorage(a, U256(7), U256(77));
    db.SetCode(a, Bytes{0x01, 0x02, 0x03});
    root = db.Commit();
  }
  StateDb db2(&trie_, root);
  EXPECT_EQ(db2.GetBalance(a), U256(1000));
  EXPECT_EQ(db2.GetNonce(a), 3u);
  EXPECT_EQ(db2.GetStorage(a, U256(7)), U256(77));
  EXPECT_EQ(db2.GetCode(a), (Bytes{0x01, 0x02, 0x03}));
  EXPECT_EQ(db2.GetCommittedStorage(a, U256(7)), U256(77));
}

TEST_F(StateDbTest, CommitRootIsDeterministic) {
  Address a = Address::FromId(7);
  Address b = Address::FromId(8);
  auto build = [&](bool reverse) {
    KvStore store(FastStore());
    Mpt trie(&store);
    StateDb db(&trie, Mpt::EmptyRoot());
    if (reverse) {
      db.AddBalance(b, U256(2));
      db.AddBalance(a, U256(1));
    } else {
      db.AddBalance(a, U256(1));
      db.AddBalance(b, U256(2));
    }
    db.SetStorage(a, U256(0), U256(5));
    return db.Commit();
  };
  EXPECT_EQ(build(false), build(true));
}

TEST_F(StateDbTest, ZeroStorageWriteDeletesSlot) {
  Address a = Address::FromId(9);
  StateDb db(&trie_, Mpt::EmptyRoot());
  db.AddBalance(a, U256(1));
  Hash root_before = db.Commit();

  db.SetStorage(a, U256(3), U256(30));
  Hash root_with_slot = db.Commit();
  EXPECT_NE(root_with_slot, root_before);

  db.SetStorage(a, U256(3), U256());
  Hash root_after_clear = db.Commit();
  EXPECT_EQ(root_after_clear, root_before);
}

// Property sweep: randomized mutate/snapshot/revert/commit sequences keep the
// StateDb consistent with a plain reference model.
class StateDbModelProperty : public ::testing::TestWithParam<int> {};

TEST_P(StateDbModelProperty, MatchesReferenceModel) {
  Rng rng(0xDB0 + GetParam());
  KvStore store(FastStore());
  Mpt trie(&store);
  StateDb db(&trie, Mpt::EmptyRoot());

  struct Model {
    std::map<uint64_t, U256> balances;
    std::map<std::pair<uint64_t, uint64_t>, U256> slots;
  };
  Model model;
  std::vector<std::pair<int, Model>> snaps;

  for (int step = 0; step < 500; ++step) {
    uint64_t who = rng.NextBounded(8);
    Address addr = Address::FromId(who);
    switch (rng.NextBounded(6)) {
      case 0: {
        U256 v(rng.NextBounded(1000));
        db.SetBalance(addr, v);
        model.balances[who] = v;
        break;
      }
      case 1: {
        uint64_t slot = rng.NextBounded(4);
        U256 v(rng.NextBounded(1000));
        db.SetStorage(addr, U256(slot), v);
        model.slots[{who, slot}] = v;
        break;
      }
      case 2:
        snaps.emplace_back(db.Snapshot(), model);
        break;
      case 3:
        if (!snaps.empty()) {
          size_t pick = rng.NextBounded(snaps.size());
          db.RevertToSnapshot(snaps[pick].first);
          model = snaps[pick].second;
          snaps.resize(pick);
        }
        break;
      case 4:
        db.Commit();
        snaps.clear();  // snapshots are invalidated by commit
        break;
      default: {
        // Random read — compare against the model.
        uint64_t slot = rng.NextBounded(4);
        U256 expect_bal;
        if (auto it = model.balances.find(who); it != model.balances.end()) {
          expect_bal = it->second;
        }
        U256 expect_slot;
        if (auto it = model.slots.find({who, slot}); it != model.slots.end()) {
          expect_slot = it->second;
        }
        EXPECT_EQ(db.GetBalance(addr), expect_bal);
        EXPECT_EQ(db.GetStorage(addr, U256(slot)), expect_slot);
        break;
      }
    }
  }
  // Final commit + reopen: all model values persist.
  Hash root = db.Commit();
  StateDb reopened(&trie, root);
  for (const auto& [who, v] : model.balances) {
    EXPECT_EQ(reopened.GetBalance(Address::FromId(who)), v);
  }
  for (const auto& [key, v] : model.slots) {
    EXPECT_EQ(reopened.GetStorage(Address::FromId(key.first), U256(key.second)), v);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StateDbModelProperty, ::testing::Range(0, 6));

TEST(SlotKeyHasherTest, SpreadsKeysDifferingOnlyInHighBits) {
  // Solidity left-aligns short byte strings, so real workloads produce slot
  // keys that differ only in their top bytes. A combiner that only multiplies
  // propagates carries upward and leaves the low hash bits identical for all
  // such keys, collapsing them into one bucket of any power-of-two table.
  StateSlotKeyHasher hasher;
  constexpr size_t kAddrs = 4;
  constexpr size_t kKeys = 4096;
  constexpr uint64_t kMask = 0xFFFF;  // low 16 bits = bucket index, table of 64Ki
  std::set<uint64_t> buckets;
  for (size_t a = 0; a < kAddrs; ++a) {
    Address addr = Address::FromId(a + 1);
    for (uint64_t t = 0; t < kKeys; ++t) {
      StateSlotKey key{addr, U256(t) << 240};
      buckets.insert(hasher(key) & kMask);
    }
  }
  const size_t total = kAddrs * kKeys;
  // A well-mixed hash throwing 16Ki balls into 64Ki bins keeps the vast
  // majority distinct; the old hasher produced only a handful of buckets.
  EXPECT_GE(buckets.size(), total / 4)
      << "low hash bits are insensitive to high key bits";
}

TEST(SlotKeyHasherTest, AddressContributesToLowBits) {
  StateSlotKeyHasher hasher;
  std::set<uint64_t> buckets;
  for (size_t a = 0; a < 1024; ++a) {
    buckets.insert(hasher(StateSlotKey{Address::FromId(a + 1), U256(7)}) & 0xFF);
  }
  EXPECT_GE(buckets.size(), 200u);  // ~256 bins, near-full coverage expected
}

TEST_F(StateDbTest, VersionedStoreServesCommittedReadsWithoutTrieWalks) {
  VersionedState versioned(/*retention=*/4);
  Address a = Address::FromId(1);
  Address b = Address::FromId(2);
  Hash root;
  {
    StateDb db(&trie_, Mpt::EmptyRoot(), &versioned);
    db.AddBalance(a, U256(100));
    db.SetStorage(a, U256(1), U256(11));
    db.AddBalance(b, U256(200));
    root = db.Commit();
  }
  ASSERT_TRUE(versioned.AcquireAt(root).valid());

  StateDb db(&trie_, root, &versioned);
  ASSERT_TRUE(db.view().valid());
  EXPECT_EQ(db.GetBalance(a), U256(100));
  EXPECT_EQ(db.GetStorage(a, U256(1)), U256(11));
  EXPECT_EQ(db.GetBalance(b), U256(200));
  // A key never written reads as zero through the version chain's
  // authoritative absence, still without touching the trie.
  EXPECT_EQ(db.GetStorage(b, U256(9)), U256(0));
  EXPECT_EQ(db.GetBalance(Address::FromId(3)), U256(0));

  StateDbStats s = db.stats();
  EXPECT_GT(s.versioned_hits, 0u);
  EXPECT_EQ(s.account_trie_reads, 0u);
  EXPECT_EQ(s.storage_trie_reads, 0u);
}

TEST_F(StateDbTest, VersionedMissFallsBackToTrieOnUnretainedRoot) {
  VersionedState versioned(/*retention=*/4);
  Address a = Address::FromId(1);
  Hash root;
  {
    // Commit WITHOUT the versioned store: it retains no version at the
    // resulting root, so the view opens uncovered.
    StateDb db(&trie_, Mpt::EmptyRoot());
    db.AddBalance(a, U256(5));
    root = db.Commit();
  }
  ASSERT_FALSE(versioned.AcquireAt(root).valid());

  StateDb db(&trie_, root, &versioned);
  EXPECT_FALSE(db.view().valid());
  EXPECT_EQ(db.GetBalance(a), U256(5));
  StateDbStats s = db.stats();
  EXPECT_EQ(s.versioned_hits, 0u);
  EXPECT_GT(s.account_trie_reads, 0u);
}

// Collects the hashes of every node reachable from `root` by decoding the
// stored blobs; in the account trie, every leaf's storage root is walked too.
void CollectReachable(KvStore& store, const Hash& root, bool account_trie, std::set<Hash>* out) {
  if (root.IsZero() || root == Mpt::EmptyRoot() || !out->insert(root).second) {
    return;
  }
  auto blob = store.Get(root);
  ASSERT_TRUE(blob.has_value()) << "dangling node " << root.ToHex();
  RlpItem list;
  ASSERT_TRUE(RlpReader::Decode(*blob, &list) && list.is_list);
  std::vector<RlpItem> items;
  for (RlpReader reader(list); !reader.AtEnd();) {
    ASSERT_TRUE(reader.Next(&items.emplace_back()));
  }
  auto child_hash = [](const RlpItem& item) {
    std::array<uint8_t, 32> h{};
    if (item.size == 32) {
      std::copy(item.data, item.data + 32, h.begin());
    }
    return Hash(h);
  };
  if (items.size() == 17) {
    for (int i = 0; i < 16; ++i) {
      CollectReachable(store, child_hash(items[i]), account_trie, out);
    }
    return;
  }
  ASSERT_EQ(items.size(), 2u);
  Nibbles path;
  bool is_leaf = false;
  ASSERT_TRUE(HexPrefixDecode(items[0].data, items[0].size, &path, &is_leaf));
  if (!is_leaf) {
    CollectReachable(store, child_hash(items[1]), account_trie, out);
  } else if (account_trie) {
    Account account;
    ASSERT_TRUE(StateDb::DecodeAccount(Bytes(items[1].data, items[1].data + items[1].size),
                                       &account));
    CollectReachable(store, account.storage_root, false, out);
  }
}

TEST_F(StateDbTest, StoreBackedCommitWritesOnlyReachableNodes) {
  VersionedState versioned(/*retention=*/4);
  Hash root;
  {
    StateDb db(&trie_, Mpt::EmptyRoot(), &versioned);
    for (uint64_t a = 1; a <= 12; ++a) {
      db.AddBalance(Address::FromId(a), U256(1000 + a));
      for (uint64_t s = 0; s < 10; ++s) {
        db.SetStorage(Address::FromId(a), U256(s), U256(a * 100 + s));
      }
    }
    root = db.Commit();
  }
  std::set<Hash> before;
  CollectReachable(store_, root, true, &before);
  ASSERT_EQ(store_.size(), before.size()) << "genesis stored unreachable nodes";

  // Several accounts, each with several dirty slots: overwrites, deletes and
  // new slots, so every storage fold rewrites shared interior nodes. Values
  // differ per account, so no two tries share a node.
  StateDb db(&trie_, root, &versioned);
  for (uint64_t a = 1; a <= 12; a += 2) {
    db.AddBalance(Address::FromId(a), U256(7));
    for (uint64_t s = 0; s < 6; ++s) {
      db.SetStorage(Address::FromId(a), U256(s * 3), U256(s % 3 == 0 ? 0 : 9000 + a * 10 + s));
    }
  }
  const uint64_t writes_before = store_.stats().writes;
  Hash new_root = db.Commit();
  std::set<Hash> after;
  CollectReachable(store_, new_root, true, &after);
  std::set<Hash> both = before;
  both.insert(after.begin(), after.end());
  // Every blob the commit added is reachable from the new root, and each was
  // written once.
  EXPECT_EQ(store_.size(), both.size());
  EXPECT_EQ(store_.stats().writes - writes_before, both.size() - before.size());
}

TEST_F(StateDbTest, CommitStatsSplitStorageAndAccountFolds) {
  VersionedState versioned(/*retention=*/4);
  StateDb db(&trie_, Mpt::EmptyRoot(), &versioned);
  for (uint64_t a = 1; a <= 8; ++a) {
    db.AddBalance(Address::FromId(a), U256(a));
    db.SetStorage(Address::FromId(a), U256(a), U256(a + 1));
  }
  Stopwatch watch;
  db.Commit();
  const double commit_seconds = watch.ElapsedSeconds();
  const CommitStats& stats = db.commit_stats();
  EXPECT_GT(stats.fold_wall_seconds, 0.0);
  EXPECT_GT(stats.account_fold_seconds, 0.0);
  EXPECT_LE(stats.fold_wall_seconds + stats.account_fold_seconds, commit_seconds);
}

}  // namespace
}  // namespace frn

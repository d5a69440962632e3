// Concurrency stress for the shared read path of the parallel speculation
// engine: many reader threads (standing in for speculation workers) pin a
// VersionedState handle on an old root and read through it — directly and
// through store-backed StateDb views — while store-less views of the same
// root walk the trie and the KvStore hot set. Meanwhile a writer thread
// (standing in for the coordinator) commits new versions on top, prefetches
// the new head, and periodically cools the store. Run under
// -DFRN_SANITIZE=thread (tools/run_tsan.sh) this must be race-free; under any
// build it must show snapshot isolation — readers of the old root always see
// the old values, no matter how many commits land concurrently.
#include <atomic>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/crypto/keccak.h"
#include "src/state/statedb.h"
#include "src/state/versioned_state.h"

namespace frn {
namespace {

constexpr size_t kReaders = 8;
constexpr size_t kAccounts = 64;
constexpr int kWriterRounds = 40;

Address Acct(size_t i) { return Address::FromId(100 + i); }

TEST(ConcurrencyStressTest, ReadersSeeImmutableSnapshotDuringCommits) {
  KvStore store(KvStore::Options{.cold_read_latency = std::chrono::nanoseconds(0),
                                 .hot_set_capacity = 256});
  Mpt trie(&store);
  VersionedState versioned(/*retention=*/4);

  // Build the snapshot root the readers will pin.
  StateDb genesis(&trie, Mpt::EmptyRoot(), &versioned);
  for (size_t i = 0; i < kAccounts; ++i) {
    genesis.CreateAccount(Acct(i));
    genesis.SetBalance(Acct(i), U256(1000 + i));
    genesis.SetStorage(Acct(i), U256(1), U256(7 * i));
  }
  Hash snapshot_root = genesis.Commit();
  // The test's own pin keeps the snapshot acquirable for the whole run, far
  // past the store's 4-version retention.
  SnapshotHandle pin = versioned.AcquireAt(snapshot_root);
  ASSERT_TRUE(pin.valid());

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> reader_errors{0};
  std::atomic<uint64_t> reads_done{0};

  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r]() {
      // Each reader opens its own StateDb view of the pinned root, the way
      // each speculation worker executes against the immutable head
      // snapshot; odd iterations use a store-less view that walks the trie.
      uint64_t iter = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const bool through_store = iter % 2 == 0;
        StateDb view(&trie, snapshot_root, through_store ? &versioned : nullptr);
        size_t i = (r * 31 + iter) % kAccounts;
        ++iter;
        if (through_store && !view.view().valid()) {
          reader_errors.fetch_add(1, std::memory_order_relaxed);
        }
        if (view.GetBalance(Acct(i)) != U256(1000 + i) ||
            view.GetStorage(Acct(i), U256(1)) != U256(7 * i) ||
            view.GetNonce(Acct(i)) != 0) {
          reader_errors.fetch_add(1, std::memory_order_relaxed);
        }
        // Direct handle reads: a fresh pin per iteration, racing the
        // writer's commits and folds.
        SnapshotHandle handle = versioned.AcquireAt(snapshot_root);
        auto account = versioned.GetAccount(handle, Acct(i));
        if (!account || account->balance != U256(1000 + i) ||
            versioned.GetStorage(handle, Acct(i), U256(1)) != U256(7 * i)) {
          reader_errors.fetch_add(1, std::memory_order_relaxed);
        }
        reads_done.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  // Writer: commit new versions on top, prefetch the new head, and
  // periodically cool the store — everything the coordinator does per block.
  StateDb writer(&trie, snapshot_root, &versioned);
  Hash head = snapshot_root;
  for (int round = 0; round < kWriterRounds; ++round) {
    for (size_t i = 0; i < kAccounts; i += 4) {
      writer.SetBalance(Acct(i), U256(5000 + round * kAccounts + i));
      writer.SetStorage(Acct(i), U256(1), U256(round + 2));
      writer.SetNonce(Acct(i), round + 1);
    }
    head = writer.Commit();
    StateDb prefetch(&trie, head, &versioned);
    for (size_t i = 0; i < kAccounts; i += 8) {
      prefetch.PrefetchAccount(Acct(i));
      prefetch.PrefetchStorage(Acct(i), U256(1));
    }
    if (round % 8 == 7) {
      store.CoolAll();
    }
  }

  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : readers) {
    t.join();
  }

  EXPECT_EQ(reader_errors.load(), 0u);
  EXPECT_GT(reads_done.load(), 0u);
  EXPECT_NE(head, snapshot_root);
  EXPECT_TRUE(writer.view().valid());
  EXPECT_EQ(versioned.stats().invalidations, 0u);

  // The persistent trie kept the snapshot fully intact through 40 commits.
  StateDb old_view(&trie, snapshot_root);
  StateDb new_view(&trie, head);
  for (size_t i = 0; i < kAccounts; ++i) {
    EXPECT_EQ(old_view.GetBalance(Acct(i)), U256(1000 + i)) << "account " << i;
    EXPECT_EQ(old_view.GetStorage(Acct(i), U256(1)), U256(7 * i)) << "account " << i;
  }
  EXPECT_EQ(new_view.GetBalance(Acct(0)),
            U256(5000 + (kWriterRounds - 1) * kAccounts + 0));
  EXPECT_EQ(new_view.GetStorage(Acct(0), U256(1)), U256(kWriterRounds + 1));
}

TEST(ConcurrencyStressTest, KvStoreConcurrentGetPutTouch) {
  KvStore store(KvStore::Options{.cold_read_latency = std::chrono::nanoseconds(0),
                                 .hot_set_capacity = 64});

  // Pre-populate keys every thread will read.
  std::vector<Hash> keys;
  for (uint64_t i = 0; i < 128; ++i) {
    Hash key = Keccak256(Bytes{static_cast<uint8_t>(i), static_cast<uint8_t>(i >> 8), 0x5a});
    store.Put(key, Bytes{static_cast<uint8_t>(i)});
    keys.push_back(key);
  }

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> errors{0};
  std::atomic<size_t> running{0};
  std::atomic<uint64_t> reader_reads{0};
  std::vector<std::thread> threads;
  for (size_t r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r]() {
      uint64_t reads = 0;
      running.fetch_add(1, std::memory_order_relaxed);
      uint64_t iter = 0;
      // do-while: at least one read even if the writer already finished, so
      // the local read-count check below cannot trip on scheduling alone.
      do {
        const Hash& key = keys[(r * 17 + iter) % keys.size()];
        ++iter;
        ++reads;
        auto value = store.Get(key);
        if (!value.has_value()) {
          errors.fetch_add(1, std::memory_order_relaxed);
        }
        store.IsHot(key);
        if (iter % 64 == 0) {
          store.Warm(keys[iter % keys.size()]);
        }
      } while (!stop.load(std::memory_order_relaxed));
      if (reads == 0) {
        errors.fetch_add(1, std::memory_order_relaxed);
      }
      reader_reads.fetch_add(reads, std::memory_order_relaxed);
    });
  }

  // Writer keeps inserting fresh blobs (the speculative SetCode path) and
  // evicting the hot set while readers run. It writes at least 2000 rounds
  // and keeps going until every reader has entered its loop, so the race
  // actually overlaps even when thread startup is slow.
  for (uint64_t round = 0;
       round < 2000 || running.load(std::memory_order_relaxed) < kReaders;
       ++round) {
    Hash key = Keccak256(Bytes{static_cast<uint8_t>(round), static_cast<uint8_t>(round >> 8), 0xEE});
    store.Put(key, Bytes{0xAB});
    if (round % 512 == 511) {
      store.CoolAll();
    }
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : threads) {
    t.join();
  }

  EXPECT_EQ(errors.load(), 0u);
  KvStoreStats total = store.stats();
  EXPECT_GE(total.reads, reader_reads.load());
  EXPECT_GE(total.reads, total.cold_reads);
  EXPECT_GT(total.writes, 2000u);
}

}  // namespace
}  // namespace frn

#include "src/trie/trie.h"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/crypto/keccak.h"

namespace frn {
namespace {

Bytes Key32(uint64_t id) {
  // Fixed-length hashed keys, like the secure tries used by the state.
  Hash h = Keccak256Word(U256(id));
  return Bytes(h.bytes().begin(), h.bytes().end());
}

Bytes Val(const std::string& s) { return Bytes(s.begin(), s.end()); }

KvStore::Options FastStore() {
  KvStore::Options o;
  o.cold_read_latency = std::chrono::nanoseconds(0);
  return o;
}

TEST(HexPrefixTest, RoundTripEvenOdd) {
  for (bool leaf : {false, true}) {
    for (size_t len : {0u, 1u, 2u, 5u, 64u}) {
      Nibbles path;
      for (size_t i = 0; i < len; ++i) {
        path.push_back(static_cast<uint8_t>((i * 7 + 3) % 16));
      }
      bool decoded_leaf = false;
      Nibbles round = HexPrefixDecode(HexPrefixEncode(path, leaf), &decoded_leaf);
      EXPECT_EQ(round, path);
      EXPECT_EQ(decoded_leaf, leaf);
    }
  }
}

TEST(HexPrefixTest, KnownEncodings) {
  // Yellow Paper appendix C examples.
  EXPECT_EQ(HexPrefixEncode({1, 2, 3, 4, 5}, false), (Bytes{0x11, 0x23, 0x45}));
  EXPECT_EQ(HexPrefixEncode({0, 1, 2, 3, 4, 5}, false), (Bytes{0x00, 0x01, 0x23, 0x45}));
  EXPECT_EQ(HexPrefixEncode({0, 0xf, 1, 0xc, 0xb, 8}, true), (Bytes{0x20, 0x0f, 0x1c, 0xb8}));
  EXPECT_EQ(HexPrefixEncode({0xf, 1, 0xc, 0xb, 8}, true), (Bytes{0x3f, 0x1c, 0xb8}));
}

TEST(TrieTest, EmptyRootIsCanonical) {
  // keccak(rlp("")) — the well-known empty-trie root.
  EXPECT_EQ(Mpt::EmptyRoot().ToHex(),
            "0x56e81f171bcc55a6ff8345e692c0f86e5b48e01b996cadc001622fb5e363b421");
}

TEST(TrieTest, SingleInsertAndGet) {
  KvStore store(FastStore());
  Mpt trie(&store);
  Hash root = trie.Put(Mpt::EmptyRoot(), Key32(1), Val("hello"));
  EXPECT_NE(root, Mpt::EmptyRoot());
  auto got = trie.Get(root, Key32(1));
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, Val("hello"));
  EXPECT_FALSE(trie.Get(root, Key32(2)).has_value());
}

TEST(TrieTest, OverwriteChangesRootDeterministically) {
  KvStore store(FastStore());
  Mpt trie(&store);
  Hash r1 = trie.Put(Mpt::EmptyRoot(), Key32(1), Val("a"));
  Hash r2 = trie.Put(r1, Key32(1), Val("b"));
  Hash r3 = trie.Put(r2, Key32(1), Val("a"));
  EXPECT_NE(r1, r2);
  EXPECT_EQ(r1, r3);  // content-addressed: same contents, same root
  EXPECT_EQ(*trie.Get(r2, Key32(1)), Val("b"));
  // Old root still readable (persistence).
  EXPECT_EQ(*trie.Get(r1, Key32(1)), Val("a"));
}

TEST(TrieTest, InsertionOrderIndependence) {
  KvStore store(FastStore());
  Mpt trie(&store);
  Hash root_a = Mpt::EmptyRoot();
  for (uint64_t i = 0; i < 50; ++i) {
    root_a = trie.Put(root_a, Key32(i), Val("v" + std::to_string(i)));
  }
  Hash root_b = Mpt::EmptyRoot();
  for (uint64_t i = 50; i-- > 0;) {
    root_b = trie.Put(root_b, Key32(i), Val("v" + std::to_string(i)));
  }
  EXPECT_EQ(root_a, root_b);
}

TEST(TrieTest, DeleteRestoresPriorRoot) {
  KvStore store(FastStore());
  Mpt trie(&store);
  Hash base = Mpt::EmptyRoot();
  for (uint64_t i = 0; i < 20; ++i) {
    base = trie.Put(base, Key32(i), Val("x" + std::to_string(i)));
  }
  Hash with_extra = trie.Put(base, Key32(99), Val("extra"));
  EXPECT_NE(with_extra, base);
  Hash after_delete = trie.Put(with_extra, Key32(99), Bytes{});
  EXPECT_EQ(after_delete, base);
}

TEST(TrieTest, DeleteToEmpty) {
  KvStore store(FastStore());
  Mpt trie(&store);
  Hash root = trie.Put(Mpt::EmptyRoot(), Key32(7), Val("only"));
  root = trie.Put(root, Key32(7), Bytes{});
  EXPECT_EQ(root, Mpt::EmptyRoot());
}

TEST(TrieTest, DeleteAbsentKeyIsNoop) {
  KvStore store(FastStore());
  Mpt trie(&store);
  Hash root = trie.Put(Mpt::EmptyRoot(), Key32(1), Val("a"));
  Hash after = trie.Put(root, Key32(999), Bytes{});
  EXPECT_EQ(after, root);
}

TEST(TrieTest, ColdReadsChargeLatencyAndPrefetchWarms) {
  KvStore::Options opts;
  opts.cold_read_latency = std::chrono::microseconds(5);
  KvStore store(opts);
  Mpt trie(&store);
  Hash root = Mpt::EmptyRoot();
  for (uint64_t i = 0; i < 64; ++i) {
    root = trie.Put(root, Key32(i), Val("payload" + std::to_string(i)));
  }
  store.CoolAll();
  store.ResetStats();
  trie.Prefetch(root, Key32(33));
  uint64_t cold_during_prefetch = store.stats().cold_reads;
  EXPECT_GT(cold_during_prefetch, 0u);
  // The same lookup afterwards is entirely hot.
  store.ResetStats();
  auto got = trie.Get(root, Key32(33));
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(store.stats().cold_reads, 0u);
}

TEST(TrieProofTest, PresenceProofVerifies) {
  KvStore store(FastStore());
  Mpt trie(&store);
  Hash root = Mpt::EmptyRoot();
  for (uint64_t i = 0; i < 40; ++i) {
    root = trie.Put(root, Key32(i), Val("value-" + std::to_string(i)));
  }
  std::vector<Bytes> proof;
  ASSERT_TRUE(trie.Prove(root, Key32(17), &proof));
  ASSERT_FALSE(proof.empty());
  std::optional<Bytes> value;
  ASSERT_TRUE(Mpt::VerifyProof(root, Key32(17), proof, &value));
  ASSERT_TRUE(value.has_value());
  EXPECT_EQ(*value, Val("value-17"));
}

TEST(TrieProofTest, AbsenceProofVerifies) {
  KvStore store(FastStore());
  Mpt trie(&store);
  Hash root = Mpt::EmptyRoot();
  for (uint64_t i = 0; i < 40; ++i) {
    root = trie.Put(root, Key32(i), Val("v" + std::to_string(i)));
  }
  std::vector<Bytes> proof;
  ASSERT_TRUE(trie.Prove(root, Key32(999), &proof));
  std::optional<Bytes> value;
  ASSERT_TRUE(Mpt::VerifyProof(root, Key32(999), proof, &value));
  EXPECT_FALSE(value.has_value());  // proven absent
}

TEST(TrieProofTest, TamperedProofRejected) {
  KvStore store(FastStore());
  Mpt trie(&store);
  Hash root = Mpt::EmptyRoot();
  for (uint64_t i = 0; i < 10; ++i) {
    root = trie.Put(root, Key32(i), Val("v" + std::to_string(i)));
  }
  std::vector<Bytes> proof;
  ASSERT_TRUE(trie.Prove(root, Key32(3), &proof));
  // Flip a byte anywhere in the proof: verification must fail.
  std::vector<Bytes> tampered = proof;
  tampered[tampered.size() / 2][0] ^= 0x01;
  std::optional<Bytes> value;
  EXPECT_FALSE(Mpt::VerifyProof(root, Key32(3), tampered, &value));
  // Truncated proofs fail too (unless the truncation itself proves absence).
  std::vector<Bytes> truncated(proof.begin(), proof.end() - 1);
  std::optional<Bytes> value2;
  bool ok = Mpt::VerifyProof(root, Key32(3), truncated, &value2);
  if (ok) {
    EXPECT_FALSE(value2.has_value());
  }
  // Wrong root fails.
  std::optional<Bytes> value3;
  EXPECT_FALSE(Mpt::VerifyProof(Mpt::EmptyRoot(), Key32(3), proof, &value3));
}

TEST(TrieProofTest, EmptyTrieProvesAbsenceWithEmptyProof) {
  KvStore store(FastStore());
  Mpt trie(&store);
  std::vector<Bytes> proof;
  ASSERT_TRUE(trie.Prove(Mpt::EmptyRoot(), Key32(1), &proof));
  EXPECT_TRUE(proof.empty());
  std::optional<Bytes> value;
  EXPECT_TRUE(Mpt::VerifyProof(Mpt::EmptyRoot(), Key32(1), proof, &value));
  EXPECT_FALSE(value.has_value());
}

// Property sweep: proofs verify for every key (present and absent) in a
// random trie.
class TrieProofProperty : public ::testing::TestWithParam<int> {};

TEST_P(TrieProofProperty, AllKeysProveAndVerify) {
  Rng rng(0x9400F + GetParam());
  KvStore store(FastStore());
  Mpt trie(&store);
  Hash root = Mpt::EmptyRoot();
  std::map<uint64_t, Bytes> model;
  size_t n = 20 + rng.NextBounded(60);
  for (size_t i = 0; i < n; ++i) {
    uint64_t id = rng.NextBounded(500);
    Bytes value = Val("pv-" + std::to_string(rng.NextBounded(10'000)));
    root = trie.Put(root, Key32(id), value);
    model[id] = value;
  }
  for (uint64_t id = 0; id < 500; id += 7) {
    std::vector<Bytes> proof;
    ASSERT_TRUE(trie.Prove(root, Key32(id), &proof));
    std::optional<Bytes> value;
    ASSERT_TRUE(Mpt::VerifyProof(root, Key32(id), proof, &value)) << "key " << id;
    auto it = model.find(id);
    if (it != model.end()) {
      ASSERT_TRUE(value.has_value()) << "key " << id;
      EXPECT_EQ(*value, it->second);
    } else {
      EXPECT_FALSE(value.has_value()) << "key " << id;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TrieProofProperty, ::testing::Range(0, 5));

// Property sweep: the trie agrees with a reference std::map under random
// insert/overwrite/delete workloads, and roots are history-independent.
class TrieModelProperty : public ::testing::TestWithParam<int> {};

TEST_P(TrieModelProperty, MatchesReferenceMap) {
  Rng rng(0x7121E + GetParam());
  KvStore store(FastStore());
  Mpt trie(&store);
  Hash root = Mpt::EmptyRoot();
  std::map<uint64_t, Bytes> model;
  for (int step = 0; step < 400; ++step) {
    uint64_t id = rng.NextBounded(60);
    int action = static_cast<int>(rng.NextBounded(3));
    if (action == 2) {
      root = trie.Put(root, Key32(id), Bytes{});
      model.erase(id);
    } else {
      Bytes value = Val("val-" + std::to_string(rng.NextBounded(1000)));
      root = trie.Put(root, Key32(id), value);
      model[id] = value;
    }
    if (step % 50 == 0) {
      for (const auto& [k, v] : model) {
        auto got = trie.Get(root, Key32(k));
        ASSERT_TRUE(got.has_value()) << "missing key " << k;
        EXPECT_EQ(*got, v);
      }
    }
  }
  // Rebuild from scratch in sorted order: must give the identical root.
  Hash rebuilt = Mpt::EmptyRoot();
  for (const auto& [k, v] : model) {
    rebuilt = trie.Put(rebuilt, Key32(k), v);
  }
  EXPECT_EQ(rebuilt, root);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TrieModelProperty, ::testing::Range(0, 6));

// Differential sweep of the batched fold: seeded rounds of random batches go
// through Mpt::Update into one store and through per-key Put, the reference,
// into another. Batches insert, overwrite and delete present and absent keys,
// and some rounds end by deleting every key. 32-byte hashed keys give leaf and
// extension splits and branch collapses; short variable-length keys, prefixes
// of one another, add branch value slots and empty-path leaves.
class TrieBatchProperty : public ::testing::TestWithParam<int> {};

std::vector<Bytes> HashedKeys() {
  std::vector<Bytes> keys;
  for (uint64_t id = 0; id < 64; ++id) {
    keys.push_back(Key32(id));
  }
  return keys;
}

std::vector<Bytes> ShortKeys() {
  // Every key of 0..3 bytes over an alphabet whose nibbles collide.
  const uint8_t alphabet[] = {0x00, 0x01, 0x10, 0xf1};
  std::vector<Bytes> keys = {Bytes{}};
  for (size_t from = 0; keys.back().size() < 3;) {
    size_t to = keys.size();
    for (size_t i = from; i < to; ++i) {
      for (uint8_t b : alphabet) {
        Bytes k = keys[i];
        k.push_back(b);
        keys.push_back(k);
      }
    }
    from = to;
  }
  return keys;
}

TEST_P(TrieBatchProperty, UpdateMatchesPerKeyPut) {
  for (const std::vector<Bytes>& universe : {HashedKeys(), ShortKeys()}) {
    Rng rng(0xBA7C4 + GetParam() * 2 + universe[0].size());
    KvStore batched_store(FastStore());
    KvStore reference_store(FastStore());
    Mpt batched(&batched_store);
    Mpt reference(&reference_store);
    Hash batched_root = Mpt::EmptyRoot();
    Hash reference_root = Mpt::EmptyRoot();
    std::map<Bytes, Bytes> model;
    for (int round = 0; round < 60; ++round) {
      std::vector<TrieWrite> batch;
      for (uint64_t n = 1 + rng.NextBounded(24); n > 0; --n) {
        const Bytes& key = universe[rng.NextBounded(universe.size())];
        if (rng.NextBounded(3) == 0) {
          batch.emplace_back(key, Bytes{});  // the key may be absent
        } else {
          Bytes value(1 + rng.NextBounded(40), 0);
          for (uint8_t& b : value) {
            b = static_cast<uint8_t>(rng.NextBounded(4));  // equal values recur
          }
          batch.emplace_back(key, value);
        }
      }
      const bool delete_all = rng.NextBounded(10) == 0;
      if (delete_all) {
        // Every key present before the batch or written by it, deleted last.
        std::vector<TrieWrite> deletes;
        for (const auto& [key, value] : model) {
          deletes.emplace_back(key, Bytes{});
        }
        for (const auto& [key, value] : batch) {
          deletes.emplace_back(key, Bytes{});
        }
        batch.insert(batch.end(), deletes.begin(), deletes.end());
      }
      KvStore::StagedWrites nodes;
      batched_root = batched.Update(batched_root, batch, &nodes);
      batched_store.ApplyStaged(std::move(nodes));
      for (const auto& [key, value] : batch) {
        reference_root = reference.Put(reference_root, key, value);
        if (value.empty()) {
          model.erase(key);
        } else {
          model[key] = value;
        }
      }
      ASSERT_EQ(batched_root, reference_root) << "round " << round;
      if (delete_all) {
        EXPECT_TRUE(model.empty());
        EXPECT_EQ(batched_root, Mpt::EmptyRoot());
      }
      for (const Bytes& key : universe) {
        auto it = model.find(key);
        auto got = batched.Get(batched_root, key);
        ASSERT_EQ(got.has_value(), it != model.end()) << "round " << round;
        if (got) {
          EXPECT_EQ(*got, it->second);
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TrieBatchProperty, ::testing::Range(0, 20));

Hash HashOf(uint64_t id) { return Keccak256Word(U256(id)); }

TEST(KvStoreTest, WarmPastCapacityEnforcesOccupancyBound) {
  KvStore::Options o = FastStore();
  o.hot_set_capacity = 8;
  KvStore store(o);
  // Warming (the prefetch path) goes through the same occupancy accounting as
  // Put/Get: warming far past capacity must trigger wholesale eviction, never
  // let the hot set grow unbounded.
  for (uint64_t i = 0; i < 20; ++i) {
    store.Warm(HashOf(i));
  }
  EXPECT_LE(store.hot_size(), 8u);
  EXPECT_GT(store.hot_size(), 0u);
  // The earliest keys were swept by an eviction along the way.
  EXPECT_FALSE(store.IsHot(HashOf(0)));
  EXPECT_FALSE(store.IsHot(HashOf(1)));
  // The most recent key is always hot.
  EXPECT_TRUE(store.IsHot(HashOf(19)));
}

TEST(KvStoreTest, RewarmingResidentKeysNeverEvicts) {
  KvStore::Options o = FastStore();
  o.hot_set_capacity = 8;
  KvStore store(o);
  for (uint64_t i = 0; i < 8; ++i) {
    store.Warm(HashOf(i));
  }
  ASSERT_EQ(store.hot_size(), 8u);
  // Re-warming a resident key at exactly full occupancy must be a no-op:
  // commits rewrite content-identical blobs and the prefetcher re-warms live
  // paths every round, and a capacity check taken before the residency check
  // would wipe the whole hot set on every such re-touch.
  for (int round = 0; round < 3; ++round) {
    store.Warm(HashOf(0));
  }
  EXPECT_EQ(store.hot_size(), 8u);
  for (uint64_t i = 0; i < 8; ++i) {
    EXPECT_TRUE(store.IsHot(HashOf(i))) << "key " << i << " was evicted";
  }
}

TEST(KvStoreTest, StagedWritesInvisibleUntilBatchApply) {
  KvStore store(FastStore());
  KvStore::StagedWrites staged;
  staged.emplace_back(HashOf(1), Val("one"));
  staged.emplace_back(HashOf(2), Val("two"));
  staged.emplace_back(HashOf(1), Val("one'"));  // content-addressed rewrite, same slot
  // Not yet applied: invisible to the shared map.
  EXPECT_FALSE(store.Contains(HashOf(1)));
  EXPECT_EQ(store.size(), 0u);
  EXPECT_EQ(store.stats().writes, 0u);

  store.ApplyStaged(std::move(staged));
  EXPECT_TRUE(store.Contains(HashOf(1)));
  EXPECT_TRUE(store.Contains(HashOf(2)));
  EXPECT_EQ(store.size(), 2u);
  EXPECT_TRUE(store.IsHot(HashOf(1)));  // batch apply heats, like a direct Put
  auto got = store.Get(HashOf(1));
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, Val("one'"));
  // Two logical writes for key 1 plus one for key 2, counted at apply time.
  EXPECT_EQ(store.stats().writes, 3u);
}

}  // namespace
}  // namespace frn

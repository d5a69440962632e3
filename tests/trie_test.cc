#include "src/trie/trie.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "src/common/rng.h"
#include "src/crypto/keccak.h"
#include "src/state/statedb.h"

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
      const Bytes encoded = HexPrefixEncode(path, leaf);
      Nibbles round = {9};  // overwritten, not appended to
      bool decoded_leaf = !leaf;
      ASSERT_TRUE(HexPrefixDecode(encoded.data(), encoded.size(), &round, &decoded_leaf));
      EXPECT_EQ(round, path);
      EXPECT_EQ(decoded_leaf, leaf);
    }
  }
}

TEST(HexPrefixTest, RejectsNonCanonicalEncodings) {
  Nibbles path;
  bool leaf = false;
  const Bytes empty;
  EXPECT_FALSE(HexPrefixDecode(empty.data(), 0, &path, &leaf));
  for (const Bytes& bad : {Bytes{0x40}, Bytes{0x51, 0x23}, Bytes{0xf0}, Bytes{0x01, 0x23},
                           Bytes{0x2f}}) {
    EXPECT_FALSE(HexPrefixDecode(bad.data(), bad.size(), &path, &leaf)) << BytesToHex(bad);
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
  trie.Get(root, Key32(33));  // the prefetcher's walk
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

// Known answers for the node and account encodings. Every differential test
// (TrieBatchProperty, the oracle) compares two folds that share the codec, so
// only fixed bytes catch a codec change that alters both sides alike. The
// proofs below cover leaves with odd, even and empty paths, an extension,
// branches with and without a value, and short and long string and list
// headers (the account leaf's 78-byte value takes the long string form).
TEST(TrieCodecTest, ProofNodesMatchKnownEncodings) {
  Account account;
  account.nonce = 1;
  account.balance = U256(1'000'000'000'000'000'000ULL);
  account.code_hash = Keccak256(Bytes{0x60, 0x00});
  const Address addr = Address::FromId(7);
  const Hash account_key = Keccak256(addr.bytes().data(), addr.bytes().size());
  const Bytes account_path(account_key.bytes().begin(), account_key.bytes().end());
  // The root branch has no value and children at nibbles 1, 4 and 9:
  //   1 -> extension [2,3,4] -> branch with a value -> leaves [6] and [8]
  //   4 -> the account leaf, with a 63-nibble path
  //   9 -> branch -> leaves [1,1] and []
  const std::vector<TrieWrite> entries = {
      {{0x12, 0x34}, Val("branch value")}, {{0x12, 0x34, 0x56}, Val("a")},
      {{0x12, 0x34, 0x78}, Val("dog")},    {{0x9a, 0x11}, Val("even")},
      {{0x9b}, Val("empty path")},         {account_path, StateDb::EncodeAccount(account)}};
  const std::string root_node =
      "0xf87180a02629b06559cc60462f6382bbb3f021610d1c5e9c1eea3f73b7d7283b7ab34fdf8080a0801d56de3c"
      "aedc0e86f6533f837a3f5a08b6813d1f36021eb07199903029330480808080a068b16fcd491f1d1a73bd71e3ab"
      "d4e68f33cee546415688cec00bfba352109ab780808080808080";
  const std::string branch_9 =
      "0xf85180808080808080808080a0d9328ab88496c5cb11e1da0a98f17e3e3179d54dc1738f91c89e4f5d739832"
      "eca07f9e330453b955c1a164fac037fd1550b028a2adee2c7f7af1346c6fe6db60d68080808080";
  const std::vector<std::pair<Bytes, std::vector<std::string>>> proofs = {
      {{0x12, 0x34, 0x56},
       {root_node, "0xe4821234a036ba8034c662647f43f1683fce0df0f88f5580c02297b46627cb2b5eea64113c",
        "0xf85d8080808080a0bd330b5e0f5d91944696b21ac6181b7a5eb33fc7fd9eb3bf3e622b98992230488"
        "0a0da67c1d10baf7a884bd9ee42f75a841d742eb943fe3693a3179208f31088e2ff80808080808080808c"
        "6272616e63682076616c7565",
        "0xc23661"}},
      {{0x9a, 0x11}, {root_node, branch_9, "0xc8822011846576656e"}},
      {{0x9b}, {root_node, branch_9, "0xcc208a656d7074792070617468"}},
      {account_path,
       {root_node,
        "0xf871a037c84e6361dca94a30356aac1226e3605d3c04532278dfcfeccc77284520c95eb84ef84c01880de0"
        "b6b3a7640000a056e81f171bcc55a6ff8345e692c0f86e5b48e01b996cadc001622fb5e363b421a007ad118d"
        "6cc8642c86c03827f276d8b791a65e5c99a3845faf186be720a1455d"}}};
  // The per-key Put and the batched Update must write the same nodes.
  for (bool batched : {false, true}) {
    KvStore store(FastStore());
    Mpt trie(&store);
    Hash root = Mpt::EmptyRoot();
    if (batched) {
      KvStore::StagedWrites nodes;
      root = trie.Update(root, entries, &nodes);
      store.ApplyStaged(std::move(nodes));
    } else {
      for (const auto& [key, value] : entries) {
        root = trie.Put(root, key, value);
      }
    }
    EXPECT_EQ(root.ToHex(), "0x847b43c6c5ddb92389ca11b7400ad023aa1bf2ea9e4c961b5d6b531970c5c0c5");
    for (const auto& [key, want] : proofs) {
      std::vector<Bytes> proof;
      ASSERT_TRUE(trie.Prove(root, key, &proof));
      std::vector<std::string> got;
      for (const Bytes& node : proof) {
        got.push_back(BytesToHex(node));
      }
      EXPECT_EQ(got, want) << "key " << BytesToHex(key) << (batched ? ", batched" : "");
      std::optional<Bytes> value;
      EXPECT_TRUE(Mpt::VerifyProof(root, key, proof, &value));
      EXPECT_TRUE(value.has_value());
    }
  }
}

TEST(TrieCodecTest, RootsMatchKnownValues) {
  KvStore store(FastStore());
  Mpt trie(&store);
  Hash hashed = Mpt::EmptyRoot();
  for (uint64_t id = 0; id < 64; ++id) {
    hashed = trie.Put(hashed, Key32(id), Val("v" + std::to_string(id)));
  }
  EXPECT_EQ(hashed.ToHex(), "0xc2c0cb67b177321a463e8442cd20a13198ccb7a0486566a4315934c105a4fa07");
  Hash short_keys = Mpt::EmptyRoot();
  for (const Bytes& key : ShortKeys()) {
    Bytes value = Val("s");
    value.insert(value.end(), key.begin(), key.end());
    short_keys = trie.Put(short_keys, key, value);
  }
  EXPECT_EQ(short_keys.ToHex(),
            "0x1fc526a0e7d4a3263c716da799c6ce0c83bcd5c971e2756e8ffbd5fbed5831b0");
}

TEST(TrieCodecTest, AccountEncodingsMatchKnownValues) {
  // Storage root: the empty trie's; code hash: zero.
  const std::string tail =
      "a056e81f171bcc55a6ff8345e692c0f86e5b48e01b996cadc001622fb5e363b421a0" + std::string(64, '0');
  const std::string max_balance = "a0" + std::string(64, 'f');
  const uint64_t max_nonce = ~uint64_t{0};
  const std::vector<std::tuple<uint64_t, U256, std::string>> cases = {
      {0, U256(), "0xf8448080" + tail},
      {0, ~U256(), "0xf86480" + max_balance + tail},
      {0x7f, U256(), "0xf8447f80" + tail},
      {0x7f, ~U256(), "0xf8647f" + max_balance + tail},
      {0x80, U256(), "0xf845818080" + tail},
      {0x80, ~U256(), "0xf8658180" + max_balance + tail},
      {max_nonce, U256(), "0xf84c88ffffffffffffffff80" + tail},
      {max_nonce, ~U256(), "0xf86c88ffffffffffffffff" + max_balance + tail}};
  for (const auto& [nonce, balance, want] : cases) {
    Account account;
    account.nonce = nonce;
    account.balance = balance;
    const Bytes encoded = StateDb::EncodeAccount(account);
    EXPECT_EQ(BytesToHex(encoded), want);
    Account decoded;
    ASSERT_TRUE(StateDb::DecodeAccount(encoded, &decoded));
    EXPECT_EQ(decoded.nonce, nonce);
    EXPECT_EQ(decoded.balance, balance);
    EXPECT_EQ(decoded.storage_root, Mpt::EmptyRoot());
    EXPECT_TRUE(decoded.code_hash.IsZero());
  }
}

// Mutation sweep of the node decoder: every prefix, a few extensions and a
// byte flip at every offset of real node blobs. A mutant must either fail to
// decode or re-encode to exactly its own bytes. Each mutant sits in a buffer
// of its own size, so the sanitizer builds catch any read past its end.
TEST(TrieCodecTest, MutatedNodesFailOrReencodeIdentically) {
  Rng rng(0xB10B);
  KvStore store(FastStore());
  Mpt trie(&store);
  std::vector<TrieWrite> entries;
  for (const Bytes& key : ShortKeys()) {
    entries.emplace_back(key, Bytes(1 + rng.NextBounded(3), 0x42));
  }
  for (uint64_t id = 0; id < 24; ++id) {
    entries.emplace_back(Key32(id), Bytes(1 + rng.NextBounded(70), static_cast<uint8_t>(id)));
  }
  std::set<Bytes> blobs;
  for (Hash root = Mpt::EmptyRoot(); const auto& [key, value] : entries) {
    root = trie.Put(root, key, value);
    std::vector<Bytes> proof;
    ASSERT_TRUE(trie.Prove(root, key, &proof));
    blobs.insert(proof.begin(), proof.end());
  }
  size_t mutants = 0;
  size_t decoded = 0;
  auto check = [&](const Bytes& mutant) {
    const Bytes exact(mutant.begin(), mutant.end());
    ++mutants;
    if (auto reencoded = Mpt::ReencodeNodeForTest(exact)) {
      ++decoded;
      EXPECT_EQ(BytesToHex(*reencoded), BytesToHex(exact));
    }
  };
  for (const Bytes& blob : blobs) {
    ASSERT_EQ(Mpt::ReencodeNodeForTest(blob), blob);
    for (size_t len = 0; len < blob.size(); ++len) {
      check(Bytes(blob.begin(), blob.begin() + static_cast<std::ptrdiff_t>(len)));
    }
    for (size_t extra = 1; extra <= 3; ++extra) {
      Bytes longer = blob;
      for (size_t i = 0; i < extra; ++i) {
        longer.push_back(static_cast<uint8_t>(rng.NextU64()));
      }
      check(longer);
    }
    for (size_t at = 0; at < blob.size(); ++at) {
      Bytes flipped = blob;
      flipped[at] ^= static_cast<uint8_t>(1 + rng.NextBounded(255));
      check(flipped);
    }
  }
  // The sweep reaches both outcomes: flips inside hashes and values decode.
  EXPECT_GT(blobs.size(), 50u);
  EXPECT_GT(decoded, 0u);
  EXPECT_LT(decoded, mutants);
}

// Hand-built RLP, so the malformed proofs below do not depend on the encoder.
std::string ListHex(const std::vector<std::string>& items_hex) {
  std::string payload;
  for (const std::string& item : items_hex) {
    payload += item;
  }
  const size_t len = payload.size() / 2;
  char header[24];
  if (len < 56) {
    std::snprintf(header, sizeof header, "%02zx", 0xc0 + len);
  } else {
    std::snprintf(header, sizeof header, "f8%02zx", len);
  }
  return header + payload;
}

// A one-node proof whose branch holds a malformed reference in the slot on
// the key's path hashes to its root like any node. A decoder that read that
// slot as empty would accept the proof as showing the key absent.
TEST(TrieProofTest, MalformedChildReferenceRejected) {
  const Bytes key = {0x5a};  // the slot for nibble 5
  const std::string ref = "a0" + Keccak256(Val("child")).ToHex().substr(2);
  for (const std::string& bad : {"9f" + std::string(62, '1'),  // a 31-byte string
                                 ListHex({"80"})}) {             // a nested list
    std::vector<std::string> items(17, "80");
    items[5] = bad;
    items[9] = ref;  // a well-formed child elsewhere
    const Bytes blob = HexToBytes(ListHex(items));
    std::optional<Bytes> value;
    EXPECT_FALSE(Mpt::VerifyProof(Keccak256(blob), key, {blob}, &value)) << BytesToHex(blob);
    // The same branch with the slot empty is a valid proof of absence.
    items[5] = "80";
    const Bytes valid = HexToBytes(ListHex(items));
    EXPECT_TRUE(Mpt::VerifyProof(Keccak256(valid), key, {valid}, &value));
    EXPECT_FALSE(value.has_value());
  }
}

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

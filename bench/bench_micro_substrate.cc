// Substrate microbenchmarks (google-benchmark): the primitive costs that
// everything else is built from — 256-bit arithmetic, Keccak-256, RLP,
// Merkle-Patricia trie operations and StateDb access, with and without the
// simulated cold-read latency. Useful for understanding where baseline
// execution time goes and what the prefetcher actually saves.
#include <benchmark/benchmark.h>

#include "src/crypto/keccak.h"
#include "src/state/statedb.h"
#include "src/state/versioned_state.h"

namespace frn {
namespace {

U256 RandomWord(uint64_t salt) {
  return U256(salt * 0x9E3779B97F4A7C15ULL, ~salt, salt << 7, salt ^ 0xABCDEF);
}

void BM_U256Add(benchmark::State& state) {
  U256 a = RandomWord(1);
  U256 b = RandomWord(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a = a + b);
  }
}
BENCHMARK(BM_U256Add);

void BM_U256Mul(benchmark::State& state) {
  U256 a = RandomWord(3);
  U256 b = RandomWord(4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a = a * b);
  }
}
BENCHMARK(BM_U256Mul);

void BM_U256DivWide(benchmark::State& state) {
  U256 a = RandomWord(5);
  U256 b = RandomWord(6) >> 128;
  for (auto _ : state) {
    benchmark::DoNotOptimize(a / b);
  }
}
BENCHMARK(BM_U256DivWide);

void BM_Keccak256(benchmark::State& state) {
  Bytes data(static_cast<size_t>(state.range(0)), 0xA7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Keccak256(data));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_Keccak256)->Arg(32)->Arg(64)->Arg(136)->Arg(1024);

Hash FilledHash(uint8_t byte) {
  std::array<uint8_t, 32> bytes;
  bytes.fill(byte);
  return Hash(bytes);
}

// The account RLP the commit writes for every loaded account.
void BM_RlpEncodeAccount(benchmark::State& state) {
  Account account;
  account.nonce = 42;
  account.balance = RandomWord(7);
  account.storage_root = FilledHash(0x11);
  account.code_hash = FilledHash(0x22);
  for (auto _ : state) {
    benchmark::DoNotOptimize(StateDb::EncodeAccount(account));
  }
}
BENCHMARK(BM_RlpEncodeAccount);

struct TrieFixture {
  explicit TrieFixture(std::chrono::nanoseconds latency, size_t n_keys = 4096)
      : store(MakeOptions(latency)), trie(&store) {
    root = Mpt::EmptyRoot();
    for (size_t i = 0; i < n_keys; ++i) {
      root = trie.Put(root, Key(i), Bytes(32, static_cast<uint8_t>(i)));
    }
  }
  static KvStore::Options MakeOptions(std::chrono::nanoseconds latency) {
    KvStore::Options o;
    o.cold_read_latency = latency;
    return o;
  }
  static Bytes Key(size_t i) {
    Hash h = Keccak256Word(U256(static_cast<uint64_t>(i)));
    return Bytes(h.bytes().begin(), h.bytes().end());
  }
  KvStore store;
  Mpt trie;
  Hash root;
};

void BM_TrieGetWarm(benchmark::State& state) {
  TrieFixture fx(std::chrono::nanoseconds(0));
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(fx.trie.Get(fx.root, TrieFixture::Key(i++ % 4096)));
  }
}
BENCHMARK(BM_TrieGetWarm);

void BM_TrieGetCold10us(benchmark::State& state) {
  TrieFixture fx(std::chrono::microseconds(10));
  size_t i = 0;
  for (auto _ : state) {
    fx.store.CoolAll();  // every node load pays the miss latency
    benchmark::DoNotOptimize(fx.trie.Get(fx.root, TrieFixture::Key(i++ % 4096)));
  }
}
BENCHMARK(BM_TrieGetCold10us);

void BM_TriePut(benchmark::State& state) {
  TrieFixture fx(std::chrono::nanoseconds(0));
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        fx.trie.Put(fx.root, TrieFixture::Key(i++ % 4096), Bytes(32, 0x5A)));
  }
}
BENCHMARK(BM_TriePut);

void BM_TrieProve(benchmark::State& state) {
  TrieFixture fx(std::chrono::nanoseconds(0));
  size_t i = 0;
  std::vector<Bytes> proof;
  for (auto _ : state) {
    fx.trie.Prove(fx.root, TrieFixture::Key(i++ % 4096), &proof);
    benchmark::DoNotOptimize(proof.size());
  }
}
BENCHMARK(BM_TrieProve);

void BM_StateDbStorageRoundTrip(benchmark::State& state) {
  TrieFixture fx(std::chrono::nanoseconds(0));
  StateDb db(&fx.trie, fx.root);
  Address contract = Address::FromId(1);
  uint64_t i = 0;
  for (auto _ : state) {
    db.SetStorage(contract, U256(i % 64), U256(i));
    benchmark::DoNotOptimize(db.GetStorage(contract, U256(i % 64)));
    ++i;
  }
}
BENCHMARK(BM_StateDbStorageRoundTrip);

void BM_StateDbCommit(benchmark::State& state) {
  TrieFixture fx(std::chrono::nanoseconds(0));
  Address contract = Address::FromId(1);
  uint64_t i = 0;
  for (auto _ : state) {
    StateDb db(&fx.trie, fx.root);
    for (int k = 0; k < 8; ++k) {
      db.SetStorage(contract, U256(static_cast<uint64_t>(k)), U256(++i));
    }
    benchmark::DoNotOptimize(db.Commit());
  }
}
BENCHMARK(BM_StateDbCommit);

// The store-attached commit every node runs: a StateDb over a VersionedState
// folds each trie with one batched Mpt::Update. (BM_StateDbCommit times the
// store-less per-key reference.) Each iteration commits one block on top of
// the last: 8 storage slots of one contract among 4096 funded accounts.
void BM_StateDbCommitBatched(benchmark::State& state) {
  KvStore store(TrieFixture::MakeOptions(std::chrono::nanoseconds(0)));
  Mpt trie(&store);
  VersionedState versioned(/*retention=*/4);
  Hash root;
  {
    StateDb genesis(&trie, Mpt::EmptyRoot(), &versioned);
    for (uint64_t a = 1; a <= 4096; ++a) {
      genesis.AddBalance(Address::FromId(a), U256(a));
    }
    root = genesis.Commit();
  }
  Address contract = Address::FromId(1);
  uint64_t i = 0;
  for (auto _ : state) {
    StateDb db(&trie, root, &versioned);
    for (int k = 0; k < 8; ++k) {
      db.SetStorage(contract, U256(static_cast<uint64_t>(k)), U256(++i));
    }
    root = db.Commit();
  }
  benchmark::DoNotOptimize(root);
}
BENCHMARK(BM_StateDbCommitBatched);

void BM_SnapshotRevert(benchmark::State& state) {
  TrieFixture fx(std::chrono::nanoseconds(0));
  StateDb db(&fx.trie, fx.root);
  Address contract = Address::FromId(1);
  for (auto _ : state) {
    int snap = db.Snapshot();
    for (int k = 0; k < 8; ++k) {
      db.SetStorage(contract, U256(static_cast<uint64_t>(k)), U256(7));
    }
    db.RevertToSnapshot(snap);
  }
}
BENCHMARK(BM_SnapshotRevert);

}  // namespace
}  // namespace frn

BENCHMARK_MAIN();

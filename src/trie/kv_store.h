// Content-addressed node store backing the Merkle-Patricia trie, with a
// simulated disk-latency model. The paper's prefetcher exists because trie
// lookups on the critical path pay disk I/O + decode + key-value lookup costs;
// here those costs are charged as a calibrated busy-wait on cold reads so that
// warming the cache off the critical path yields a real wall-clock win.
//
// Thread safety: the store serves concurrent readers (speculation workers
// executing against immutable head snapshots) alongside a single writer (the
// coordinator committing a block, or a speculative SetCode storing a
// content-addressed code blob). The blob map is guarded by a shared mutex
// (shared for Get/Contains, exclusive for Put); the hot set is sharded by key
// so worker threads touching disjoint trie paths rarely contend; statistics
// are atomics. Lock discipline is machine-checked: every guarded member
// carries FRN_GUARDED_BY and a clang -Wthread-safety build rejects unguarded
// access (see src/common/sync.h and DESIGN.md §10).
#ifndef SRC_TRIE_KV_STORE_H_
#define SRC_TRIE_KV_STORE_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/common/sync.h"
#include "src/common/types.h"

namespace frn {

class PersistLog;

struct KvStoreStats {
  uint64_t reads = 0;
  uint64_t cold_reads = 0;   // reads that paid the miss latency
  uint64_t writes = 0;
  // Simulated-disk time spun by cold reads, on whichever thread took them
  // (the critical path, a speculation worker, a commit fold).
  double stall_seconds = 0;
};

// In-memory content-addressed store. A bounded "hot set" models the OS page
// cache: reads outside the hot set pay `cold_read_latency` and then enter it.
class KvStore {
 public:
  struct Options {
    std::chrono::nanoseconds cold_read_latency{2000};  // ~2us: SSD page + decode
    size_t hot_set_capacity = 1 << 16;
    // Optional durability (borrowed; must outlive the store): the constructor
    // replays the log's blobs into the map, and every first-time Put of a key
    // is appended. The store is content-addressed, so a re-Put of a resident
    // key carries identical bytes and is not re-logged — log growth is
    // bounded by distinct blobs, and replay is insert-only.
    PersistLog* persist = nullptr;
  };

  KvStore();
  explicit KvStore(const Options& options);

  // Looks up a node blob; charges latency when the key is not hot.
  std::optional<Bytes> Get(const Hash& key);
  // Get into a caller's buffer, whose capacity is reused; false when absent.
  bool GetInto(const Hash& key, Bytes* out);
  // Inserts a node blob; newly written nodes are hot.
  void Put(const Hash& key, Bytes value);
  bool Contains(const Hash& key) const;
  // Marks a key hot without charging latency (prefetch path).
  void Warm(const Hash& key);
  bool IsHot(const Hash& key) const;
  // Evicts the whole hot set (e.g. between benchmark phases).
  void CoolAll();
  // Current hot-set occupancy (sums the shards; test/diagnostic use).
  size_t hot_size() const;

  // Snapshot of the global counters (consistent enough for reporting; the
  // counters are independent atomics).
  KvStoreStats stats() const;
  void ResetStats();
  size_t size() const;

  // Node blobs a commit fold produced (Mpt::Update), in the order the fold
  // emitted them. They are invisible to readers until applied.
  using StagedWrites = std::vector<std::pair<Hash, Bytes>>;

  // Applies staged blobs to the store under a single exclusive lock, in
  // order, counting each as a write and routing it through the same hot-set
  // occupancy accounting as a direct Put.
  void ApplyStaged(StagedWrites&& staged);

 private:
  // The hot set is sharded to keep speculation workers from serializing on a
  // single lock; capacity is enforced on the aggregate occupancy (approximate
  // global counter, wholesale eviction of every shard at capacity), matching
  // the pre-sharding single-set model (correctness never depends on which
  // entries stay hot).
  static constexpr size_t kHotShards = 16;
  struct HotShard {
    mutable SharedMutex mutex;
    std::unordered_set<Hash, HashHasher> keys FRN_GUARDED_BY(mutex);
  };

  HotShard& ShardFor(const Hash& key) const;
  void Touch(const Hash& key);

  Options options_;
  mutable SharedMutex data_mutex_;
  std::unordered_map<Hash, Bytes, HashHasher> data_ FRN_GUARDED_BY(data_mutex_);
  mutable std::array<HotShard, kHotShards> hot_;
  // Approximate aggregate hot-set occupancy (drives wholesale eviction).
  std::atomic<size_t> hot_count_{0};
  std::atomic<uint64_t> reads_{0};
  std::atomic<uint64_t> cold_reads_{0};
  std::atomic<uint64_t> writes_{0};
  std::atomic<uint64_t> stall_nanos_{0};
};

}  // namespace frn

#endif  // SRC_TRIE_KV_STORE_H_

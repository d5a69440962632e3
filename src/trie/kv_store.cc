#include "src/trie/kv_store.h"

#include "src/common/clock.h"
#include "src/trie/persist.h"

namespace frn {

namespace {

// Busy-waits for the given duration (models I/O latency without yielding,
// matching the discrete-time benchmark methodology).
void SpinFor(std::chrono::nanoseconds duration) {
  const double seconds = std::chrono::duration<double>(duration).count();
  Stopwatch watch;
  while (watch.ElapsedSeconds() < seconds) {
    // Busy-wait: the cost lands on the calling thread's wall clock and CPU
    // time alike, whether it is the critical path or a worker.
  }
}

}  // namespace

KvStore::KvStore() : KvStore(Options{}) {}

KvStore::KvStore(const Options& options) : options_(options) {
  if (options_.persist == nullptr) {
    return;
  }
  // Recovery path: blobs replayed from the log enter the map directly —
  // not counted as writes, not re-logged, not marked hot (a cold start has a
  // cold cache by definition).
  std::vector<std::pair<Hash, Bytes>> blobs = options_.persist->TakeReplay();
  MutexLock lock(data_mutex_);
  for (auto& [key, value] : blobs) {
    data_.emplace(key, std::move(value));
  }
}

KvStore::HotShard& KvStore::ShardFor(const Hash& key) const {
  return hot_[key.bytes()[0] % kHotShards];
}

std::optional<Bytes> KvStore::Get(const Hash& key) {
  Bytes value;
  if (!GetInto(key, &value)) {
    return std::nullopt;
  }
  return value;
}

bool KvStore::GetInto(const Hash& key, Bytes* out) {
  reads_.fetch_add(1, std::memory_order_relaxed);
  {
    ReaderLock lock(data_mutex_);
    auto it = data_.find(key);
    if (it == data_.end()) {
      return false;
    }
    out->assign(it->second.begin(), it->second.end());
  }
  if (!IsHot(key)) {
    // Two workers missing the same cold key both pay the latency, as two real
    // threads would both stall on the same uncached disk page.
    cold_reads_.fetch_add(1, std::memory_order_relaxed);
    SpinFor(options_.cold_read_latency);
    stall_nanos_.fetch_add(static_cast<uint64_t>(options_.cold_read_latency.count()),
                           std::memory_order_relaxed);
    Touch(key);
  }
  return true;
}

void KvStore::Put(const Hash& key, Bytes value) {
  writes_.fetch_add(1, std::memory_order_relaxed);
  {
    MutexLock lock(data_mutex_);
    auto [it, inserted] = data_.try_emplace(key, std::move(value));
    if (!inserted) {
      // Content-addressed: same key, same bytes. Keep the overwrite (exact
      // pre-persistence semantics) but skip re-logging the identical blob.
      it->second = std::move(value);
    } else if (options_.persist != nullptr) {
      options_.persist->AppendBlob(it->first, it->second);
    }
  }
  Touch(key);
}

void KvStore::ApplyStaged(StagedWrites&& staged) {
  if (staged.empty()) {
    return;
  }
  writes_.fetch_add(staged.size(), std::memory_order_relaxed);
  {
    MutexLock lock(data_mutex_);
    for (auto& [key, value] : staged) {
      auto [it, inserted] = data_.try_emplace(key, std::move(value));
      if (!inserted) {
        it->second = std::move(value);
      } else if (options_.persist != nullptr) {
        options_.persist->AppendBlob(it->first, it->second);
      }
    }
  }
  for (const auto& kv : staged) {
    Touch(kv.first);
  }
  staged.clear();
}

bool KvStore::Contains(const Hash& key) const {
  ReaderLock lock(data_mutex_);
  return data_.contains(key);
}

void KvStore::Warm(const Hash& key) { Touch(key); }

bool KvStore::IsHot(const Hash& key) const {
  HotShard& shard = ShardFor(key);
  ReaderLock lock(shard.mutex);
  return shard.keys.contains(key);
}

void KvStore::CoolAll() {
  for (HotShard& shard : hot_) {
    MutexLock lock(shard.mutex);
    shard.keys.clear();
  }
  hot_count_.store(0, std::memory_order_relaxed);
}

KvStoreStats KvStore::stats() const {
  KvStoreStats s;
  s.reads = reads_.load(std::memory_order_relaxed);
  s.cold_reads = cold_reads_.load(std::memory_order_relaxed);
  s.writes = writes_.load(std::memory_order_relaxed);
  s.stall_seconds = 1e-9 * static_cast<double>(stall_nanos_.load(std::memory_order_relaxed));
  return s;
}

void KvStore::ResetStats() {
  reads_.store(0, std::memory_order_relaxed);
  cold_reads_.store(0, std::memory_order_relaxed);
  writes_.store(0, std::memory_order_relaxed);
  stall_nanos_.store(0, std::memory_order_relaxed);
}

size_t KvStore::hot_size() const {
  size_t total = 0;
  for (const HotShard& shard : hot_) {
    ReaderLock lock(shard.mutex);
    total += shard.keys.size();
  }
  return total;
}

size_t KvStore::size() const {
  ReaderLock lock(data_mutex_);
  return data_.size();
}

void KvStore::Touch(const Hash& key) {
  HotShard& shard = ShardFor(key);
  {
    // Re-touching a resident key leaves occupancy unchanged, so it must never
    // trigger eviction: commits rewrite content-identical node blobs and the
    // prefetcher re-warms live paths constantly, and either one hitting the
    // capacity check while already hot would wipe the entire hot set.
    ReaderLock lock(shard.mutex);
    if (shard.keys.contains(key)) {
      return;
    }
  }
  // Capacity is enforced on the aggregate occupancy (an approximate global
  // counter), not per shard: wholesale eviction at `hot_set_capacity` total
  // entries reproduces the pre-sharding single-set model exactly in the
  // single-threaded case, so baseline cold-read numbers are unaffected by the
  // sharding. Cheap wholesale eviction keeps the model simple; correctness
  // does not depend on which entries stay hot, only on cold reads costing
  // time — so a racy over/undershoot of the counter is harmless.
  if (hot_count_.load(std::memory_order_relaxed) >=
      std::max<size_t>(1, options_.hot_set_capacity)) {
    CoolAll();
  }
  MutexLock lock(shard.mutex);
  if (shard.keys.insert(key).second) {
    hot_count_.fetch_add(1, std::memory_order_relaxed);
  }
}

}  // namespace frn

// Multi-version snapshot store over the flat account/slot maps — the
// replacement for the PR-4 single-head flat layer with its reverse-diff deque
// and permanent-invalidation safety valve (design after "A Fast
// Ethereum-Compatible Forkless Database", PAPERS.md).
//
// Every Commit creates an immutable version node holding the block's forward
// delta over its parent; the node chain bottoms out in a folded base map.
// Every Node reads committed state only through this store — baseline and
// Forerunner alike; the trie authenticates roots but is not walked to read.
// Readers (the chain head, SpecPool lanes, the prefetcher, parallel attempts)
// acquire a SnapshotHandle for the root they need and read through it
// concurrently with commits — the handle pins the version, so a reorg to any
// retained height is a handle swap, never a diff replay.
//
// Retention: after each commit the store folds the oldest version into the base
// while the chain is deeper than `retention` versions. A fold only happens
// when nothing observes the current base (no pinned handle at it, no
// unretired fork branch below it) — the eligibility test is simply
// `base_.use_count() == 2` (the store's own pointer plus the child's parent
// link), so a pinned snapshot defers folding (costing memory, never
// correctness) and releasing it lets pruning catch up at the next commit.
//
// Invalidation: committing on top of a view the store does not hold (an
// invalid parent handle) is refused and counted, but — unlike the flat
// layer's permanent trip wire — the failure stays local to that commit; every
// retained version keeps serving reads.
#ifndef SRC_STATE_VERSIONED_STATE_H_
#define SRC_STATE_VERSIONED_STATE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/sync.h"
#include "src/state/statedb.h"

namespace frn {

// One committed version: the forward delta this block applied over `parent`.
// All fields are written only while VersionedState::mutex_ is held
// exclusively (commit, fold) and read under at least the shared lock, so they
// carry no annotations of their own — the store's lock is the capability.
struct StateVersion {
  uint64_t height = 0;
  Hash root;
  bool is_base = false;  // deltas folded into the store's base maps
  std::shared_ptr<StateVersion> parent;
  std::unordered_map<Address, Account, AddressHasher> delta_accounts;
  std::unordered_map<StateSlotKey, U256, StateSlotKeyHasher> delta_slots;
};

struct VersionedStateStats {
  uint64_t commits = 0;          // versions committed
  uint64_t handle_acquires = 0;  // AcquireAt hits
  uint64_t acquire_misses = 0;   // AcquireAt for a root not retained
  uint64_t folds = 0;            // versions folded into the base
  uint64_t fold_deferrals = 0;   // folds skipped because the base was pinned
  uint64_t invalidations = 0;    // commits refused over an uncovered parent
  size_t retained = 0;           // versions currently acquirable
  size_t depth = 0;              // chain depth above the base at last commit
  size_t accounts = 0;           // base-map sizes at last commit
  size_t slots = 0;
};

class VersionedState {
 public:
  // Retains up to `retention` versions above the folded base (minimum 1).
  // A Node sizes it to chain.max_reorg_depth, the deepest reorg its chain
  // manager may ask for.
  explicit VersionedState(size_t retention);
  // Severs the release hook, so handles that outlive the store release safely.
  ~VersionedState();

  // Pins the version whose root is `root` (a zero root means the empty
  // trie). Returns an invalid handle if the store no longer — or never —
  // retains that root.
  SnapshotHandle AcquireAt(const Hash& root);

  // Creates a child of `parent` holding `root` and the block's forward delta,
  // prunes, and returns a handle to the new version. Returns an invalid
  // handle (and counts an invalidation) when `parent` is not a valid view of
  // this store.
  SnapshotHandle Commit(const SnapshotHandle& parent, const Hash& root,
                        std::vector<std::pair<Address, Account>> accounts,
                        std::vector<std::pair<StateSlotKey, U256>> slots);

  // Point reads through a pinned view: walk the delta chain tip→base, first
  // hit wins, then the base maps. A miss everywhere is authoritative absence
  // (no account / zero slot). `view` must be a handle of this store.
  std::optional<Account> GetAccount(const SnapshotHandle& view, const Address& addr) const;
  U256 GetStorage(const SnapshotHandle& view, const Address& addr, const U256& key) const;

  size_t retention() const { return retention_; }
  VersionedStateStats stats() const;

  // Called by SnapshotHandle when a pinned handle is released. When the last
  // commit deferred a base fold (a pinned reader held the base), this retries
  // the fold immediately — an idle chain must not keep deferred versions
  // resident until the next commit. Lock-free no-op when nothing is deferred.
  void NotifyHandleRelease();

 private:
  void PruneLocked(const std::shared_ptr<StateVersion>& tip) FRN_REQUIRES(mutex_);

  const size_t retention_;
  mutable SharedMutex mutex_;
  // The folded base: version node (is_base, end of every parent chain) plus
  // the authoritative maps its reads resolve against. Zero-valued slots are
  // erased from `storage_` so a base miss means zero/absent.
  std::shared_ptr<StateVersion> base_ FRN_GUARDED_BY(mutex_);
  std::unordered_map<Address, Account, AddressHasher> accounts_ FRN_GUARDED_BY(mutex_);
  std::unordered_map<StateSlotKey, U256, StateSlotKeyHasher> storage_ FRN_GUARDED_BY(mutex_);
  // The latest committed version. This is the store's own strong reference to
  // the retained chain: head_ → parent → … → base_ keeps every in-retention
  // version alive with no handle outstanding; fork branches off that chain
  // survive exactly as long as something pins them.
  std::shared_ptr<StateVersion> head_ FRN_GUARDED_BY(mutex_);
  // Versions by root, weakly held: a version stays acquirable while
  // the retained head chain — or anything else (an undo record, a pinned
  // reader) — keeps it alive. Repeated roots map to the latest version
  // (latest-wins).
  std::unordered_map<Hash, std::weak_ptr<StateVersion>, HashHasher> by_root_
      FRN_GUARDED_BY(mutex_);
  VersionedStateStats stats_ FRN_GUARDED_BY(mutex_);
  std::atomic<uint64_t> acquires_{0};
  std::atomic<uint64_t> acquire_misses_{0};
  // True while the base fold is behind (PruneLocked hit a pinned base).
  // Checked lock-free in NotifyHandleRelease so releasing unrelated handles
  // stays cheap; only ever written under mutex_.
  std::atomic<bool> fold_pending_{false};
  // Shared with every externally handed-out handle; our destructor nulls the
  // back-pointer so late releases are safe no-ops.
  const std::shared_ptr<VersionedReleaseHook> hook_;
};

}  // namespace frn

#endif  // SRC_STATE_VERSIONED_STATE_H_

#include "src/state/versioned_state.h"

#include <algorithm>

#include "src/obs/registry.h"
#include "src/obs/trace.h"

namespace frn {

VersionedState::VersionedState(size_t retention)
    : retention_(std::max<size_t>(1, retention)),
      hook_(std::make_shared<VersionedReleaseHook>()) {
  {
    MutexLock hook_lock(hook_->mutex);
    hook_->store = this;
  }
  auto base = std::make_shared<StateVersion>();
  base->root = Mpt::EmptyRoot();
  base->is_base = true;
  MutexLock lock(mutex_);
  by_root_[base->root] = base;
  base_ = std::move(base);
}

VersionedState::~VersionedState() {
  MutexLock hook_lock(hook_->mutex);
  hook_->store = nullptr;
}

void VersionedState::NotifyHandleRelease() {
  // Fast path: nothing deferred, don't touch the store lock — this runs on
  // every release of every pinned handle (speculation workers included).
  if (!fold_pending_.load(std::memory_order_acquire)) {
    return;
  }
  MutexLock lock(mutex_);
  if (head_ != nullptr) {
    PruneLocked(head_);
  }
}

SnapshotHandle VersionedState::AcquireAt(const Hash& root) {
  const Hash key = root.IsZero() ? Mpt::EmptyRoot() : root;
  ReaderLock lock(mutex_);
  auto it = by_root_.find(key);
  if (it != by_root_.end()) {
    if (std::shared_ptr<StateVersion> v = it->second.lock()) {
      acquires_.fetch_add(1, std::memory_order_relaxed);
      const uint64_t height = v->height;
      return SnapshotHandle(std::move(v), key, height, hook_);
    }
  }
  acquire_misses_.fetch_add(1, std::memory_order_relaxed);
  return SnapshotHandle{};
}

SnapshotHandle VersionedState::Commit(const SnapshotHandle& parent, const Hash& root,
                                      std::vector<std::pair<Address, Account>> accounts,
                                      std::vector<std::pair<StateSlotKey, U256>> slots) {
  static SecondsCounter* seal_seconds =
      MetricsRegistry::Global().GetSeconds("state.seal_seconds");
  TraceSpan span(&TraceCollector::Global(), "state", "versioned.seal", seal_seconds);
  span.AddArg(TraceArg::U64("accounts", accounts.size()));
  span.AddArg(TraceArg::U64("slots", slots.size()));
  const Hash version_root = root.IsZero() ? Mpt::EmptyRoot() : root;
  MutexLock lock(mutex_);
  if (!parent.valid()) {
    // Committing on top of a view the store does not hold. The old flat layer
    // answered this by permanently invalidating itself; here the failure
    // stays local to this commit — every retained version keeps serving.
    ++stats_.invalidations;
    return SnapshotHandle{};
  }
  auto v = std::make_shared<StateVersion>();
  v->height = parent.version_->height + 1;
  v->parent = parent.version_;
  v->root = version_root;
  v->delta_accounts.reserve(accounts.size());
  for (auto& [addr, account] : accounts) {
    v->delta_accounts.insert_or_assign(addr, account);
  }
  v->delta_slots.reserve(slots.size());
  for (auto& [slot, value] : slots) {
    v->delta_slots.insert_or_assign(slot, value);
  }
  by_root_[version_root] = v;  // latest-wins for repeated roots (empty blocks)
  head_ = v;  // the store itself retains the head chain; see header comment
  ++stats_.commits;
  PruneLocked(v);
  // Drop index entries whose versions died (released handles past retention).
  for (auto it = by_root_.begin(); it != by_root_.end();) {  // pure expired-entry sweep, order-independent
    it = it->second.expired() ? by_root_.erase(it) : std::next(it);
  }
  stats_.retained = by_root_.size();
  stats_.accounts = accounts_.size();
  stats_.slots = storage_.size();
  // The returned handle is copy-elided into the caller's frame, so its
  // release hook (hook->mutex -> store mutex_) never fires while mutex_ is
  // held here.
  return SnapshotHandle(std::move(v), version_root, parent.height() + 1, hook_);
}

void VersionedState::PruneLocked(const std::shared_ptr<StateVersion>& tip) {
  for (;;) {
    // Chain above the base, tip first. Recomputed per fold: each fold
    // shortens it by one.
    std::vector<StateVersion*> chain;
    for (StateVersion* p = tip.get(); p != nullptr && !p->is_base; p = p->parent.get()) {
      chain.push_back(p);
    }
    stats_.depth = chain.size();
    if (chain.size() <= retention_) {
      fold_pending_.store(false, std::memory_order_release);
      return;
    }
    // Fold eligibility: the only references to the current base may be the
    // store's own base_ pointer and the child's parent link. Any pinned
    // handle at the base — or an unretired fork branch hanging off it —
    // raises the count and defers the fold (costing memory, not correctness).
    // The pending flag makes the next handle release retry right here rather
    // than waiting for a commit that an idle chain may never perform.
    if (base_.use_count() != 2) {
      ++stats_.fold_deferrals;
      fold_pending_.store(true, std::memory_order_release);
      return;
    }
    const std::shared_ptr<StateVersion>& child =
        chain.size() >= 2 ? chain[chain.size() - 2]->parent : tip;
    for (auto& [addr, account] : child->delta_accounts) {  // frn:allow(determinism): per-key map fold, distinct keys commute
      accounts_[addr] = account;
    }
    for (auto& [slot, value] : child->delta_slots) {  // frn:allow(determinism): per-key map fold, distinct keys commute
      if (value.IsZero()) {
        storage_.erase(slot);  // zero write == deletion, matching the trie
      } else {
        storage_[slot] = value;
      }
    }
    std::shared_ptr<StateVersion> new_base = child;  // keep alive across relink
    new_base->delta_accounts.clear();
    new_base->delta_slots.clear();
    new_base->is_base = true;
    new_base->parent.reset();   // old base: last strong ref is base_ below
    base_ = std::move(new_base);  // old base destroyed; its by_root_ entry expires
    ++stats_.folds;
  }
}

std::optional<Account> VersionedState::GetAccount(const SnapshotHandle& view,
                                                 const Address& addr) const {
  ReaderLock lock(mutex_);
  for (const StateVersion* v = view.version_.get(); v != nullptr && !v->is_base;
       v = v->parent.get()) {
    auto it = v->delta_accounts.find(addr);
    if (it != v->delta_accounts.end()) {
      return it->second;
    }
  }
  auto it = accounts_.find(addr);
  if (it == accounts_.end()) {
    return std::nullopt;
  }
  return it->second;
}

U256 VersionedState::GetStorage(const SnapshotHandle& view, const Address& addr,
                                const U256& key) const {
  const StateSlotKey slot{addr, key};
  ReaderLock lock(mutex_);
  for (const StateVersion* v = view.version_.get(); v != nullptr && !v->is_base;
       v = v->parent.get()) {
    auto it = v->delta_slots.find(slot);
    if (it != v->delta_slots.end()) {
      return it->second;  // zero here is an authoritative in-block deletion
    }
  }
  auto it = storage_.find(slot);
  if (it == storage_.end()) {
    return U256{};
  }
  return it->second;
}

VersionedStateStats VersionedState::stats() const {
  ReaderLock lock(mutex_);
  VersionedStateStats s = stats_;
  s.handle_acquires = acquires_.load(std::memory_order_relaxed);
  s.acquire_misses = acquire_misses_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace frn

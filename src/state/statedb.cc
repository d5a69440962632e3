#include "src/state/statedb.h"

#include <algorithm>
#include <cassert>
#include <optional>

#include "src/common/clock.h"

#include "src/crypto/keccak.h"
#include "src/obs/registry.h"
#include "src/rlp/rlp.h"
#include "src/state/commit_pool.h"
#include "src/state/versioned_state.h"

namespace frn {

// SnapshotHandle's special members live here because statedb.h cannot see
// VersionedState (circular include); every path that drops a pin funnels
// through NotifyRelease so the store can retry deferred base folds.
SnapshotHandle::SnapshotHandle(const SnapshotHandle& o) = default;

SnapshotHandle::SnapshotHandle(SnapshotHandle&& o) noexcept
    : version_(std::move(o.version_)),
      root_(o.root_),
      height_(o.height_),
      hook_(std::move(o.hook_)) {
  o.root_ = Hash{};
  o.height_ = 0;
}

SnapshotHandle& SnapshotHandle::operator=(const SnapshotHandle& o) {
  if (this != &o) {
    NotifyRelease();
    version_ = o.version_;
    root_ = o.root_;
    height_ = o.height_;
    hook_ = o.hook_;
  }
  return *this;
}

SnapshotHandle& SnapshotHandle::operator=(SnapshotHandle&& o) noexcept {
  if (this != &o) {
    NotifyRelease();
    version_ = std::move(o.version_);
    root_ = o.root_;
    height_ = o.height_;
    hook_ = std::move(o.hook_);
    o.root_ = Hash{};
    o.height_ = 0;
  }
  return *this;
}

SnapshotHandle::~SnapshotHandle() { NotifyRelease(); }

void SnapshotHandle::Release() {
  NotifyRelease();
  root_ = Hash{};
  height_ = 0;
}

void SnapshotHandle::NotifyRelease() {
  if (version_ == nullptr) {
    hook_.reset();
    return;
  }
  version_.reset();
  std::shared_ptr<VersionedReleaseHook> hook = std::move(hook_);
  if (hook != nullptr) {
    MutexLock lock(hook->mutex);
    if (hook->store != nullptr) {
      hook->store->NotifyHandleRelease();
    }
  }
}

StateDb::StateDb(Mpt* trie, const Hash& root, VersionedState* versioned,
                 CommitPool* commit_pool)
    : trie_(trie), root_(root), versioned_(versioned), commit_pool_(commit_pool) {
  if (versioned_ != nullptr) {
    view_ = versioned_->AcquireAt(root_);
  }
}

Bytes StateDb::AccountKey(const Address& addr) {
  // Secure trie: key is keccak(address).
  Hash h = Keccak256(addr.bytes().data(), addr.bytes().size());
  return Bytes(h.bytes().begin(), h.bytes().end());
}

Bytes StateDb::StorageKey(const U256& key) {
  Hash h = Keccak256Word(key);
  return Bytes(h.bytes().begin(), h.bytes().end());
}

Bytes StateDb::EncodeAccount(const Account& a) {
  std::vector<Bytes> items;
  items.push_back(RlpEncoder::EncodeUint(a.nonce));
  items.push_back(RlpEncoder::EncodeUint(a.balance));
  Hash storage_root = a.storage_root.IsZero() ? Mpt::EmptyRoot() : a.storage_root;
  items.push_back(RlpEncoder::EncodeBytes(storage_root.bytes().data(), 32));
  items.push_back(RlpEncoder::EncodeBytes(a.code_hash.bytes().data(), 32));
  return RlpEncoder::EncodeList(items);
}

bool StateDb::DecodeAccount(const Bytes& data, Account* out) {
  RlpDecoder::Item item;
  if (!RlpDecoder::Decode(data, &item) || !item.is_list || item.children.size() != 4) {
    return false;
  }
  const auto& nonce = item.children[0].payload;
  out->nonce = U256::FromBigEndian(nonce.data(), nonce.size()).AsUint64();
  const auto& bal = item.children[1].payload;
  out->balance = U256::FromBigEndian(bal.data(), bal.size());
  std::array<uint8_t, 32> h{};
  if (item.children[2].payload.size() == 32) {
    std::copy(item.children[2].payload.begin(), item.children[2].payload.end(), h.begin());
  }
  out->storage_root = Hash(h);
  std::array<uint8_t, 32> ch{};
  if (item.children[3].payload.size() == 32) {
    std::copy(item.children[3].payload.begin(), item.children[3].payload.end(), ch.begin());
  }
  out->code_hash = Hash(ch);
  out->exists = true;
  return true;
}

Account& StateDb::Load(const Address& addr) {
  auto it = accounts_.find(addr);
  if (it != accounts_.end()) {
    return it->second;
  }
  static Counter* versioned_hits =
      MetricsRegistry::Global().GetCounter("state.versioned_hits");
  static Counter* versioned_misses =
      MetricsRegistry::Global().GetCounter("state.versioned_misses");
  Account account;
  bool resolved = false;
  if (overlay_ != nullptr) {
    // Optimistic in-block read: a hit is a lower-indexed transaction's
    // committed write, seeded into this attempt's cache exactly where serial
    // execution would have left it. A miss records a pre-block read and falls
    // through to the snapshot path.
    if (auto in_block = overlay_->OverlayAccount(addr)) {
      account = *in_block;
      resolved = true;
    }
  }
  if (!resolved && versioned_ != nullptr) {
    if (view_.valid()) {
      // Authoritative O(1) answer: under a pinned view, absence from the
      // version chain and base means the account does not exist — no trie
      // fallback needed.
      if (auto cached = versioned_->GetAccount(view_, addr)) {
        account = *cached;
      }
      resolved = true;
      ++stats_.versioned_hits;
      versioned_hits->Add();
    } else {
      ++stats_.versioned_misses;
      versioned_misses->Add();
    }
  }
  if (!resolved) {
    ++stats_.account_trie_reads;
    auto blob = trie_->Get(root_, AccountKey(addr));
    if (blob) {
      DecodeAccount(*blob, &account);
    }
  }
  return accounts_.emplace(addr, account).first->second;
}

bool StateDb::Exists(const Address& addr) { return Load(addr).exists; }

void StateDb::CreateAccount(const Address& addr) {
  Account& a = Load(addr);
  if (a.exists) {
    return;
  }
  JournalEntry e;
  e.kind = JournalEntry::Kind::kCreate;
  e.addr = addr;
  e.prev_exists = false;
  journal_.push_back(e);
  a.exists = true;
}

U256 StateDb::GetBalance(const Address& addr) {
  if (overlay_ != nullptr) {
    // Observable read: the caller's behavior (opcode result, validity branch)
    // depends on the value, so the overlay must know — the commutative
    // fee-account exemption is only sound for reads that are never observed.
    overlay_->OnBalanceRead(addr);
  }
  return Load(addr).balance;
}

void StateDb::SetBalance(const Address& addr, const U256& value) {
  Account& a = Load(addr);
  JournalEntry e;
  e.kind = JournalEntry::Kind::kBalance;
  e.addr = addr;
  e.prev_word = a.balance;
  e.prev_exists = a.exists;
  journal_.push_back(e);
  a.balance = value;
  a.exists = true;
}

void StateDb::AddBalance(const Address& addr, const U256& value) {
  // Deliberately not GetBalance(): a credit's read half is not observable —
  // the write set carries the *delta* for the fee account, so crediting the
  // coinbase its gas fee must not trip the overlay's balance-read detection.
  SetBalance(addr, Load(addr).balance + value);
}

bool StateDb::SubBalance(const Address& addr, const U256& value) {
  U256 balance = GetBalance(addr);
  if (balance < value) {
    return false;
  }
  SetBalance(addr, balance - value);
  return true;
}

uint64_t StateDb::GetNonce(const Address& addr) { return Load(addr).nonce; }

void StateDb::SetNonce(const Address& addr, uint64_t nonce) {
  Account& a = Load(addr);
  JournalEntry e;
  e.kind = JournalEntry::Kind::kNonce;
  e.addr = addr;
  e.prev_nonce = a.nonce;
  e.prev_exists = a.exists;
  journal_.push_back(e);
  a.nonce = nonce;
  a.exists = true;
}

Bytes StateDb::GetCode(const Address& addr) {
  Account& a = Load(addr);
  if (a.code_hash.IsZero()) {
    return {};
  }
  auto it = code_cache_.find(a.code_hash);
  if (it != code_cache_.end()) {
    return it->second;
  }
  auto blob = trie_->store()->Get(a.code_hash);
  Bytes code = blob.value_or(Bytes{});
  code_cache_.emplace(a.code_hash, code);
  return code;
}

Hash StateDb::GetCodeHash(const Address& addr) { return Load(addr).code_hash; }

void StateDb::SetCode(const Address& addr, const Bytes& code) {
  Account& a = Load(addr);
  JournalEntry e;
  e.kind = JournalEntry::Kind::kCode;
  e.addr = addr;
  e.prev_code_hash = a.code_hash;
  e.prev_exists = a.exists;
  journal_.push_back(e);
  Hash code_hash = Keccak256(code);
  trie_->store()->Put(code_hash, code);
  code_cache_[code_hash] = code;
  a.code_hash = code_hash;
  a.exists = true;
}

U256 StateDb::GetCommittedStorage(const Address& addr, const U256& key) {
  StorageCache& cache = storage_[addr];
  auto it = cache.committed.find(key);
  if (it != cache.committed.end()) {
    return it->second;
  }
  static Counter* versioned_hits =
      MetricsRegistry::Global().GetCounter("state.versioned_hits");
  static Counter* versioned_misses =
      MetricsRegistry::Global().GetCounter("state.versioned_misses");
  U256 value;
  bool resolved = false;
  if (versioned_ != nullptr) {
    if (view_.valid()) {
      // Authoritative: a slot absent from the pinned view is zero. This also
      // skips the account load the trie path below needs for the storage root.
      value = versioned_->GetStorage(view_, addr, key);
      resolved = true;
      ++stats_.versioned_hits;
      versioned_hits->Add();
    } else {
      ++stats_.versioned_misses;
      versioned_misses->Add();
    }
  }
  if (!resolved) {
    Account& a = Load(addr);
    if (a.exists && !a.storage_root.IsZero() && a.storage_root != Mpt::EmptyRoot()) {
      ++stats_.storage_trie_reads;
      auto blob = trie_->Get(a.storage_root, StorageKey(key));
      if (blob) {
        RlpDecoder::Item item;
        if (RlpDecoder::Decode(*blob, &item) && !item.is_list) {
          value = U256::FromBigEndian(item.payload.data(), item.payload.size());
        }
      }
    }
  }
  cache.committed.emplace(key, value);
  return value;
}

U256 StateDb::GetStorage(const Address& addr, const U256& key) {
  StorageCache& cache = storage_[addr];
  auto it = cache.current.find(key);
  if (it != cache.current.end()) {
    return it->second;
  }
  if (overlay_ != nullptr) {
    // A lower-indexed transaction's committed write belongs in `current`
    // (unjournaled, like a predecessor's write in serial execution), never in
    // `committed`: GetCommittedStorage must keep serving the pre-block value
    // so the SSTORE gas rules match the serial schedule bit for bit.
    if (auto in_block = overlay_->OverlayStorage(addr, key)) {
      cache.current.emplace(key, *in_block);
      return *in_block;
    }
  }
  return GetCommittedStorage(addr, key);
}

void StateDb::SetStorage(const Address& addr, const U256& key, const U256& value) {
  JournalEntry e;
  e.kind = JournalEntry::Kind::kStorage;
  e.addr = addr;
  e.key = key;
  e.prev_word = GetStorage(addr, key);
  journal_.push_back(e);
  storage_[addr].current[key] = value;
}

int StateDb::Snapshot() {
  // StateDb instances are per-block; the global registry keeps the run-wide
  // totals that per-instance StateDbStats cannot.
  static Counter* snapshots = MetricsRegistry::Global().GetCounter("state.snapshots");
  ++stats_.snapshots;
  snapshots->Add();
  return static_cast<int>(journal_.size());
}

void StateDb::RevertToSnapshot(int id) {
  assert(id >= 0 && static_cast<size_t>(id) <= journal_.size());
  static Counter* reverts = MetricsRegistry::Global().GetCounter("state.reverts");
  static Counter* entries_reverted =
      MetricsRegistry::Global().GetCounter("state.entries_reverted");
  ++stats_.reverts;
  reverts->Add();
  uint64_t undone = journal_.size() - static_cast<size_t>(id);
  stats_.entries_reverted += undone;
  entries_reverted->Add(undone);
  while (journal_.size() > static_cast<size_t>(id)) {
    const JournalEntry& e = journal_.back();
    switch (e.kind) {
      case JournalEntry::Kind::kBalance: {
        Account& a = accounts_.at(e.addr);
        a.balance = e.prev_word;
        a.exists = e.prev_exists;
        break;
      }
      case JournalEntry::Kind::kNonce: {
        Account& a = accounts_.at(e.addr);
        a.nonce = e.prev_nonce;
        a.exists = e.prev_exists;
        break;
      }
      case JournalEntry::Kind::kStorage:
        storage_.at(e.addr).current[e.key] = e.prev_word;
        break;
      case JournalEntry::Kind::kCode: {
        Account& a = accounts_.at(e.addr);
        a.code_hash = e.prev_code_hash;
        a.exists = e.prev_exists;
        break;
      }
      case JournalEntry::Kind::kCreate:
        accounts_.at(e.addr).exists = false;
        break;
    }
    journal_.pop_back();
  }
}

TxWriteSet StateDb::ExtractWriteSet(const Address* fee_account) const {
  TxWriteSet ws;
  std::unordered_map<Address, bool, AddressHasher> seen_accounts;
  std::unordered_map<StateSlotKey, bool, StateSlotKeyHasher> seen_slots;
  // Reverts pop from the journal's tail, so the first surviving entry per key
  // is the first-ever write: its prev value is the pre-transaction value, and
  // the live caches hold the final value. Walk order fixes the write-set
  // order deterministically (first-write order).
  bool fee_touched = false;
  U256 fee_initial;
  for (const JournalEntry& e : journal_) {
    if (e.kind == JournalEntry::Kind::kStorage) {
      const StateSlotKey slot{e.addr, e.key};
      if (seen_slots.emplace(slot, true).second) {
        ws.slots.emplace_back(slot, storage_.at(e.addr).current.at(e.key));
      }
      continue;
    }
    if (fee_account != nullptr && e.addr == *fee_account) {
      // The fee account is commutative by contract: the only surviving writes
      // to it are balance credits (the executor falls back to serial when the
      // fee account itself transacts). Report the net credit, not the final
      // balance, so every transaction's fee applies independently of order.
      if (e.kind == JournalEntry::Kind::kBalance && !fee_touched) {
        fee_touched = true;
        fee_initial = e.prev_word;
      }
      continue;
    }
    if (seen_accounts.emplace(e.addr, true).second) {
      ws.accounts.emplace_back(e.addr, accounts_.at(e.addr));
    }
  }
  if (fee_touched) {
    ws.has_fee_delta = true;
    ws.fee_delta = accounts_.at(*fee_account).balance - fee_initial;
  }
  return ws;
}

void StateDb::ApplyWriteSet(const TxWriteSet& ws, const Address& fee_account) {
  for (const auto& [addr, account] : ws.accounts) {
    if (!Load(addr).exists) {
      CreateAccount(addr);
    }
    SetBalance(addr, account.balance);
    SetNonce(addr, account.nonce);
    if (Load(addr).code_hash != account.code_hash) {
      // The attempt Put the blob into the content-addressed store when it ran
      // SetCode, so the bytes are resolvable by hash here.
      auto blob = trie_->store()->Get(account.code_hash);
      SetCode(addr, blob.value_or(Bytes{}));
    }
  }
  for (const auto& [slot, value] : ws.slots) {
    SetStorage(slot.addr, slot.key, value);
  }
  if (ws.has_fee_delta) {
    AddBalance(fee_account, ws.fee_delta);
  }
}

Hash StateDb::Commit() {
  Hash state_root = root_.IsZero() ? Mpt::EmptyRoot() : root_;

  // Phase 1: collect one fold job per account with dirty storage. Load() runs
  // on the coordinator (the account cache and stats are not thread-safe); the
  // fold later only touches per-job state.
  // Map order decides only the job -> lane assignment, which feeds the
  // modeled (schedule-dependent, documented-variable) timing fields; roots
  // and counted stats are order-independent because the subtries are
  // disjoint and content-addressed.
  struct StorageJob {
    StorageCache* cache = nullptr;
    Account* account = nullptr;
    Hash new_root;
    KvStore::StagedWrites staged;
  };
  std::vector<StorageJob> jobs;
  // Dirty slots for the versioned store's forward delta (empty when no store
  // is attached).
  std::vector<std::pair<StateSlotKey, U256>> versioned_slots;
  for (auto& [addr, cache] : storage_) {  // frn:allow(unordered-iter)
    if (cache.current.empty()) {
      continue;
    }
    StorageJob job;
    job.cache = &cache;
    job.account = &Load(addr);
    jobs.push_back(std::move(job));
    if (versioned_ != nullptr) {
      // Forward delta for the versioned store — per-key entries, so the
      // collection order does not matter (distinct keys commute).
      for (const auto& [key, value] : cache.current) {  // frn:allow(unordered-iter)
        versioned_slots.emplace_back(StateSlotKey{addr, key}, value);
      }
    }
  }

  // Phase 2: fold + hash each account's storage subtrie. The subtries are
  // disjoint and content-addressed, so any schedule produces the same roots;
  // node blobs are staged per job (reads of a just-staged node are free, like
  // a just-written hot node on the serial path) and batch-applied below.
  //
  // Per-job cost is modeled as thread-CPU plus store latency, the same
  // scheduler-independent accounting the speculation pool uses: on executor
  // threads cold-read latency is deferred into the job's sink (and the
  // coordinator settles the slowest lane's total for real below), while the
  // inline path spins as before — a spin is thread CPU, so both modes measure
  // the same quantity.
  const size_t lanes = commit_pool_ != nullptr ? commit_pool_->workers() : 1;
  const bool defer_io = lanes > 1 && jobs.size() > 1;
  std::vector<double> job_cost(jobs.size(), 0.0);
  std::vector<double> job_io(jobs.size(), 0.0);
  auto fold = [&](size_t i) {
    StorageJob& job = jobs[i];
    double cpu_start = ThreadCpuSeconds();
    KvStoreStats io;
    {
      std::optional<KvStore::StatsScope> scope;
      if (defer_io) {
        scope.emplace(&io);
      }
      KvStore::StageScope stage(&job.staged);
      Hash storage_root = job.account->storage_root.IsZero()
                              ? Mpt::EmptyRoot()
                              : job.account->storage_root;
      // MPT roots are insertion-order independent (history-independent
      // structure), so any iteration order folds to the same subtrie root.
      // Reordering would perturb interior-node write *counts*, which is why
      // this site is frozen with a suppression rather than sorted.
      for (const auto& [key, value] : job.cache->current) {  // frn:allow(unordered-iter)
        Bytes encoded;
        if (!value.IsZero()) {
          encoded = RlpEncoder::EncodeUint(value);
        }
        storage_root = trie_->Put(storage_root, StorageKey(key), encoded);
      }
      job.new_root = storage_root;
    }
    job_io[i] = io.deferred_latency_seconds;
    job_cost[i] = (ThreadCpuSeconds() - cpu_start) + io.deferred_latency_seconds;
  };
  if (commit_pool_ != nullptr) {
    commit_pool_->Run(jobs.size(), fold);
  } else {
    for (size_t i = 0; i < jobs.size(); ++i) {
      fold(i);
    }
  }

  // Lane accounting mirrors CommitPool's static stripe (job i runs on worker
  // i % lanes), so the modeled wall is the cost of the slowest stripe. The
  // coordinator pays the slowest stripe's deferred store latency physically:
  // the critical path saves only the cross-lane overlap, never the I/O itself.
  if (!jobs.empty()) {
    double fold_serial = 0;
    double fold_io = 0;
    std::vector<double> lane_cost(lanes, 0.0);
    std::vector<double> lane_io(lanes, 0.0);
    for (size_t i = 0; i < jobs.size(); ++i) {
      fold_serial += job_cost[i];
      fold_io += job_io[i];
      lane_cost[i % lanes] += job_cost[i];
      lane_io[i % lanes] += job_io[i];
    }
    double fold_wall = *std::max_element(lane_cost.begin(), lane_cost.end());
    double settle_io = *std::max_element(lane_io.begin(), lane_io.end());
    if (defer_io && settle_io > 0) {
      SpinFor(std::chrono::nanoseconds(static_cast<int64_t>(settle_io * 1e9)));
    }
    commit_stats_.fold_jobs += jobs.size();
    commit_stats_.fold_serial_seconds += fold_serial;
    commit_stats_.fold_wall_seconds += fold_wall;
    commit_stats_.fold_io_seconds += fold_io;
    static Counter* fold_jobs = MetricsRegistry::Global().GetCounter("commit.fold_jobs");
    static SecondsCounter* fold_serial_counter =
        MetricsRegistry::Global().GetSeconds("commit.fold_serial_seconds");
    static SecondsCounter* fold_wall_counter =
        MetricsRegistry::Global().GetSeconds("commit.fold_wall_seconds");
    fold_jobs->Add(jobs.size());
    fold_serial_counter->Add(fold_serial);
    fold_wall_counter->Add(fold_wall);
  }
  ++commit_stats_.commits;

  // Phase 3: one batched write of every staged node blob (single exclusive
  // lock, deterministic job order), then fold results into the accounts.
  KvStore::StagedWrites batch;
  for (StorageJob& job : jobs) {
    for (auto& kv : job.staged.blobs) {
      auto [it, inserted] = batch.index.emplace(kv.first, batch.blobs.size());
      if (inserted) {
        batch.blobs.push_back(std::move(kv));
      } else {
        batch.blobs[it->second].second = std::move(kv.second);
      }
    }
    job.staged.blobs.clear();
    job.staged.index.clear();
  }
  trie_->store()->ApplyStaged(std::move(batch));
  // The loop below folds dirty slots into a per-key map (cache.committed):
  // distinct-key writes commute, so the result is identical in any order.
  for (auto& [addr, cache] : storage_) {  // frn:allow(unordered-iter)
    if (cache.current.empty()) {
      continue;
    }
    for (const auto& [key, value] : cache.current) {  // frn:allow(unordered-iter)
      cache.committed[key] = value;
    }
    cache.current.clear();
  }
  for (StorageJob& job : jobs) {
    job.account->storage_root = job.new_root;
    job.account->exists = true;
  }

  // Phase 4: fold the account trie serially — it is a single dependent chain
  // of Puts over one trie, and writing clean accounts is harmless (same
  // bytes -> same node hashes).
  std::vector<std::pair<Address, Account>> versioned_accounts;
  // Same argument as the storage fold: the account trie is
  // history-independent, so the chain of Puts reaches the same state_root in
  // any order, and versioned_accounts lands in the store's per-key map.
  for (auto& [addr, account] : accounts_) {  // frn:allow(unordered-iter)
    if (!account.exists) {
      continue;
    }
    state_root = trie_->Put(state_root, AccountKey(addr), EncodeAccount(account));
    if (versioned_ != nullptr) {
      versioned_accounts.emplace_back(addr, account);
    }
  }

  // Phase 5: publish this block's forward delta as a new version and re-pin
  // the view at it.
  if (versioned_ != nullptr) {
    view_ = versioned_->Commit(view_, state_root, std::move(versioned_accounts),
                               std::move(versioned_slots));
  }
  root_ = state_root;
  journal_.clear();
  return state_root;
}

Account StateDb::WalkAccount(const Address& addr) {
  Account account;
  if (auto blob = trie_->Prefetch(root_, AccountKey(addr))) {
    DecodeAccount(*blob, &account);
  }
  return account;
}

void StateDb::PrefetchAccount(const Address& addr) {
  Account account = WalkAccount(addr);
  if (!account.code_hash.IsZero()) {
    trie_->store()->Get(account.code_hash);  // heats the code blob
  }
}

void StateDb::PrefetchStorage(const Address& addr, const U256& key) {
  // Under a pinned view the storage root is an O(1) read; the prefetcher has
  // already walked the account path itself through PrefetchAccount.
  Account account;
  if (view_.valid()) {
    account = versioned_->GetAccount(view_, addr).value_or(Account{});
  } else {
    account = WalkAccount(addr);
  }
  if (account.exists && !account.storage_root.IsZero() &&
      account.storage_root != Mpt::EmptyRoot()) {
    trie_->Prefetch(account.storage_root, StorageKey(key));
  }
}

}  // namespace frn

#include "src/state/statedb.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <iterator>

#include "src/common/clock.h"
#include "src/common/worker_pool.h"
#include "src/crypto/keccak.h"
#include "src/obs/registry.h"
#include "src/rlp/rlp.h"
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
                 WorkerPool* commit_pool)
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
  const U256 nonce(a.nonce);
  const Hash storage_root = a.storage_root.IsZero() ? Mpt::EmptyRoot() : a.storage_root;
  // Sized first, so the list header and the four items go into one buffer.
  const size_t payload = RlpEncoder::UintSize(nonce) + RlpEncoder::UintSize(a.balance) +
                         RlpEncoder::StringSize(storage_root.bytes().data(), 32) +
                         RlpEncoder::StringSize(a.code_hash.bytes().data(), 32);
  Bytes out;
  out.reserve(RlpEncoder::HeaderSize(payload) + payload);
  RlpEncoder::AppendListHeader(&out, payload);
  RlpEncoder::AppendUint(&out, nonce);
  RlpEncoder::AppendUint(&out, a.balance);
  RlpEncoder::AppendString(&out, storage_root.bytes().data(), 32);
  RlpEncoder::AppendString(&out, a.code_hash.bytes().data(), 32);
  return out;
}

bool StateDb::DecodeAccount(const Bytes& data, Account* out) {
  RlpItem list;
  if (!RlpReader::Decode(data, &list) || !list.is_list) {
    return false;
  }
  RlpReader reader(list);
  RlpItem items[4];
  for (RlpItem& item : items) {
    if (!reader.Next(&item)) {
      return false;
    }
  }
  Account account;
  U256 nonce;
  if (!reader.AtEnd() || !RlpReader::ReadUint(items[0], 8, &nonce) ||
      !RlpReader::ReadUint(items[1], 32, &account.balance) ||
      !RlpReader::ReadHash(items[2], &account.storage_root) ||
      !RlpReader::ReadHash(items[3], &account.code_hash)) {
    return false;
  }
  account.nonce = nonce.AsUint64();
  account.exists = true;
  *out = account;
  return true;
}

namespace {

// Every writer emits canonical encodings and the strict decoder accepts
// exactly those, so a trie value that fails to decode is corrupted state (a
// replayed persist log, say). Read as an absent account or a zero slot, it
// would fork the root without a trace; abort in every build instead.
// `slot` is null for the account itself.
[[noreturn]] void AbortOnCorruptState(const Address& addr, const U256* slot, const Hash& root) {
  std::string what = "account " + addr.ToHex();
  if (slot != nullptr) {
    what = "slot " + slot->ToHex() + " of " + what;
  }
  std::fprintf(stderr, "StateDb: %s under state root %s fails to decode\n", what.c_str(),
               root.ToHex().c_str());
  std::abort();
}

}  // namespace

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
    if (blob && !DecodeAccount(*blob, &account)) {
      AbortOnCorruptState(addr, nullptr, root_);
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
      RlpItem item;
      if (blob && !(RlpReader::Decode(*blob, &item) && RlpReader::ReadUint(item, 32, &value))) {
        AbortOnCorruptState(addr, &key, root_);
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

Hash StateDb::FoldTrie(const Hash& root, const std::vector<TrieWrite>& batch,
                       KvStore::StagedWrites* nodes) {
  if (versioned_ != nullptr) {
    return trie_->Update(root, batch, nodes);
  }
  Hash folded = root;
  for (const auto& [key, value] : batch) {
    folded = trie_->Put(folded, key, value);
  }
  return folded;
}

Hash StateDb::Commit() {
  Hash state_root = root_.IsZero() ? Mpt::EmptyRoot() : root_;

  // Phase 1: collect one fold job per account with dirty storage. Load() runs
  // on the coordinator (the account cache and stats are not thread-safe); the
  // fold later only touches per-job state.
  // Map order decides only which worker folds which job, which feeds the
  // timing fields; roots and counted stats are order-independent because the
  // subtries are disjoint and content-addressed.
  struct StorageJob {
    StorageCache* cache = nullptr;
    Account* account = nullptr;
    Hash new_root;
    KvStore::StagedWrites nodes;
    double cpu_seconds = 0;  // the folding thread's CPU time, cold-read spins included
  };
  std::vector<StorageJob> jobs;
  // Dirty slots for the versioned store's forward delta (empty when no store
  // is attached).
  std::vector<std::pair<StateSlotKey, U256>> versioned_slots;
  for (auto& [addr, cache] : storage_) {  // frn:allow(determinism)
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
      for (const auto& [key, value] : cache.current) {  // frn:allow(determinism)
        versioned_slots.emplace_back(StateSlotKey{addr, key}, value);
      }
    }
  }

  // Phase 2: fold + hash each account's storage subtrie. The subtries are
  // disjoint and content-addressed, so any schedule produces the same roots;
  // a batched fold keeps its node blobs in its job until the apply below. A
  // fold spins its own cold reads, so the stopwatch around this phase is the
  // fold wall and a job's thread CPU is its whole cost.
  auto fold = [&](size_t i, size_t /*worker*/) {
    StorageJob& job = jobs[i];
    ThreadCpuTimer cpu;
    // MPT roots are insertion-order independent (history-independent
    // structure), so any batch order folds to the same subtrie root. On the
    // per-key path the order would perturb interior-node write *counts*,
    // which is why this site is frozen with a suppression rather than sorted.
    std::vector<TrieWrite> batch;
    batch.reserve(job.cache->current.size());
    for (const auto& [key, value] : job.cache->current) {  // frn:allow(determinism)
      batch.emplace_back(StorageKey(key), value.IsZero() ? Bytes{} : RlpEncoder::EncodeUint(value));
    }
    Hash storage_root =
        job.account->storage_root.IsZero() ? Mpt::EmptyRoot() : job.account->storage_root;
    job.new_root = FoldTrie(storage_root, batch, &job.nodes);
    job.cpu_seconds = cpu.ElapsedSeconds();
  };
  Stopwatch fold_watch;
  if (commit_pool_ != nullptr) {
    commit_pool_->Run(jobs.size(), fold);
  } else {
    for (size_t i = 0; i < jobs.size(); ++i) {
      fold(i, 0);
    }
  }
  const double fold_wall = fold_watch.ElapsedSeconds();
  if (!jobs.empty()) {
    double fold_serial = 0;
    for (const StorageJob& job : jobs) {
      fold_serial += job.cpu_seconds;
    }
    commit_stats_.fold_jobs += jobs.size();
    commit_stats_.fold_serial_seconds += fold_serial;
    commit_stats_.fold_wall_seconds += fold_wall;
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

  // The loop below folds dirty slots into a per-key map (cache.committed):
  // distinct-key writes commute, so the result is identical in any order.
  for (auto& [addr, cache] : storage_) {  // frn:allow(determinism)
    if (cache.current.empty()) {
      continue;
    }
    for (const auto& [key, value] : cache.current) {  // frn:allow(determinism)
      cache.committed[key] = value;
    }
    cache.current.clear();
  }
  KvStore::StagedWrites nodes;
  for (StorageJob& job : jobs) {
    job.account->storage_root = job.new_root;
    job.account->exists = true;
    std::move(job.nodes.begin(), job.nodes.end(), std::back_inserter(nodes));
  }

  // Phase 3: fold the account trie in one batch — writing a clean account
  // changes no node (same bytes -> same hashes).
  Stopwatch account_watch;
  std::vector<std::pair<Address, Account>> versioned_accounts;
  std::vector<TrieWrite> account_batch;
  // Same argument as the storage fold: the account trie is
  // history-independent, so the batch reaches the same state_root in any
  // order, and versioned_accounts lands in the store's per-key map.
  for (auto& [addr, account] : accounts_) {  // frn:allow(determinism)
    if (!account.exists) {
      continue;
    }
    account_batch.emplace_back(AccountKey(addr), EncodeAccount(account));
    if (versioned_ != nullptr) {
      versioned_accounts.emplace_back(addr, account);
    }
  }
  state_root = FoldTrie(state_root, account_batch, &nodes);
  const double account_fold = account_watch.ElapsedSeconds();
  commit_stats_.account_fold_seconds += account_fold;
  static SecondsCounter* account_fold_counter =
      MetricsRegistry::Global().GetSeconds("commit.account_fold_seconds");
  account_fold_counter->Add(account_fold);

  // Phase 4: one batched write of every folded node blob (a single exclusive
  // lock; storage folds in job order, then the account fold).
  trie_->store()->ApplyStaged(std::move(nodes));

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
  auto blob = trie_->Get(root_, AccountKey(addr));
  if (blob && !DecodeAccount(*blob, &account)) {
    AbortOnCorruptState(addr, nullptr, root_);
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
    trie_->Get(account.storage_root, StorageKey(key));
  }
}

}  // namespace frn

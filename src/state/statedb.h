// Journaled world-state database over the Merkle-Patricia trie, mirroring
// Geth's StateDB: account/storage value caches in front of the trie, a journal
// with snapshot/revert for nested call frames, and a Commit step that folds
// dirty values into the tries and produces the post-state root used for the
// paper's Merkle-root correctness validation (§5.2). Committed reads are
// served O(1) by the multi-version snapshot store (versioned_state.h) when
// one is attached — every Node view is — and the trie only authenticates.
// Store-less instances (tests, examples, micro-benches) read the trie
// directly; that path is the reference the identity tests replay against.
#ifndef SRC_STATE_STATEDB_H_
#define SRC_STATE_STATEDB_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "src/common/sync.h"
#include "src/evm/world_state.h"
#include "src/trie/trie.h"

namespace frn {

struct Account {
  U256 balance;
  uint64_t nonce = 0;
  Hash storage_root;  // zero => empty trie
  Hash code_hash;     // zero => no code
  bool exists = false;
};

// Composite key for one storage slot in the versioned snapshot maps and the
// per-transaction write sets.
struct StateSlotKey {
  Address addr;
  U256 key;
  bool operator==(const StateSlotKey& o) const {
    return addr == o.addr && key == o.key;
  }
};

// 64-bit hash_combine over (address hash, slot-key hash). The finalizer is
// splitmix64's: both inputs are full-width mixed, so keys that differ only in
// their high bytes (Solidity left-aligns short byte arrays/strings in the
// high bytes of a slot) still spread across the low bucket bits — the old
// `addr_hash * 1000003u ^ key_hash` combine propagated carries upward only
// and clustered such keys into a handful of buckets.
struct StateSlotKeyHasher {
  static uint64_t Mix64(uint64_t x) {
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebULL;
    x ^= x >> 31;
    return x;
  }
  size_t operator()(const StateSlotKey& k) const {
    uint64_t h = Mix64(AddressHasher{}(k.addr));
    h = Mix64(h ^ (k.key.HashValue() + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2)));
    return static_cast<size_t>(h);
  }
};

struct StateDbStats {
  uint64_t account_trie_reads = 0;
  uint64_t storage_trie_reads = 0;
  // Always 0: no shared value cache exists any more. Kept because external
  // benchmark drivers still read the field.
  uint64_t shared_cache_hits = 0;
  uint64_t versioned_hits = 0;    // reads answered by the versioned snapshot store
  uint64_t versioned_misses = 0;  // store attached but not retaining this root
  uint64_t snapshots = 0;         // call-frame snapshots taken
  uint64_t reverts = 0;           // RevertToSnapshot calls
  uint64_t entries_reverted = 0;  // journal entries undone by reverts

  StateDbStats& operator+=(const StateDbStats& o) {
    account_trie_reads += o.account_trie_reads;
    storage_trie_reads += o.storage_trie_reads;
    versioned_hits += o.versioned_hits;
    versioned_misses += o.versioned_misses;
    snapshots += o.snapshots;
    reverts += o.reverts;
    entries_reverted += o.entries_reverted;
    return *this;
  }
};

// Cost accounting for the commit's trie folds, accumulated per StateDb
// instance across its Commit() calls. The walls are stopwatches around the
// storage-fold phase and around the account fold; the serial figure sums each
// storage job's thread CPU time, which includes the cold-read latency the
// folding thread spun.
struct CommitStats {
  uint64_t commits = 0;
  uint64_t fold_jobs = 0;           // storage-subtrie fold jobs dispatched
  double fold_serial_seconds = 0;   // sum of per-job thread CPU
  double fold_wall_seconds = 0;     // measured storage-fold wall, summed over commits
  double account_fold_seconds = 0;  // measured account-fold wall, summed over commits
};

struct StateVersion;
class VersionedState;
class WorkerPool;

// Release-notification rendezvous between SnapshotHandle and the
// VersionedState that issued it: the store owns one hook for its whole
// lifetime (nulling the back-pointer in its destructor), handles carry a
// shared_ptr copy. Releasing a pinned handle can then safely poke the store —
// to retry deferred base folds — even when the handle outlives the store.
struct VersionedReleaseHook {
  Mutex mutex;
  VersionedState* store FRN_GUARDED_BY(mutex) = nullptr;
};

// Consulted by StateDb ahead of its snapshot/trie read path: the
// in-block multi-version write buffer of the optimistic parallel block
// executor (src/state/block_stm.h). Returning nullopt falls through to the
// pre-block state; implementations record the read either way so it can be
// validated against lower-indexed writers at commit time.
class StateOverlay {
 public:
  virtual ~StateOverlay() = default;
  virtual std::optional<Account> OverlayAccount(const Address& addr) = 0;
  virtual std::optional<U256> OverlayStorage(const Address& addr, const U256& key) = 0;
  // Called on every *observable* balance read (GetBalance: the BALANCE /
  // SELFBALANCE opcodes, wrapper validity checks, SubBalance sufficiency
  // checks) — but not on the read half of AddBalance's read-modify-write,
  // whose net effect is extracted as a commutative delta. BlockStmView uses
  // this to detect a mid-block read of the fee-account balance, which the
  // commutative-fee exemption would otherwise answer with a silently stale
  // pre-block value (see block_stm.h).
  virtual void OnBalanceRead(const Address& addr) {}
};

// One transaction's effects extracted from a completed attempt's journal:
// final values in first-write order, deduplicated. The fee account (block
// coinbase) is carried as a commutative balance delta instead of a final
// value — every transaction credits it, so treating it as an ordinary write
// would serialize the whole block (see block_stm.h).
struct TxWriteSet {
  std::vector<std::pair<Address, Account>> accounts;
  std::vector<std::pair<StateSlotKey, U256>> slots;
  U256 fee_delta;
  bool has_fee_delta = false;
};

// A pinned, immutable view of the world state at one committed version of the
// multi-version store (versioned_state.h). The handle IS the pin: it shares
// ownership of the version node, so a pinned version — and the delta chain it
// reads through — survives head advances, rollbacks, and retention pruning
// until the last handle is released. Copying re-pins; releasing is dropping
// the copy. Handles are cheap (one shared_ptr) and may be used from any
// thread, but an individual handle object is not synchronized: share by copy,
// not by reference.
class SnapshotHandle {
 public:
  SnapshotHandle() = default;
  // Dropping (or overwriting, or Release()-ing) a pinned handle notifies the
  // issuing store through its release hook so deferred base folds retry
  // immediately — releasing the last pin on an idle chain must not leave
  // deferred versions resident until some future commit. All five members are
  // defined out of line in statedb.cc (versioned_state.h cannot be included
  // here).
  SnapshotHandle(const SnapshotHandle& o);
  SnapshotHandle& operator=(const SnapshotHandle& o);
  SnapshotHandle(SnapshotHandle&& o) noexcept;
  SnapshotHandle& operator=(SnapshotHandle&& o) noexcept;
  ~SnapshotHandle();

  bool valid() const { return version_ != nullptr; }
  // Root/height of the pinned version, captured under the store's lock at
  // acquisition time (zero / 0 for an invalid handle).
  const Hash& root() const { return root_; }
  uint64_t height() const { return height_; }
  void Release();

 private:
  friend class VersionedState;
  SnapshotHandle(std::shared_ptr<StateVersion> version, const Hash& root, uint64_t height,
                 std::shared_ptr<VersionedReleaseHook> hook = nullptr)
      : version_(std::move(version)), root_(root), height_(height), hook_(std::move(hook)) {}

  // Unpins the version and, if this handle carried a release hook, pokes the
  // store (never under the store's lock: hooked handles are only handed out
  // of lock scope).
  void NotifyRelease();

  std::shared_ptr<StateVersion> version_;
  Hash root_;
  uint64_t height_ = 0;
  std::shared_ptr<VersionedReleaseHook> hook_;
};

// The production WorldState: the execution layers (evm/core/contracts) call
// through the abstract interface; everything state-specific — commit,
// prefetch, write-set extraction, the overlay hook — stays on the concrete
// class and is only reachable from layers above state in the include DAG.
class StateDb : public WorldState {
 public:
  // Opens the world state at `root`. `versioned` and `commit_pool` may each
  // be null. When `versioned` retains a version for `root`, the constructor
  // pins it and account/committed-slot reads are answered O(1) through the
  // handle (authoritatively: a miss under a valid handle means definitive
  // absence) — the trie is never walked to read; Commit publishes the block's
  // delta as a new version. `commit_pool` runs Commit's independent
  // storage-subtrie folds in parallel; roots are bit-identical either way.
  StateDb(Mpt* trie, const Hash& root, VersionedState* versioned = nullptr,
          WorkerPool* commit_pool = nullptr);

  // ---- Account access (WorldState) ----
  bool Exists(const Address& addr) override;
  void CreateAccount(const Address& addr) override;
  // An observable balance read: when an overlay is attached, it is notified
  // (BlockStmView uses this to detect mid-block reads of the fee account's
  // balance, which the commutative-fee exemption cannot serve correctly).
  // Internal read-modify-write paths (AddBalance) do not route through here.
  U256 GetBalance(const Address& addr) override;
  void SetBalance(const Address& addr, const U256& value) override;
  void AddBalance(const Address& addr, const U256& value) override;
  // Returns false on insufficient balance (no change applied). The
  // sufficiency check is an observable read (the branch depends on it).
  bool SubBalance(const Address& addr, const U256& value) override;
  uint64_t GetNonce(const Address& addr) override;
  void SetNonce(const Address& addr, uint64_t nonce) override;
  Bytes GetCode(const Address& addr) override;
  Hash GetCodeHash(const Address& addr) override;
  void SetCode(const Address& addr, const Bytes& code) override;

  // ---- Storage access (WorldState) ----
  U256 GetStorage(const Address& addr, const U256& key) override;
  void SetStorage(const Address& addr, const U256& key, const U256& value) override;
  // The committed (pre-transaction) value, used by the SSTORE gas rules.
  U256 GetCommittedStorage(const Address& addr, const U256& key) override;

  // ---- Journal (WorldState) ----
  // Returns a snapshot id; RevertToSnapshot undoes everything after it.
  int Snapshot() override;
  void RevertToSnapshot(int id) override;

  // ---- Optimistic in-block overlay (src/state/block_stm.h) ----
  // Attach an overlay consulted ahead of the snapshot/trie read path.
  // Overlay hits seed this instance's own caches exactly where a serial
  // predecessor's writes would sit (account cache / storage `current`), so
  // gas rules (committed vs current storage) behave identically to serial
  // execution. Must be set before the first read; never on a chain-head db.
  void set_overlay(StateOverlay* overlay) { overlay_ = overlay; }

  // Extracts the journal's net effects as final values (first-write order,
  // deduplicated). `fee_account`, when non-null, is excluded from the account
  // list and reported as a commutative balance delta instead.
  TxWriteSet ExtractWriteSet(const Address* fee_account) const;

  // Replays an extracted write set through the normal journaled setters, so
  // applying the per-tx write sets of an optimistic parallel schedule in
  // transaction order leaves this db's dirty set — and therefore its commit
  // root — bit-identical to having executed the block serially.
  void ApplyWriteSet(const TxWriteSet& ws, const Address& fee_account);

  // ---- Commit ----
  // Folds all dirty values into the tries; returns the new state root.
  // The StateDb remains usable and now reads through the new root. With a
  // versioned store attached, each trie takes one batched Mpt::Update and
  // every new node blob lands in the KvStore in one ApplyStaged; store-less
  // instances fold key by key with Mpt::Put, the reference path.
  Hash Commit();

  // ---- Prefetch (off the critical path) ----
  // Walks the account's (and the slot's) trie path and heats the account's
  // code blob, so the Merkle commit that re-hashes those paths finds every
  // node hot. Caches no values and never changes logical state.
  void PrefetchAccount(const Address& addr);
  void PrefetchStorage(const Address& addr, const U256& key);

  // The account's RLP list [nonce, balance, storage root, code hash].
  static Bytes EncodeAccount(const Account& a);
  // Inverse of EncodeAccount; false, leaving *out as it was, unless `data`
  // is a canonical list of four strings: integers without leading zeros (a
  // nonce of at most 8 bytes) and 32-byte hashes.
  static bool DecodeAccount(const Bytes& data, Account* out);

  const Hash& root() const { return root_; }
  Mpt* trie() { return trie_; }
  // The snapshot handle this instance reads through (invalid when no
  // versioned store is attached or the root was not retained).
  const SnapshotHandle& view() const { return view_; }
  const StateDbStats& stats() const { return stats_; }
  const CommitStats& commit_stats() const { return commit_stats_; }

 private:
  struct JournalEntry {
    enum class Kind { kBalance, kNonce, kStorage, kCode, kCreate } kind;
    Address addr;
    U256 key;        // storage only
    U256 prev_word;  // balance / storage
    uint64_t prev_nonce = 0;
    Hash prev_code_hash;
    bool prev_exists = false;
  };
  // Loads (and caches) the account object, reading through the overlay, the
  // pinned snapshot, and the trie, in that order.
  Account& Load(const Address& addr);
  static Bytes AccountKey(const Address& addr);
  static Bytes StorageKey(const U256& key);

  // Walks (warming) the account's trie path and decodes what it finds.
  Account WalkAccount(const Address& addr);
  // Folds one trie's batch (see Commit): Mpt::Update, whose node blobs are
  // appended to `*nodes`, when a versioned store is attached; otherwise one
  // Mpt::Put per write, straight into the store.
  Hash FoldTrie(const Hash& root, const std::vector<TrieWrite>& batch,
                KvStore::StagedWrites* nodes);

  Mpt* trie_;
  Hash root_;
  VersionedState* versioned_;
  WorkerPool* commit_pool_;
  StateOverlay* overlay_ = nullptr;
  SnapshotHandle view_;

  std::unordered_map<Address, Account, AddressHasher> accounts_;
  // Per-account storage caches: committed values and current (dirty) values.
  struct StorageCache {
    std::unordered_map<U256, U256, U256Hasher> committed;
    std::unordered_map<U256, U256, U256Hasher> current;
  };
  std::unordered_map<Address, StorageCache, AddressHasher> storage_;
  std::unordered_map<Hash, Bytes, HashHasher> code_cache_;
  std::vector<JournalEntry> journal_;
  StateDbStats stats_;
  CommitStats commit_stats_;
};

}  // namespace frn

#endif  // SRC_STATE_STATEDB_H_

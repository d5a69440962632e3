// The state prefetcher (paper §4.4): walks the trie paths of everything a
// pre-execution read so the disk I/O, node decoding and key-value lookups are
// paid off the critical path. Committed reads are served by the versioned
// store, so what the prefetch saves is the Merkle commit's: the account and
// storage trie paths the commit re-hashes, and the code blobs, land in the
// KvStore hot set. No values are cached.
#ifndef SRC_FORERUNNER_PREFETCHER_H_
#define SRC_FORERUNNER_PREFETCHER_H_

#include "src/core/linear_ir.h"
#include "src/state/statedb.h"

namespace frn {

class Prefetcher {
 public:
  // `versioned` may be null. When it retains a version at the prefetch root,
  // storage roots come O(1) from the pinned handle instead of a second walk
  // down the account path.
  explicit Prefetcher(Mpt* trie, VersionedState* versioned = nullptr)
      : trie_(trie), versioned_(versioned) {}

  // Warms every location in `reads` for the state at `root`.
  void Prefetch(const Hash& root, const ReadSet& reads) {
    StateDb db(trie_, root, versioned_);
    for (const Address& account : reads.accounts) {
      db.PrefetchAccount(account);
    }
    for (const auto& [addr, key] : reads.storage_keys) {
      db.PrefetchStorage(addr, key);
    }
  }

 private:
  Mpt* trie_;
  VersionedState* versioned_ = nullptr;
};

}  // namespace frn

#endif  // SRC_FORERUNNER_PREFETCHER_H_

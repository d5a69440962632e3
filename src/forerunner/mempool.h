// The transaction mempool (paper Fig. 3, dissemination layer): per-sender
// nonce-ordered queues with replacement-by-fee and a configurable capacity
// with deterministic eviction. At the default options (unbounded capacity)
// the pool admits and retires transactions exactly like the pre-decomposition
// flat vector, so every counted statistic of a default node is unchanged.
//
// Threading: the mempool is owned by the node and only ever touched from the
// node's coordinator thread (OnHeard / pipeline / block execution); it needs
// no internal synchronization.
#ifndef SRC_FORERUNNER_MEMPOOL_H_
#define SRC_FORERUNNER_MEMPOOL_H_

#include <cstdint>
#include <map>
#include <unordered_map>
#include <vector>

#include "src/common/types.h"
#include "src/evm/context.h"

namespace frn {

// A transaction waiting in the pool, stamped with when dissemination first
// delivered it.
struct PendingTx {
  Transaction tx;
  double heard_at = 0;
};

// Read-only iteration surface the predictor consumes instead of a raw vector.
// Entries come out in arrival order; the packing simulation imposes its own
// total order (gas price desc, id asc), so predictor output is independent of
// this iteration order.
class MempoolView {
 public:
  explicit MempoolView(const std::vector<PendingTx>* entries) : entries_(entries) {}

  std::vector<PendingTx>::const_iterator begin() const { return entries_->begin(); }
  std::vector<PendingTx>::const_iterator end() const { return entries_->end(); }
  size_t size() const { return entries_->size(); }
  bool empty() const { return entries_->empty(); }

 private:
  const std::vector<PendingTx>* entries_;
};

// A same-(sender, nonce) replacement must raise the gas price by at least
// this percentage over the resident transaction to displace it.
inline constexpr uint64_t kReplaceFeeBumpPct = 10;

struct MempoolOptions {
  // Maximum resident transactions; 0 = unbounded (the pre-decomposition
  // behaviour, and the default for every bench and scenario).
  size_t capacity = 0;
};

struct MempoolStats {
  size_t size = 0;
  size_t max_size_seen = 0;
  uint64_t heard = 0;         // accepted adds (including replacements)
  uint64_t duplicates = 0;    // same-id re-announcements ignored
  uint64_t replacements = 0;  // replacement-by-fee displacements
  uint64_t underpriced = 0;   // replacement attempts below the fee bump
  uint64_t evictions = 0;     // capacity-pressure drops
  uint64_t reinserted = 0;    // reorg orphans re-admitted
  uint64_t retired = 0;       // removed because a block included them
};

class Mempool {
 public:
  enum class AddOutcome {
    kAdded,        // admitted into a free (sender, nonce) slot
    kReplaced,     // displaced the resident transaction in its slot
    kDuplicate,    // id already resident (or the slot holds another id, for Reinsert)
    kUnderpriced,  // slot occupied and the fee bump was not met
    kEvicted,      // admitted, then immediately lost the capacity fight
  };
  struct AddResult {
    AddOutcome outcome = AddOutcome::kAdded;
    uint64_t replaced_id = 0;           // valid when outcome == kReplaced
    std::vector<uint64_t> evicted_ids;  // capacity victims of this call
    bool accepted() const {
      return outcome == AddOutcome::kAdded || outcome == AddOutcome::kReplaced;
    }
  };

  explicit Mempool(const MempoolOptions& options) : options_(options) {}

  // Admission from dissemination. Duplicate ids are ignored; an occupied
  // (sender, nonce) slot applies the replacement-by-fee rule; capacity
  // pressure evicts deterministically (see EnforceCapacity).
  AddResult Add(const Transaction& tx, double heard_at);

  // Re-admission of a reorg orphan: bypasses the fee-bump rule but never
  // displaces a resident transaction, and is idempotent by id.
  AddResult Reinsert(const Transaction& tx, double heard_at);

  // Removes an included transaction. Returns whether it was resident and, if
  // so, fills *heard_at_out with its dissemination stamp. Retirement is the
  // path that also erases the heard-time bookkeeping, so the pool's auxiliary
  // maps shrink back to zero once traffic drains (no per-tx residue).
  bool Retire(uint64_t tx_id, double* heard_at_out);

  bool Contains(uint64_t tx_id) const { return heard_.contains(tx_id); }
  MempoolView View() const { return MempoolView(&entries_); }
  size_t size() const { return entries_.size(); }
  MempoolStats stats() const;

 private:
  // Inserts into both indexes; the caller has verified the slot is free.
  void Insert(const Transaction& tx, double heard_at);
  // Removes `tx_id` from the arrival list and both indexes.
  void Remove(uint64_t tx_id);
  // While over capacity: the lowest-gas-price entry (ties: highest id — the
  // later arrival loses) names the victim sender, and that sender's
  // highest-nonce pending transaction is dropped so no nonce gap opens
  // mid-queue. Fully deterministic: no clock, no randomness.
  void EnforceCapacity(std::vector<uint64_t>* evicted);

  MempoolOptions options_;
  std::vector<PendingTx> entries_;  // arrival order (the predictor's view)
  std::unordered_map<uint64_t, double> heard_;  // id -> heard_at, residents only
  // sender -> (nonce -> tx id), the per-sender nonce-ordered queues.
  std::unordered_map<Address, std::map<uint64_t, uint64_t>, AddressHasher> by_sender_;

  size_t max_size_seen_ = 0;
  uint64_t heard_count_ = 0;
  uint64_t duplicates_ = 0;
  uint64_t replacements_ = 0;
  uint64_t underpriced_ = 0;
  uint64_t evictions_ = 0;
  uint64_t reinserted_ = 0;
  uint64_t retired_ = 0;
};

}  // namespace frn

#endif  // SRC_FORERUNNER_MEMPOOL_H_

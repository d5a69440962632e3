// The speculation lifecycle manager (paper Fig. 3, the off-critical-path
// column's bookkeeping): owns every TxSpeculation from first prediction to
// retirement. It decides which predicted transactions need (re-)speculation
// for the current head root, merges worker-pool results in submission order
// (reproducing the pre-decomposition stat streams bit for bit), serves the
// critical path's constraint-check lookups, and retires entries when a block
// commits. The cache has one policy: each entry belongs to one pending
// transaction, is valid for the one head root it was built at, and is erased
// when the pool lets the transaction go (Retire on inclusion, Drop on
// replacement or eviction), so the pool's capacity also bounds the cache.
//
// Threading: owned by the node's coordinator thread. Worker threads only ever
// see the TxSpeculation *copies* carried inside SpecJobs; entries here are
// never shared across threads.
#ifndef SRC_FORERUNNER_SPEC_MANAGER_H_
#define SRC_FORERUNNER_SPEC_MANAGER_H_

#include <functional>
#include <unordered_map>
#include <vector>

#include "src/forerunner/predictor.h"
#include "src/forerunner/spec_pool.h"

namespace frn {

struct SpecCacheStats {
  size_t entries = 0;
  size_t max_entries_seen = 0;
  uint64_t retired = 0;     // erased because a block included the tx
  uint64_t root_skips = 0;  // total "already speculated at this root" skips
  uint64_t dropped = 0;     // erased for replaced/evicted pool transactions
};

// Per-executed-transaction speculation summary (§5.5: futures pre-executed,
// distinct AP paths, shortcuts).
struct SpecSummary {
  uint64_t tx_id = 0;
  size_t futures = 0;
  size_t paths = 0;
  size_t shortcut_nodes = 0;
  size_t memo_entries = 0;
  size_t instr_nodes = 0;

  bool operator==(const SpecSummary&) const = default;
};

class SpeculationManager {
 public:
  // Builds one SpecJob per prediction that still needs speculation at
  // `head_root` (skipping transactions already speculated at that root),
  // carrying a copy of the accumulated speculation state. Each returned
  // job's entry stays resident until the matching MergeResults call.
  std::vector<SpecJob> BuildJobs(const std::vector<TxPrediction>& predictions,
                                 const Hash& head_root, size_t futures_cap);

  // Merges batch results on the coordinator in submission (= prediction)
  // order; the stat streams and AP contents come out identical for any
  // worker count. `prefetch` is invoked with each merged union read set at
  // the same point in the loop the pre-decomposition node prefetched from.
  void MergeResults(std::vector<SpecJobResult>* results, double sim_time,
                    double time_scale,
                    const std::function<void(const ReadSet&)>& prefetch);

  void AddWallSeconds(double seconds) { total_wall_seconds_ += seconds; }

  // Critical path: the speculation for `tx_id` if one is ready by `sim_time`.
  // One map find, so the measured region costs exactly what the
  // pre-decomposition lookup did.
  const TxSpeculation* Lookup(uint64_t tx_id, double sim_time) const;

  // Retirement on commit: records the §5.5 summary and erases the entry. A
  // reorg that returns the transaction to the pool re-speculates it.
  void Retire(uint64_t tx_id);

  // Discard without a summary: the pool replaced or evicted the transaction.
  void Drop(uint64_t tx_id);

  // Aggregate off-critical-path accounting (§5.6), moved verbatim from Node.
  double total_speculation_seconds() const { return total_speculation_seconds_; }
  double total_speculation_wall_seconds() const { return total_wall_seconds_; }
  double total_speculated_exec_seconds() const { return total_speculated_exec_seconds_; }
  uint64_t futures_speculated() const { return futures_speculated_; }
  uint64_t synthesis_failures() const { return synthesis_failures_; }
  const std::vector<SynthesisStats>& synthesis_stats() const { return synthesis_stats_; }
  const std::vector<ApStats>& ap_stats() const { return ap_stats_; }
  const std::vector<SpecSummary>& executed_speculations() const {
    return executed_speculations_;
  }

  SpecCacheStats stats() const;

 private:
  struct Entry {
    TxSpeculation spec;
    Hash root;  // the head root the entry was last speculated against
  };

  std::unordered_map<uint64_t, Entry> entries_;

  double total_speculation_seconds_ = 0;
  double total_wall_seconds_ = 0;
  double total_speculated_exec_seconds_ = 0;
  uint64_t futures_speculated_ = 0;
  uint64_t synthesis_failures_ = 0;
  std::vector<SynthesisStats> synthesis_stats_;
  std::vector<ApStats> ap_stats_;
  std::vector<SpecSummary> executed_speculations_;

  size_t max_entries_seen_ = 0;
  uint64_t retired_ = 0;
  uint64_t root_skips_ = 0;
  uint64_t dropped_ = 0;
};

}  // namespace frn

#endif  // SRC_FORERUNNER_SPEC_MANAGER_H_

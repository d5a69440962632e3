// The speculator (paper Fig. 3): pre-executes a transaction in predicted
// future contexts on a scratch view of the chain state, synthesizes an AP per
// trace, and merges them. It also retains, per future, the concrete observed
// context and write set needed by the traditional perfect-match strategies
// that Table 2 compares against.
#ifndef SRC_FORERUNNER_SPECULATOR_H_
#define SRC_FORERUNNER_SPECULATOR_H_

#include <string>
#include <vector>

#include "src/core/ap.h"
#include "src/core/trace_builder.h"
#include "src/common/clock.h"
#include "src/state/statedb.h"

namespace frn {

// One predicted future: the block header the transaction lands under and the
// inter-dependent transactions ordered before it (paper Fig. 5 "Tx order").
struct FutureContext {
  BlockContext header;
  std::vector<Transaction> predecessors;
};

// A context read observed during pre-execution, with concrete arguments.
struct ObservedRead {
  SOp op;
  std::vector<U256> args;
  U256 value;
};

// The classic speculation record: if every observed read re-reads the same
// value in the actual context, the precomputed effects can be committed as-is.
struct FutureRecord {
  std::vector<ObservedRead> reads;
  std::vector<std::tuple<Address, U256, U256>> storage_writes;
  struct Xfer {
    Address from;
    Address to;
    U256 amount;
  };
  std::vector<Xfer> transfers;
  ExecResult result;
};

// Accumulated speculation state for one pending transaction.
struct TxSpeculation {
  uint64_t tx_id = 0;
  Ap ap;
  bool has_ap = false;
  ReadSet read_set;                  // union over futures (drives the prefetcher)
  std::vector<FutureRecord> records;  // one per distinct future pre-executed
  size_t futures = 0;
  size_t merge_failures = 0;
  SynthesisStats last_stats;         // Figure 15 accounting (per-path)
  double synthesis_seconds = 0;      // off-critical-path cost (speculate+synthesize)
  double plain_exec_seconds = 0;     // plain execution portion (for the §5.6 ratio)
  double available_at = 0;           // sim time when the AP is usable
};

// The speculator holds no mutable state of its own: all accumulation happens
// in the caller-owned TxSpeculation, and the trie/store underneath is safe
// for concurrent readers. Every worker of the parallel speculation engine
// therefore shares one instance against the same head snapshot.
class VersionedState;

class Speculator {
 public:
  struct Options {
    ApOptions ap;
  };

  // `versioned` (may be null) serves the scratch views' pinned-snapshot reads
  // O(1); the speculator only ever reads it (scratch state is never
  // committed).
  Speculator(Mpt* trie, const Options& options, VersionedState* versioned = nullptr)
      : trie_(trie), options_(options), versioned_(versioned) {}
  explicit Speculator(Mpt* trie) : Speculator(trie, Options{}) {}

  // Pre-executes `tx` under `future` starting from chain state `root`, and
  // folds the resulting AP / record / read set into `spec`. Returns false if
  // AP synthesis bailed (the record and read set may still have been added).
  bool SpeculateFuture(const Hash& root, const Transaction& tx, const FutureContext& future,
                       TxSpeculation* spec) const;

 private:
  Mpt* trie_;
  Options options_;
  VersionedState* versioned_ = nullptr;
};

}  // namespace frn

#endif  // SRC_FORERUNNER_SPECULATOR_H_

// Optimistic intra-block parallel executor (Block-STM style): runs a block's
// transactions concurrently against the pre-block snapshot plus an in-block
// multi-version write buffer (src/state/block_stm.h), then commits them in
// transaction order after validating each attempt's reads against its
// lower-indexed writers — re-executing conflicted transactions until the
// whole block converges. The caller merges the final write sets into the
// chain StateDb in transaction order (StateDb::ApplyWriteSet), so commit
// roots are bit-identical to serial execution at any worker count.
//
// Round structure (round-based prefix commit, a simplification of Block-STM's
// per-tx scheduler that keeps conflict counts deterministic):
//   1. Execute every not-yet-committed, not-kept transaction in parallel
//      against the frozen write buffer (the committed prefix).
//   2. On the coordinator, validate attempts in ascending order; extend the
//      committed prefix while validation succeeds, publishing each committed
//      write set before validating the next transaction (so an attempt that
//      read a key its immediate predecessor just wrote fails here, exactly
//      like a serial-order check). Attempts that fail re-execute next round;
//      attempts that validate but sit above a failure are kept and cheaply
//      re-validated next round.
// The lowest uncommitted transaction always commits within two rounds (its
// re-execution runs against a buffer its validation then sees unchanged), so
// the block converges in at most 2n rounds; the executor falls back to
// serial — ExecuteBlock returns false — if a safety bound is ever hit, or
// when the fee account itself sends a transaction (the commutative-fee
// exemption would be unsound; see block_stm.h).
//
// Cost model: the host may have fewer cores than requested workers, so —
// like the SpecPool and the commit pool — `workers` is the number of modeled
// lanes: per round, attempts stripe over lanes in order and the modeled wall
// is the slowest lane's sum of per-attempt costs (thread CPU plus deferred
// cold-read store latency). Physical threads are capped at hardware
// concurrency and affect only real wall time, never results or modeled cost.
#ifndef SRC_FORERUNNER_PARALLEL_EXEC_H_
#define SRC_FORERUNNER_PARALLEL_EXEC_H_

#include <cstdint>
#include <vector>

#include "src/forerunner/accelerator.h"
#include "src/forerunner/speculator.h"
#include "src/state/block_stm.h"
#include "src/state/statedb.h"

namespace frn {

struct ParallelExecOptions {
  // Modeled execution lanes. 1 is never constructed by the node (it runs the
  // bit-for-bit serial loop instead); the executor itself accepts it.
  size_t workers = 2;
  // Physical thread cap. 0 = min(workers, hardware concurrency). Tests force
  // >1 to exercise real cross-thread interleavings under TSan.
  size_t physical_threads = 0;
  // Safety bound on rounds; 0 derives 2*txs+4 (see file comment).
  size_t max_rounds = 0;
};

// Per-transaction result of a converged block: the final attempt's outcome
// (identical to what serial execution reports) and its extracted write set,
// ready for in-order ApplyWriteSet merging.
struct ParallelTxResult {
  AccelOutcome outcome;
  TxWriteSet writes;
  size_t attempts = 0;          // executions of this tx (1 = no conflict)
  double last_cost_seconds = 0; // modeled cost of the committed attempt
};

struct ParallelBlockStats {
  size_t rounds = 0;
  uint64_t executions = 0;           // attempts across all rounds
  uint64_t reexecutions = 0;         // executions beyond each tx's first
  uint64_t validation_failures = 0;  // failed read validations
  uint64_t conflicts = 0;            // distinct txs that ever failed validation
  double exec_serial_seconds = 0;    // modeled: sum of all attempt costs
  double exec_wall_seconds = 0;      // modeled: per round, slowest lane; summed
  double exec_real_seconds = 0;      // physical wall inside the execute phases
  double validate_seconds = 0;       // coordinator validation passes (physical)
  bool fallback_serial = false;      // true when ExecuteBlock returned false
};

class ParallelBlockExecutor {
 public:
  // `versioned` may be null; attempts read the pre-block snapshot through it
  // when attached, exactly like the serial path.
  ParallelBlockExecutor(Mpt* trie, VersionedState* versioned,
                        const ParallelExecOptions& options);

  // Executes `txs` optimistically against the state at `root`. `specs` is
  // aligned with `txs` (null entries = no speculation); AP fast-path hits
  // feed the optimistic first attempts directly. Returns false — with
  // stats->fallback_serial set and `results` unspecified — when the block
  // must run serially instead (fee-account sender, or round bound hit).
  bool ExecuteBlock(const Hash& root, const BlockContext& header,
                    const std::vector<Transaction>& txs,
                    const std::vector<const TxSpeculation*>& specs,
                    ExecStrategy strategy, std::vector<ParallelTxResult>* results,
                    ParallelBlockStats* stats);

  size_t workers() const { return options_.workers; }

 private:
  struct Attempt;

  void RunAttempt(const Hash& root, const BlockContext& header, const Transaction& tx,
                  const TxSpeculation* spec, ExecStrategy strategy, const MvMemory& mv,
                  size_t tx_index, Attempt* attempt);

  Mpt* trie_;
  VersionedState* versioned_;
  ParallelExecOptions options_;
  size_t physical_;
};

}  // namespace frn

#endif  // SRC_FORERUNNER_PARALLEL_EXEC_H_

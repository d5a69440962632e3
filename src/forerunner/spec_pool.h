// The parallel speculation engine (paper §4, "free" speculation on idle
// cores): a WorkerPool of `workers` threads fans pending-pool futures out,
// each worker pre-executing against a read-only snapshot of the head state.
// The coordinator submits one job per predicted transaction, blocks until the
// batch drains, and merges results back in submission order, so every derived
// statistic is identical for any worker count.
//
// Job j runs on worker j % workers. A job's cost is its thread's CPU time,
// including any cold-read latency the worker spun, and the batch's CPU wall
// is the max over workers of their summed job costs — what the batch costs
// when every worker has a core of its own. The stopwatch wall of the batch is
// reported next to it.
#ifndef SRC_FORERUNNER_SPEC_POOL_H_
#define SRC_FORERUNNER_SPEC_POOL_H_

#include <vector>

#include "src/common/worker_pool.h"
#include "src/forerunner/speculator.h"

namespace frn {

// Per-worker accounting for the parallel speculation engine (§5.6): how much
// pre-execution each worker performed and how long its jobs waited behind
// earlier jobs of the same worker within a batch.
struct SpecWorkerStats {
  uint64_t jobs = 0;              // transactions pre-executed by this worker
  uint64_t futures = 0;           // futures pre-executed by this worker
  double busy_seconds = 0;        // summed job thread CPU
  double queue_wait_seconds = 0;  // sum over jobs of their start offset in the batch
};

// Element-wise sum over workers.
SpecWorkerStats SumSpecWorkerStats(const std::vector<SpecWorkerStats>& workers);

// Load imbalance: busiest worker's busy time over the mean busy time (1.0 is
// perfectly balanced; only workers that executed at least one job count).
double SpecWorkerImbalance(const std::vector<SpecWorkerStats>& workers);

// One unit of work: pre-execute every predicted future of one pending
// transaction against the immutable snapshot `root`, starting from the
// transaction's accumulated speculation state (copied in by the coordinator,
// so workers never touch shared mutable speculation state).
struct SpecJob {
  Hash root;
  Transaction tx;
  std::vector<FutureContext> futures;
  TxSpeculation spec;
};

// Per-future synthesis outcome in future order; the coordinator replays these
// to reproduce the exact serial ordering of the §5.5 / Figure 15 stat streams.
struct SpecFutureOutcome {
  bool synthesized = false;
  SynthesisStats stats;
};

struct SpecJobResult {
  TxSpeculation spec;
  std::vector<SpecFutureOutcome> outcomes;
  // The executing thread's CPU time for this job (cold-read spins included).
  double exec_seconds = 0;
  // Start offset of the job on its worker: the summed exec_seconds of the
  // jobs ordered before it on the same worker within the batch.
  double queue_seconds = 0;
  size_t worker = 0;  // job index % workers, deterministic
};

class SpecPool {
 public:
  // `workers` >= 1 threads; one runs every job inline on the coordinator in
  // submission order. `versioned` (may be null) lets each worker's scratch
  // state views read retained roots O(1) through pinned snapshot handles;
  // workers never write to it.
  SpecPool(Mpt* trie, const Speculator::Options& options, size_t workers,
           VersionedState* versioned = nullptr);

  size_t workers() const { return pool_.threads(); }

  // Executes the batch, blocking until every job finished. Results come back
  // in job order; worker attribution (job index % workers) and hence all
  // per-worker accounting is deterministic for a given worker count.
  std::vector<SpecJobResult> RunBatch(std::vector<SpecJob> jobs);

  // CPU wall of the last batch: max over workers of the job costs they ran
  // (== the serial sum when workers == 1).
  double last_batch_wall_seconds() const { return last_batch_wall_seconds_; }
  // Stopwatch wall of every batch so far, summed.
  double measured_wall_seconds() const { return measured_wall_seconds_; }

  // Cumulative per-worker accounting across all batches.
  const std::vector<SpecWorkerStats>& worker_stats() const { return worker_stats_; }

 private:
  // Executes one job into its result slot, measuring its thread CPU.
  void ExecuteJob(SpecJob& job, SpecJobResult& result, size_t worker) const;

  // Stateless (SpeculateFuture is const), so every worker shares it.
  const Speculator speculator_;
  WorkerPool pool_;

  // Coordinator-only (written between batches, no worker ever touches them).
  double last_batch_wall_seconds_ = 0;
  double measured_wall_seconds_ = 0;
  std::vector<SpecWorkerStats> worker_stats_;
};

}  // namespace frn

#endif  // SRC_FORERUNNER_SPEC_POOL_H_

// A full node with Forerunner integrated (paper Fig. 3), decomposed into
// three owned subsystems with the Node as a thin orchestrator:
//   - Mempool (dissemination): per-sender nonce-ordered queues with
//     replacement-by-fee and bounded capacity (src/forerunner/mempool.h);
//   - SpeculationManager (prediction/speculation): the full TxSpeculation
//     lifecycle — build, merge, lookup, retire, reorg restoration
//     (src/forerunner/spec_manager.h);
//   - ChainManager (execution/consensus): chain head, StateDb lifecycle and
//     multi-depth reorg undo window (src/forerunner/chain_manager.h).
// All subsystem options default to the pre-decomposition behaviour, so a
// default-configured node produces bit-identical state roots and counted
// statistics to the monolithic implementation. A node configured with
// ExecStrategy::kBaseline is the unmodified reference node.
#ifndef SRC_FORERUNNER_NODE_H_
#define SRC_FORERUNNER_NODE_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/dice/block.h"
#include "src/forerunner/accelerator.h"
#include "src/forerunner/chain_manager.h"
#include "src/forerunner/mempool.h"
#include "src/forerunner/parallel_exec.h"
#include "src/forerunner/predictor.h"
#include "src/forerunner/prefetcher.h"
#include "src/forerunner/spec_manager.h"
#include "src/forerunner/spec_pool.h"
#include "src/obs/json.h"

namespace frn {

// Per-transaction critical-path measurement.
struct TxExecRecord {
  uint64_t tx_id = 0;
  double seconds = 0;        // wall-clock time on the critical path
  bool on_fork = false;      // executed in a block that lost its fork race
  bool heard = false;        // heard during dissemination before execution
  bool speculated = false;   // an AP/record was available in time
  bool accelerated = false;  // constraint set satisfied / record matched
  bool perfect = false;      // prediction outcome (Table 3)
  uint64_t gas_used = 0;
  ExecStatus status = ExecStatus::kSuccess;
  size_t instrs_executed = 0;
  size_t instrs_skipped = 0;
};

struct BlockExecReport {
  Hash state_root;
  std::vector<TxExecRecord> txs;
  double total_seconds = 0;
};

// Every node reads committed state through its versioned snapshot store
// (src/state/versioned_state.h): O(1) pinned-view reads for the critical
// path, the speculation workers, the prefetcher and parallel attempts, with
// handle-swap reorgs to any height inside chain.max_reorg_depth. The trie
// only authenticates roots.
struct StateOptions {
  // Optional durability (borrowed; must outlive the node): wired into the
  // KvStore as its append-only segment log, plus per-block head markers so a
  // restarted run recovers at the same head root (forerunner_sim
  // --persist-dir).
  PersistLog* persist = nullptr;
};

struct NodeOptions {
  ExecStrategy strategy = ExecStrategy::kForerunner;
  KvStore::Options store;
  PredictorOptions predictor;
  Speculator::Options speculator;
  StateOptions state;
  // Subsystem knobs; every default reproduces the pre-decomposition node
  // exactly (unbounded pool, latest-root-only speculation, nothing retained
  // across reorgs, and a 4-deep undo window whose extra depth is pure
  // history — a single rollback behaves identically).
  MempoolOptions mempool;
  ChainManagerOptions chain;
  SpecManagerOptions spec;
  // Ablation switch: skip the explicit prefetch pass (speculative execution
  // itself still warms whatever it touches).
  bool enable_prefetch = true;
  // Speculation wall time is charged to simulated time scaled by this factor
  // (an AP is only usable if ready before the block executes).
  double speculation_time_scale = 1.0;
  // Speculation worker threads. 0 = hardware concurrency; 1 runs the pipeline
  // inline on the coordinator in the exact pre-pool operation order. Any
  // count produces identical state roots, AP/constraint contents and counted
  // statistics: jobs are merged in prediction order and all RNG stays on the
  // coordinator. Timing-derived quantities (speculation seconds, and with
  // speculation_time_scale > 0 therefore AP availability and acceleration
  // outcomes) are measurements and vary run to run at any worker count;
  // set speculation_time_scale = 0 for exact cross-count reproducibility.
  size_t spec_workers = 0;
  uint64_t rng_seed = 0xF03E;
};

class Node {
 public:
  // `genesis` populates the world state deterministically.
  Node(const NodeOptions& options, const std::function<void(StateDb*)>& genesis);

  // ---- Dissemination (off the critical path) ----
  void OnHeard(const Transaction& tx, double sim_time);

  // Runs the prediction + speculation + prefetch pipeline over the pending
  // pool; called by the emulator whenever off-critical-path time is available.
  void RunSpeculationPipeline(double sim_time);

  // ---- Execution (the critical path) ----
  BlockExecReport ExecuteBlock(const Block& block, double sim_time);

  // Undoes the most recent ExecuteBlock: the chain head returns to the
  // previous root and the orphaned block's transactions re-enter the pending
  // pool. Call repeatedly for deeper reorgs, up to
  // NodeOptions::chain.max_reorg_depth blocks of retained undo history.
  void RollbackHead();

  const Hash& head_root() const { return chain_.head_root(); }
  const BlockContext& head() const { return chain_.head(); }
  uint64_t pool_size() const { return static_cast<uint64_t>(mempool_.size()); }

  // Subsystem introspection (pool pressure, speculation cache, reorg window).
  MempoolStats mempool_stats() const { return mempool_.stats(); }
  SpecCacheStats spec_cache_stats() const { return spec_.stats(); }
  // Critical-path StateDb read attribution (versioned hits vs trie walks).
  StateDbStats chain_state_stats() const { return chain_.cumulative_state_stats(); }
  VersionedStateStats versioned_stats() const { return versioned_.stats(); }
  // Whether the live head view reads through a pinned snapshot handle.
  bool view_active() const { return chain_.view_active(); }
  const ChainManager& chain() const { return chain_; }
  size_t reorg_window() const { return chain_.reorg_window(); }
  bool CanRollback() const { return chain_.CanRollback(); }

  // Aggregate off-critical-path accounting (§5.6).
  // CPU cost: serial sum over all jobs of thread CPU time plus deferred
  // cold-read latency — the store-miss stalls the single-threaded pipeline
  // used to spin through are included via the model, not a wall clock.
  double total_speculation_seconds() const { return spec_.total_speculation_seconds(); }
  // Modeled wall cost: per pipeline round, the max over workers of their busy
  // time (== the CPU sum at 1 worker). This is what the speculation phase
  // costs in wall-clock when idle cores absorb the fan-out.
  double total_speculation_wall_seconds() const {
    return spec_.total_speculation_wall_seconds();
  }
  double total_speculated_exec_seconds() const {
    return spec_.total_speculated_exec_seconds();
  }
  uint64_t futures_speculated() const { return spec_.futures_speculated(); }
  uint64_t synthesis_failures() const { return spec_.synthesis_failures(); }
  // Last-synthesis stats stream for Figure 15 / §5.5 aggregation.
  const std::vector<SynthesisStats>& synthesis_stats() const {
    return spec_.synthesis_stats();
  }
  const std::vector<ApStats>& ap_stats() const { return spec_.ap_stats(); }

  // Per-executed-transaction speculation summary (§5.5), kept under its
  // historical nested name for existing call sites.
  using SpecSummary = ::frn::SpecSummary;
  const std::vector<SpecSummary>& executed_speculations() const {
    return spec_.executed_speculations();
  }

  // Optimistic intra-block parallel executor introspection
  // (chain.block_workers > 1; null executor == bit-for-bit serial blocks).
  size_t block_workers() const { return options_.chain.block_workers; }
  bool parallel_exec_enabled() const { return parallel_exec_ != nullptr; }
  // Cumulative across all executed blocks (rounds, conflicts, re-executions,
  // modeled wall); fallback_serial is true if any block fell back.
  const ParallelBlockStats& parallel_stats() const { return parallel_totals_; }
  uint64_t parallel_fallbacks() const { return parallel_fallbacks_; }

  // Parallel speculation engine introspection.
  size_t spec_workers() const { return spec_pool_.workers(); }
  const std::vector<SpecWorkerStats>& spec_worker_stats() const {
    return spec_pool_.worker_stats();
  }

  // Machine-readable aggregate view: this node's accounting (speculation
  // cost, per-worker attribution, store counters, subsystem occupancy) plus a
  // snapshot of the process-wide metrics registry — the --stats-out payload.
  JsonValue StatsJson() const;
  bool WriteStatsJson(const std::string& path) const;

 private:
  // Parallel block attempt: executes the block's transactions through the
  // optimistic executor and merges the converged write sets in transaction
  // order. Returns false (leaving `report` untouched) when the executor fell
  // back — the caller then runs the serial loop. `wall_adjust` receives the
  // modeled-minus-real execution wall so report.total_seconds charges the
  // block at its modeled lane cost (the SpecPool accounting convention).
  bool ExecuteTxsParallel(const Block& block, double sim_time,
                          BlockExecReport* report, double* wall_adjust);

  NodeOptions options_;
  KvStore store_;
  Mpt trie_;
  // The only source of committed reads: shared (read-side) by the chain
  // manager's state views, the speculation workers, the prefetcher and the
  // parallel executor's attempts.
  VersionedState versioned_;
  Rng rng_;

  MultiFuturePredictor predictor_;
  SpecPool spec_pool_;
  Prefetcher prefetcher_;
  // Null when chain.block_workers <= 1 (serial blocks, the default).
  std::unique_ptr<ParallelBlockExecutor> parallel_exec_;
  ParallelBlockStats parallel_totals_;
  uint64_t parallel_fallbacks_ = 0;

  Mempool mempool_;
  SpeculationManager spec_;
  ChainManager chain_;
};

}  // namespace frn

#endif  // SRC_FORERUNNER_NODE_H_

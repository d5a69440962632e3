#include "src/forerunner/node.h"

#include <thread>

#include "src/obs/registry.h"
#include "src/obs/trace.h"
#include "src/trie/persist.h"

namespace frn {

namespace {

size_t ResolveSpecWorkers(const NodeOptions& options) {
  if (options.strategy == ExecStrategy::kBaseline) {
    return 1;  // the pool is never used; don't spawn idle threads
  }
  if (options.spec_workers != 0) {
    return options.spec_workers;
  }
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<size_t>(hw);
}

// Seed of the predictor's sampled sub-orderings (the only RNG a node draws).
constexpr uint64_t kPredictorSeed = 0xF03E;

}  // namespace

Node::Node(const NodeOptions& options, const std::function<void(StateDb*)>& genesis)
    : options_(options),
      store_(options.store),
      trie_(&store_),
      // The store must retain as many versions as the undo window is deep, or
      // a rollback inside the window would fall off coverage.
      versioned_(options.chain.max_reorg_depth),
      rng_(kPredictorSeed),
      predictor_(options.predictor),
      spec_pool_(&trie_, options.speculator, ResolveSpecWorkers(options), &versioned_),
      prefetcher_(&trie_, &versioned_),
      parallel_exec_(options.chain.block_workers > 1
                         ? std::make_unique<ParallelBlockExecutor>(
                               &trie_, &versioned_, options.chain.block_workers)
                         : nullptr),
      mempool_(options.mempool),
      chain_(&trie_, &versioned_, options.chain) {
  // The genesis commit publishes the first version above the store's empty
  // base: empty maps are complete for the empty trie, so version coverage is
  // authoritative from block 0 on.
  StateDb genesis_state(&trie_, Mpt::EmptyRoot(), &versioned_);
  genesis(&genesis_state);
  Hash genesis_root = genesis_state.Commit();
  chain_.SetGenesis(genesis_root);
  if (options_.store.persist != nullptr) {
    options_.store.persist->AppendHead(genesis_root, 0);
  }
}

void Node::OnHeard(const Transaction& tx, double sim_time) {
  Mempool::AddResult added = mempool_.Add(tx, sim_time);
  // Any transaction the pool displaced takes its speculation state with it.
  if (added.replaced_id != 0) {
    spec_.Drop(added.replaced_id);
  }
  for (uint64_t evicted : added.evicted_ids) {
    spec_.Drop(evicted);
  }
  if (!added.accepted()) {
    return;
  }
  static Counter* heard = MetricsRegistry::Global().GetCounter("mempool.heard");
  heard->Add();
  TraceCollector* collector = &TraceCollector::Global();
  if (collector->enabled() && collector->SampleTx(tx.id)) {
    EmitInstant(collector, "mempool", "tx.heard",
                {TraceArg::U64("tx", tx.id), TraceArg::F64("sim_time", sim_time)});
  }
}

void Node::RunSpeculationPipeline(double sim_time) {
  if (options_.strategy == ExecStrategy::kBaseline) {
    return;
  }
  static Counter* rounds = MetricsRegistry::Global().GetCounter("predict.rounds");
  static Counter* predicted_txs = MetricsRegistry::Global().GetCounter("predict.txs");
  static Counter* predicted_futures = MetricsRegistry::Global().GetCounter("predict.futures");
  static SecondsCounter* predict_wall =
      MetricsRegistry::Global().GetSeconds("predict.wall_seconds");
  TraceCollector* collector = &TraceCollector::Global();
  TraceSpan predict_span(collector, "predict", "round.predict", predict_wall);
  std::vector<TxPrediction> predictions = predictor_.PredictNextBlock(
      mempool_.View(), chain_.head(), chain_.chain_nonces(),
      chain_.head().gas_limit, &rng_);
  predict_span.AddArg(TraceArg::U64("txs", predictions.size()));
  predict_span.Finish();
  rounds->Add();
  predicted_txs->Add(predictions.size());
  for (const TxPrediction& prediction : predictions) {
    predicted_futures->Add(prediction.futures.size());
  }
  size_t futures_cap =
      (options_.strategy == ExecStrategy::kPerfectMatch) ? 1 : SIZE_MAX;
  // Fan the fresh predictions out across the worker pool. Each job carries a
  // copy of the transaction's accumulated speculation state; each tx appears
  // at most once per round, so jobs are mutually independent and execute
  // against the same immutable head snapshot.
  std::vector<SpecJob> jobs =
      spec_.BuildJobs(predictions, chain_.head_root(), futures_cap);
  if (jobs.empty()) {
    return;
  }
  static SecondsCounter* round_wall =
      MetricsRegistry::Global().GetSeconds("spec.round_wall_seconds");
  TraceSpan speculate_span(collector, "spec", "round.speculate", round_wall);
  speculate_span.AddArg(TraceArg::U64("jobs", jobs.size()));
  std::vector<SpecJobResult> results = spec_pool_.RunBatch(std::move(jobs));
  spec_.AddWallSeconds(spec_pool_.last_batch_wall_seconds());
  speculate_span.AddArg(TraceArg::F64("cpu_wall_s", spec_pool_.last_batch_wall_seconds()));
  // Merge on the coordinator in submission (= prediction) order, prefetching
  // each merged union read set for the current head.
  spec_.MergeResults(&results, sim_time, options_.speculation_time_scale,
                     [this](const ReadSet& read_set) {
                       if (options_.enable_prefetch) {
                         prefetcher_.Prefetch(chain_.head_root(), read_set);
                       }
                     });
}

void Node::RecordTx(const Transaction& tx, bool speculated, double seconds,
                    const AccelOutcome& outcome, BlockExecReport* report) {
  static Counter* txs_counter = MetricsRegistry::Global().GetCounter("exec.txs");
  static Counter* txs_speculated = MetricsRegistry::Global().GetCounter("exec.txs_speculated");
  static Counter* exec_gas = MetricsRegistry::Global().GetCounter("exec.gas");
  static SecondsCounter* cp_seconds = MetricsRegistry::Global().GetSeconds("exec.cp_seconds");
  static ExpHistogram* tx_seconds_hist =
      MetricsRegistry::Global().GetHistogram("exec.tx_seconds");
  TxExecRecord record;
  record.tx_id = tx.id;
  record.heard = mempool_.Contains(tx.id);
  record.speculated = speculated;
  record.seconds = seconds;
  record.accelerated = outcome.accelerated;
  record.perfect = outcome.perfect;
  record.gas_used = outcome.result.gas_used;
  record.status = outcome.result.status;
  record.instrs_executed = outcome.instrs_executed;
  record.instrs_skipped = outcome.instrs_skipped;
  txs_counter->Add();
  if (record.speculated) {
    txs_speculated->Add();
  }
  exec_gas->Add(record.gas_used);
  cp_seconds->Add(record.seconds);
  tx_seconds_hist->Record(record.seconds);
  report->txs.push_back(record);
  chain_.AdvanceNonce(tx, record.status);
}

bool Node::ExecuteTxsParallel(const Block& block, double sim_time, BlockExecReport* report) {
  std::vector<const TxSpeculation*> specs(block.txs.size(), nullptr);
  if (options_.strategy != ExecStrategy::kBaseline) {
    for (size_t i = 0; i < block.txs.size(); ++i) {
      // Same lookup the serial loop performs per tx; AP fast-path hits feed
      // the optimistic first attempts directly.
      specs[i] = spec_.Lookup(block.txs[i].id, sim_time);
    }
  }
  std::vector<ParallelTxResult> results;
  ParallelBlockStats stats;
  const bool converged =
      parallel_exec_->ExecuteBlock(chain_.head_root(), block.header, block.txs, specs,
                                   options_.strategy, &results, &stats);
  parallel_totals_.rounds += stats.rounds;
  parallel_totals_.executions += stats.executions;
  parallel_totals_.reexecutions += stats.reexecutions;
  parallel_totals_.validation_failures += stats.validation_failures;
  parallel_totals_.conflicts += stats.conflicts;
  parallel_totals_.exec_serial_seconds += stats.exec_serial_seconds;
  parallel_totals_.exec_wall_seconds += stats.exec_wall_seconds;
  parallel_totals_.exec_real_seconds += stats.exec_real_seconds;
  parallel_totals_.validate_seconds += stats.validate_seconds;
  parallel_totals_.fallback_serial |= stats.fallback_serial;
  if (!converged) {
    return false;
  }

  // Merge: replay the converged write sets through the chain state's normal
  // journaled setters in transaction order — the dirty set the commit then
  // folds is bit-identical to the serial loop's.
  StateDb* state = chain_.state();
  for (size_t i = 0; i < block.txs.size(); ++i) {
    state->ApplyWriteSet(results[i].writes, block.header.coinbase);
    // Per-tx cost is the committed attempt's thread CPU (cold-read spins
    // included), where the serial loop reports a per-tx stopwatch.
    RecordTx(block.txs[i], specs[i] != nullptr, results[i].last_cost_seconds,
             results[i].outcome, report);
  }
  return true;
}

BlockExecReport Node::ExecuteBlock(const Block& block, double sim_time) {
  // Snapshot the pre-block state into the chain manager's undo window.
  chain_.BeginBlock(block, sim_time);

  static Counter* blocks = MetricsRegistry::Global().GetCounter("exec.blocks");
  static SecondsCounter* tx_wall = MetricsRegistry::Global().GetSeconds("exec.tx_wall_seconds");
  static SecondsCounter* block_wall =
      MetricsRegistry::Global().GetSeconds("exec.block_wall_seconds");
  static SecondsCounter* commit_wall =
      MetricsRegistry::Global().GetSeconds("exec.commit_wall_seconds");
  TraceCollector* collector = &TraceCollector::Global();

  BlockExecReport report;
  report.txs.reserve(block.txs.size());
  TraceSpan block_span(collector, "block", "block.exec", block_wall);
  Stopwatch block_watch;
  // Optimistic parallel path (chain.block_workers > 1): converged blocks are
  // merged write-set-by-write-set in transaction order, so everything below
  // the execution loop — commit and head advance — is shared with the
  // serial path and roots stay bit-identical. A fallback (fee-account sender,
  // round bound) drops to the serial loop.
  bool executed = false;
  if (parallel_exec_ != nullptr && !block.txs.empty()) {
    executed = ExecuteTxsParallel(block, sim_time, &report);
    if (!executed) {
      ++parallel_fallbacks_;
    }
  }
  const std::vector<Transaction> no_txs;
  for (const Transaction& tx : executed ? no_txs : block.txs) {
    const TxSpeculation* spec = nullptr;
    if (options_.strategy != ExecStrategy::kBaseline) {
      spec = spec_.Lookup(tx.id, sim_time);
    }
    // The span is constructed before — and its args attached after — the
    // measured region, so trace emission cost stays out of the tx's seconds.
    TraceSpan tx_span(collector, "exec", "tx.exec", tx_wall,
                      collector->enabled() && collector->SampleTx(tx.id));
    Stopwatch tx_watch;
    AccelOutcome outcome =
        Accelerator::Execute(chain_.state(), block.header, tx, spec, options_.strategy);
    const double seconds = tx_watch.ElapsedSeconds();
    tx_span.AddArg(TraceArg::U64("tx", tx.id));
    tx_span.AddArg(TraceArg::U64("speculated", spec != nullptr ? 1 : 0));
    tx_span.AddArg(TraceArg::U64("accelerated", outcome.accelerated ? 1 : 0));
    tx_span.AddArg(TraceArg::U64("perfect", outcome.perfect ? 1 : 0));
    tx_span.AddArg(TraceArg::U64("gas", outcome.result.gas_used));
    tx_span.AddArg(TraceArg::F64("cp_s", seconds));
    tx_span.Finish();
    RecordTx(tx, spec != nullptr, seconds, outcome, &report);
  }
  {
    TraceSpan commit_span(collector, "block", "block.commit", commit_wall);
    report.state_root = chain_.CommitState();
  }
  report.total_seconds = block_watch.ElapsedSeconds();
  blocks->Add();
  block_span.AddArg(TraceArg::U64("number", block.header.number));
  block_span.AddArg(TraceArg::U64("txs", block.txs.size()));
  block_span.AddArg(TraceArg::F64("cp_s", report.total_seconds));
  block_span.Finish();

  // Chain bookkeeping (off the measured path).
  chain_.AdvanceHead(block.header, report.state_root);
  if (options_.store.persist != nullptr) {
    options_.store.persist->AppendHead(report.state_root, block.header.number);
  }
  // Retire executed transactions from the pool and their speculation state
  // (keeping a summary for the §5.5 statistics); what a rollback would need
  // to re-admit the pooled ones is parked in the undo record.
  for (const Transaction& tx : block.txs) {
    double heard_time = 0;
    if (mempool_.Retire(tx.id, &heard_time)) {
      chain_.AttachOrphan(OrphanedTx{tx, heard_time});
    }
    spec_.Retire(tx.id);
  }
  return report;
}

void Node::RollbackHead() {
  if (!chain_.CanRollback()) {
    return;
  }
  std::vector<OrphanedTx> orphans = chain_.RollbackHead();
  if (options_.store.persist != nullptr) {
    // Re-mark the restored head so a crash right after the rollback recovers
    // at the rolled-back root, not the orphaned one.
    options_.store.persist->AppendHead(chain_.head_root(), chain_.head().number);
  }
  EmitInstant(&TraceCollector::Global(), "block", "chain.rollback",
              {TraceArg::U64("to_block", chain_.head().number)});
  // Orphaned transactions return to the pending pool and will be
  // re-speculated against the restored head.
  for (const OrphanedTx& orphan : orphans) {
    Mempool::AddResult readded = mempool_.Reinsert(orphan.tx, orphan.heard_at);
    for (uint64_t evicted : readded.evicted_ids) {
      spec_.Drop(evicted);
    }
  }
}

JsonValue Node::StatsJson() const {
  JsonValue node = JsonValue::Object();
  node.Set("strategy", StrategyName(options_.strategy));
  node.Set("spec_workers", static_cast<uint64_t>(spec_pool_.workers()));
  node.Set("pool_size", pool_size());
  node.Set("head_block", chain_.head().number);
  node.Set("speculation_seconds", spec_.total_speculation_seconds());
  node.Set("speculation_wall_seconds", spec_.total_speculation_wall_seconds());
  node.Set("speculated_exec_seconds", spec_.total_speculated_exec_seconds());
  node.Set("futures_speculated", spec_.futures_speculated());
  node.Set("synthesis_failures", spec_.synthesis_failures());

  KvStoreStats store = store_.stats();
  JsonValue store_json = JsonValue::Object();
  store_json.Set("reads", store.reads);
  store_json.Set("cold_reads", store.cold_reads);
  store_json.Set("writes", store.writes);
  store_json.Set("stall_seconds", store.stall_seconds);
  node.Set("store", std::move(store_json));

  JsonValue workers = JsonValue::Array();
  for (const SpecWorkerStats& w : spec_pool_.worker_stats()) {
    JsonValue wj = JsonValue::Object();
    wj.Set("jobs", w.jobs);
    wj.Set("futures", w.futures);
    wj.Set("busy_seconds", w.busy_seconds);
    wj.Set("queue_wait_seconds", w.queue_wait_seconds);
    workers.Append(std::move(wj));
  }
  node.Set("spec_worker_stats", std::move(workers));

  MempoolStats pool = mempool_.stats();
  JsonValue pool_json = JsonValue::Object();
  pool_json.Set("size", static_cast<uint64_t>(pool.size));
  pool_json.Set("max_size_seen", static_cast<uint64_t>(pool.max_size_seen));
  pool_json.Set("heard", pool.heard);
  pool_json.Set("duplicates", pool.duplicates);
  pool_json.Set("replacements", pool.replacements);
  pool_json.Set("underpriced", pool.underpriced);
  pool_json.Set("evictions", pool.evictions);
  pool_json.Set("reinserted", pool.reinserted);
  pool_json.Set("retired", pool.retired);
  node.Set("mempool", std::move(pool_json));

  SpecCacheStats cache = spec_.stats();
  JsonValue cache_json = JsonValue::Object();
  cache_json.Set("entries", static_cast<uint64_t>(cache.entries));
  cache_json.Set("max_entries_seen", static_cast<uint64_t>(cache.max_entries_seen));
  cache_json.Set("retired", cache.retired);
  cache_json.Set("root_skips", cache.root_skips);
  cache_json.Set("dropped", cache.dropped);
  node.Set("spec_cache", std::move(cache_json));

  JsonValue chain_json = JsonValue::Object();
  chain_json.Set("reorg_window", static_cast<uint64_t>(chain_.reorg_window()));
  chain_json.Set("max_reorg_depth", static_cast<uint64_t>(chain_.max_reorg_depth()));
  chain_json.Set("commit_workers", static_cast<uint64_t>(chain_.commit_workers()));
  chain_json.Set("block_workers", static_cast<uint64_t>(options_.chain.block_workers));
  chain_json.Set("rollbacks", chain_.rollbacks());
  StateDbStats state = chain_state_stats();
  chain_json.Set("account_trie_reads", state.account_trie_reads);
  chain_json.Set("storage_trie_reads", state.storage_trie_reads);
  chain_json.Set("versioned_hits", state.versioned_hits);
  chain_json.Set("versioned_misses", state.versioned_misses);
  node.Set("chain", std::move(chain_json));

  JsonValue state_json = JsonValue::Object();
  state_json.Set("view_active", view_active());
  VersionedStateStats vs = versioned_.stats();
  state_json.Set("commits", vs.commits);
  state_json.Set("invalidations", vs.invalidations);
  state_json.Set("folds", vs.folds);
  state_json.Set("fold_deferrals", vs.fold_deferrals);
  state_json.Set("handle_acquires", vs.handle_acquires);
  state_json.Set("acquire_misses", vs.acquire_misses);
  state_json.Set("retained", static_cast<uint64_t>(vs.retained));
  state_json.Set("depth", static_cast<uint64_t>(vs.depth));
  state_json.Set("accounts", static_cast<uint64_t>(vs.accounts));
  state_json.Set("slots", static_cast<uint64_t>(vs.slots));
  node.Set("state", std::move(state_json));

  if (parallel_exec_ != nullptr) {
    JsonValue par = JsonValue::Object();
    par.Set("rounds", static_cast<uint64_t>(parallel_totals_.rounds));
    par.Set("executions", parallel_totals_.executions);
    par.Set("reexecutions", parallel_totals_.reexecutions);
    par.Set("validation_failures", parallel_totals_.validation_failures);
    par.Set("conflicts", parallel_totals_.conflicts);
    par.Set("exec_serial_seconds", parallel_totals_.exec_serial_seconds);
    par.Set("exec_wall_seconds", parallel_totals_.exec_wall_seconds);
    par.Set("validate_seconds", parallel_totals_.validate_seconds);
    par.Set("fallbacks", parallel_fallbacks_);
    node.Set("exec_parallel", std::move(par));
  }

  JsonValue doc = JsonValue::Object();
  doc.Set("node", std::move(node));
  doc.Set("metrics", MetricsRegistry::Global().Snapshot().ToJson());
  return doc;
}

bool Node::WriteStatsJson(const std::string& path) const {
  return WriteJsonFile(path, StatsJson());
}

}  // namespace frn

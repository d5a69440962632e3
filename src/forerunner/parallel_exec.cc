#include "src/forerunner/parallel_exec.h"

#include <algorithm>

#include "src/common/clock.h"
#include "src/obs/registry.h"
#include "src/obs/trace.h"
#include "src/state/versioned_state.h"

namespace frn {

// One transaction's latest execution attempt. Distinct attempts are touched
// by at most one thread per round (disjoint indices), and the round barrier
// (WorkerPool::Run returning) publishes them to the coordinator's validation
// pass, so the struct carries no lock.
struct ParallelBlockExecutor::Attempt {
  std::vector<BlockStmReadDesc> reads;
  TxWriteSet writes;
  AccelOutcome outcome;
  double cost_seconds = 0;  // thread CPU, cold-read spins included
  size_t attempts = 0;
  bool failed_once = false;  // already counted toward stats.conflicts
  // The attempt observed the fee-account balance (BALANCE on the coinbase, a
  // transfer out of it, ...): the commutative-fee exemption served a possibly
  // stale pre-block value, so the block must fall back to serial execution.
  bool fee_balance_observed = false;
};

ParallelBlockExecutor::ParallelBlockExecutor(Mpt* trie, VersionedState* versioned,
                                             size_t workers)
    : trie_(trie), versioned_(versioned), pool_(workers) {}

void ParallelBlockExecutor::RunAttempt(const Hash& root, const BlockContext& header,
                                       const Transaction& tx, const TxSpeculation* spec,
                                       ExecStrategy strategy, const MvMemory& mv,
                                       size_t tx_index, Attempt* attempt) {
  ThreadCpuTimer cpu;
  StateDb attempt_db(trie_, root, versioned_);
  BlockStmView view(&mv, tx_index, header.coinbase);
  attempt_db.set_overlay(&view);
  attempt->outcome = Accelerator::Execute(&attempt_db, header, tx, spec, strategy);
  attempt->writes = attempt_db.ExtractWriteSet(&header.coinbase);
  attempt->reads = view.TakeReads();
  attempt->fee_balance_observed = view.fee_balance_observed();
  attempt->cost_seconds = cpu.ElapsedSeconds();
  ++attempt->attempts;
}

bool ParallelBlockExecutor::ExecuteBlock(const Hash& root, const BlockContext& header,
                                         const std::vector<Transaction>& txs,
                                         const std::vector<const TxSpeculation*>& specs,
                                         ExecStrategy strategy,
                                         std::vector<ParallelTxResult>* results,
                                         ParallelBlockStats* stats) {
  static SecondsCounter* parallel_wall =
      MetricsRegistry::Global().GetSeconds("exec.parallel_wall_seconds");

  *stats = ParallelBlockStats{};
  results->clear();
  const size_t n = txs.size();
  if (n == 0) {
    return true;
  }
  for (const Transaction& tx : txs) {
    if (tx.sender == header.coinbase) {
      // The commutative fee exemption assumes the fee account only ever
      // receives credits inside the block; a fee-account sender breaks that.
      stats->fallback_serial = true;
      return false;
    }
  }

  TraceCollector* collector = &TraceCollector::Global();
  TraceSpan span(collector, "block", "block.parallel", parallel_wall);
  span.AddArg(TraceArg::U64("txs", n));
  span.AddArg(TraceArg::U64("workers", pool_.threads()));

  MvMemory mv;
  std::vector<Attempt> attempts(n);
  // Indices needing (re-)execution this round; starts as the whole block.
  std::vector<size_t> pending(n);
  for (size_t i = 0; i < n; ++i) {
    pending[i] = i;
  }
  const size_t max_rounds = 2 * n + 4;
  size_t committed = 0;

  while (committed < n) {
    if (stats->rounds >= max_rounds) {
      // Unreachable by the convergence argument (header comment), kept as a
      // hard safety valve: the caller re-runs the block serially.
      stats->fallback_serial = true;
      return false;
    }
    ++stats->rounds;

    // Execute phase: every pending attempt runs against the frozen committed
    // prefix, attempt j on worker j % workers.
    Stopwatch exec_watch;
    pool_.Run(pending.size(), [&](size_t j, size_t /*worker*/) {
      const size_t i = pending[j];
      RunAttempt(root, header, txs[i], specs[i], strategy, mv, i, &attempts[i]);
    });
    stats->exec_real_seconds += exec_watch.ElapsedSeconds();
    std::vector<double> worker_cost(pool_.threads(), 0.0);
    bool fee_balance_observed = false;
    for (size_t j = 0; j < pending.size(); ++j) {
      const double cost = attempts[pending[j]].cost_seconds;
      stats->exec_serial_seconds += cost;
      worker_cost[j % pool_.threads()] += cost;
      ++stats->executions;
      if (attempts[pending[j]].attempts > 1) {
        ++stats->reexecutions;
      }
      fee_balance_observed |= attempts[pending[j]].fee_balance_observed;
    }
    stats->exec_wall_seconds += *std::max_element(worker_cost.begin(), worker_cost.end());
    if (fee_balance_observed) {
      // Some attempt observed the fee-account balance: the exemption served a
      // pre-block value that lower-indexed fee credits may contradict. An
      // attempt's behavior depends only on the frozen committed prefix, so
      // the detection — like conflict accounting — is deterministic at any
      // worker count; the caller re-runs the block serially. (Transaction 0
      // against an empty prefix would technically be safe, but distinguishing
      // it would make the fallback decision depend on commit timing.)
      stats->fallback_serial = true;
      static Counter* fee_read_fallbacks =
          MetricsRegistry::Global().GetCounter("exec.fee_balance_fallbacks");
      fee_read_fallbacks->Add();
      return false;
    }
    pending.clear();

    // Validation phase (coordinator, ascending): extend the committed prefix
    // while reads hold, publishing each committed write set before validating
    // the next transaction. Kept attempts above a failure re-validate next
    // round without re-executing.
    Stopwatch validate_watch;
    bool prefix_open = true;
    for (size_t i = committed; i < n; ++i) {
      if (ValidateBlockStmReads(mv, i, attempts[i].reads)) {
        if (prefix_open) {
          mv.Publish(i, attempts[i].writes);
          committed = i + 1;
        }
        continue;
      }
      prefix_open = false;
      ++stats->validation_failures;
      if (!attempts[i].failed_once) {
        attempts[i].failed_once = true;
        ++stats->conflicts;
      }
      pending.push_back(i);
    }
    stats->validate_seconds += validate_watch.ElapsedSeconds();
  }

  results->resize(n);
  for (size_t i = 0; i < n; ++i) {
    ParallelTxResult& r = (*results)[i];
    r.outcome = std::move(attempts[i].outcome);
    r.writes = std::move(attempts[i].writes);
    r.attempts = attempts[i].attempts;
    r.last_cost_seconds = attempts[i].cost_seconds;
  }
  span.AddArg(TraceArg::U64("rounds", stats->rounds));
  span.AddArg(TraceArg::U64("conflicts", stats->conflicts));
  span.AddArg(TraceArg::F64("cpu_wall_s", stats->exec_wall_seconds));
  return true;
}

}  // namespace frn

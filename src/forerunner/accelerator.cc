#include "src/forerunner/accelerator.h"

#include <iterator>
#include <string_view>

#include "src/evm/evm.h"
#include "src/obs/registry.h"
#include "src/obs/trace.h"

namespace frn {

const char* StrategyName(ExecStrategy strategy) {
  switch (strategy) {
    case ExecStrategy::kBaseline:
      return "Baseline";
    case ExecStrategy::kPerfectMatch:
      return "Perfect matching";
    case ExecStrategy::kPerfectMulti:
      return "Perfect matching + multi-future prediction";
    case ExecStrategy::kForerunner:
      return "Forerunner";
  }
  return "?";
}

AccelOutcome Accelerator::RunEvm(StateDb* state, const BlockContext& block,
                                 const Transaction& tx) {
  AccelOutcome out;
  Evm evm(state, block);
  out.result = evm.ExecuteTransaction(tx);
  static Counter* evm_runs = MetricsRegistry::Global().GetCounter("evm.runs");
  static Counter* evm_gas = MetricsRegistry::Global().GetCounter("evm.gas");
  evm_runs->Add();
  evm_gas->Add(out.result.gas_used);
  return out;
}

bool Accelerator::TryCommitRecord(StateDb* state, const BlockContext& block,
                                  const Transaction& tx, const FutureRecord& record,
                                  ExecResult* out) {
  // Perfect matching: every value observed during speculation must re-read
  // identically in the actual context.
  for (const ObservedRead& read : record.reads) {
    if (!(EvalRead(read.op, read.args, state, block) == read.value)) {
      return false;
    }
  }
  // Commit the precomputed effects.
  if (record.result.ok()) {
    for (const auto& t : record.transfers) {
      if (!state->SubBalance(t.from, t.amount)) {
        return false;  // cannot happen when the sender-balance read matched
      }
      state->AddBalance(t.to, t.amount);
    }
    // FutureRecord::storage_writes is a std::vector (replay order preserved);
    // the linter's global name pass collides with trace_builder.h's unordered
    // member of the same name.
    for (const auto& [addr, key, value] : record.storage_writes) {  // frn:allow(unordered-iter)
      state->SetStorage(addr, key, value);
    }
  }
  *out = record.result;
  return true;
}

AccelOutcome Accelerator::Execute(StateDb* state, const BlockContext& block,
                                  const Transaction& tx, const TxSpeculation* spec,
                                  ExecStrategy strategy) {
  static Counter* checks = MetricsRegistry::Global().GetCounter("accel.checks");
  static Counter* accelerated = MetricsRegistry::Global().GetCounter("accel.accelerated");
  static Counter* perfect = MetricsRegistry::Global().GetCounter("accel.perfect");
  static SecondsCounter* check_wall =
      MetricsRegistry::Global().GetSeconds("accel.check_wall_seconds");
  TraceCollector* collector = &TraceCollector::Global();
  TraceSpan span(collector, "accel", "tx.check", check_wall,
                 collector->enabled() && collector->SampleTx(tx.id));
  const char* outcome = "plain";
  AccelOutcome out = ExecuteClassified(state, block, tx, spec, strategy, &outcome);
  checks->Add();
  // Per-outcome counters resolved once into a fixed table so the per-tx cost
  // is an array scan over short strings, not a registry map lookup.
  static constexpr std::string_view kOutcomeNames[] = {
      "plain",       "wrapper-miss", "record-hit", "record-miss",
      "no-ap",       "perfect",      "fastpath",   "bail"};
  static Counter* outcome_counters[] = {
      MetricsRegistry::Global().GetCounter("accel.outcome.plain"),
      MetricsRegistry::Global().GetCounter("accel.outcome.wrapper_miss"),
      MetricsRegistry::Global().GetCounter("accel.outcome.record_hit"),
      MetricsRegistry::Global().GetCounter("accel.outcome.record_miss"),
      MetricsRegistry::Global().GetCounter("accel.outcome.no_ap"),
      MetricsRegistry::Global().GetCounter("accel.outcome.perfect"),
      MetricsRegistry::Global().GetCounter("accel.outcome.fastpath"),
      MetricsRegistry::Global().GetCounter("accel.outcome.bail"),
  };
  for (size_t i = 0; i < std::size(kOutcomeNames); ++i) {
    if (kOutcomeNames[i] == outcome) {
      outcome_counters[i]->Add();
      break;
    }
  }
  if (out.accelerated) {
    accelerated->Add();
  }
  if (out.perfect) {
    perfect->Add();
  }
  span.AddArg(TraceArg::U64("tx", tx.id));
  span.AddArg(TraceArg::Str("outcome", outcome));
  span.AddArg(TraceArg::U64("gas", out.result.gas_used));
  return out;
}

AccelOutcome Accelerator::ExecuteClassified(StateDb* state, const BlockContext& block,
                                            const Transaction& tx, const TxSpeculation* spec,
                                            ExecStrategy strategy, const char** outcome) {
  if (strategy == ExecStrategy::kBaseline || spec == nullptr) {
    *outcome = "plain";
    return RunEvm(state, block, tx);
  }
  // Wrapper validity checks shared by all accelerated paths. Failures are
  // rare inclusion errors; the fallback reproduces them exactly.
  if (state->GetNonce(tx.sender) != tx.nonce ||
      state->GetBalance(tx.sender) < U256(tx.gas_limit) * tx.gas_price + tx.value) {
    *outcome = "wrapper-miss";
    return RunEvm(state, block, tx);
  }

  auto bookkeeping = [&](uint64_t gas_used) {
    state->SetNonce(tx.sender, tx.nonce + 1);
    state->SubBalance(tx.sender, U256(gas_used) * tx.gas_price);
    state->AddBalance(block.coinbase, U256(gas_used) * tx.gas_price);
  };

  if (strategy == ExecStrategy::kPerfectMatch || strategy == ExecStrategy::kPerfectMulti) {
    size_t candidates =
        (strategy == ExecStrategy::kPerfectMatch) ? 1 : spec->records.size();
    // Newest record first: the latest speculation ran against the freshest
    // head and is the most likely to match.
    for (size_t k = 0; k < candidates && k < spec->records.size(); ++k) {
      size_t i = spec->records.size() - 1 - k;
      AccelOutcome out;
      // Snapshot so a half-committed record (impossible in practice, but kept
      // defensive) can be rolled back.
      int snapshot = state->Snapshot();
      if (TryCommitRecord(state, block, tx, spec->records[i], &out.result)) {
        bookkeeping(out.result.gas_used);
        out.accelerated = true;
        out.perfect = true;  // by definition: the whole observed context matched
        *outcome = "record-hit";
        return out;
      }
      state->RevertToSnapshot(snapshot);
    }
    *outcome = "record-miss";
    return RunEvm(state, block, tx);
  }

  // Forerunner: constraint checking + fast path, EVM on violation.
  if (!spec->has_ap) {
    *outcome = "no-ap";
    return RunEvm(state, block, tx);
  }
  ApRunResult run = spec->ap.Execute(state, block);
  if (!run.satisfied) {
    *outcome = "bail";
    return RunEvm(state, block, tx);  // rollback-free: nothing to undo
  }
  AccelOutcome out;
  out.result = std::move(run.result);
  out.accelerated = true;
  out.perfect = run.perfect;
  out.instrs_executed = run.instrs_executed;
  out.instrs_skipped = run.instrs_skipped;
  bookkeeping(out.result.gas_used);
  *outcome = run.perfect ? "perfect" : "fastpath";
  return out;
}

}  // namespace frn

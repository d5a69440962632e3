// Optimistic intra-block parallel execution gate: sweeps block_workers
// {1, 2, 4} over two conflict regimes and holds the executor to the serial
// node's results.
//
//   low-conflict  — disjoint ERC-20 transfers (distinct senders, holders and
//                   balance slots): every attempt validates first try, so the
//                   block converges in one round and its CPU wall is the
//                   slowest worker's summed attempt CPU. Gates: zero
//                   conflicts, and the 4-worker CPU-wall speedup (summed
//                   attempt CPU / max-over-workers CPU) >= 2x.
//
//   high-conflict — every transaction submits to the same PriceFeed round
//                   (the paper's Figure 4 contract as a shared counter): the
//                   schedule degenerates to serial, one prefix extension per
//                   round. Gates: conflict counts identical at 2 and 4
//                   workers (deterministic accounting), no serial fallback.
//
// Both regimes require bit-identical commit roots at every worker count —
// the serial node (block_workers=1, the default) is the reference. The
// stopwatch wall of the execute phases (exec_real_seconds) and the serial
// node's summed per-tx seconds are reported next to the gates, ungated.
// Exit code 1 if any gate fails. Emits BENCH_block_stm.json via --json.
#include <cstdio>
#include <memory>
#include <vector>

#include "bench/bench_util.h"
#include "src/state/statedb.h"
#include "src/contracts/contracts.h"
#include "src/forerunner/node.h"

using namespace frn;

namespace {

constexpr size_t kLowConflictTxs = 32;
constexpr size_t kHighConflictTxs = 8;
constexpr uint64_t kBlocks = 3;
const Address kToken = Address::FromId(500);
const Address kFeed = Address::FromId(600);

std::unique_ptr<Node> MakeNode(size_t workers) {
  NodeOptions options;
  options.store.cold_read_latency = std::chrono::nanoseconds(0);
  options.speculation_time_scale = 0;
  options.chain.block_workers = workers;
  auto genesis = [](StateDb* state) {
    for (uint64_t s = 1; s <= kLowConflictTxs; ++s) {
      state->AddBalance(Address::FromId(s), U256::Exp(U256(10), U256(21)));
      state->SetStorage(kToken, Token::BalanceSlot(Address::FromId(s)),
                        U256(1'000'000));
    }
    state->SetCode(kToken, Token::Code());
    state->SetCode(kFeed, PriceFeed::Code());
  };
  return std::make_unique<Node>(options, genesis);
}

Transaction MakeTx(uint64_t id, uint64_t sender, const Address& to, Bytes data,
                   uint64_t nonce) {
  Transaction tx;
  tx.id = id;
  tx.sender = Address::FromId(sender);
  tx.to = to;
  tx.data = std::move(data);
  tx.nonce = nonce;
  tx.gas_limit = 500'000;
  tx.gas_price = U256(1'000'000'000);
  return tx;
}

// `high_conflict` selects the workload; blocks are identical across worker
// counts by construction (no RNG, no timing inputs).
std::vector<Block> MakeBlocks(bool high_conflict) {
  std::vector<Block> blocks;
  for (uint64_t n = 1; n <= kBlocks; ++n) {
    Block block;
    block.header.number = n;
    block.header.timestamp = 1'700'000'000 + n * 13;
    block.header.coinbase = Address::FromId(0xC0FFEE);
    const size_t txs = high_conflict ? kHighConflictTxs : kLowConflictTxs;
    const U256 round_id(block.header.timestamp - block.header.timestamp % 300);
    for (size_t i = 0; i < txs; ++i) {
      const uint64_t id = n * 1000 + i;
      if (high_conflict) {
        block.txs.push_back(MakeTx(id, i + 1, kFeed,
                                   PriceFeed::SubmitCall(round_id, U256(1900 + i)),
                                   n - 1));
      } else {
        block.txs.push_back(
            MakeTx(id, i + 1, kToken,
                   EncodeCall(Token::kTransfer,
                              {Address::FromId(1000 + i).ToU256(), U256(10 + n)}),
                   n - 1));
      }
    }
    blocks.push_back(std::move(block));
  }
  return blocks;
}

struct ConfigRun {
  size_t workers = 0;
  std::vector<Hash> roots;
  ParallelBlockStats stats;   // cumulative over all blocks (empty at workers=1)
  uint64_t fallbacks = 0;
  double speedup = 0;         // CPU wall: exec_serial_seconds / exec_wall_seconds
  double tx_seconds = 0;      // summed per-tx seconds of every block's report
};

ConfigRun RunConfig(size_t workers, const std::vector<Block>& blocks) {
  ConfigRun run;
  run.workers = workers;
  auto node = MakeNode(workers);
  for (size_t b = 0; b < blocks.size(); ++b) {
    BlockExecReport report = node->ExecuteBlock(blocks[b], 13.0 * (b + 1));
    run.roots.push_back(report.state_root);
    for (const TxExecRecord& tx : report.txs) {
      run.tx_seconds += tx.seconds;
    }
  }
  run.stats = node->parallel_stats();
  run.fallbacks = node->parallel_fallbacks();
  run.speedup = run.stats.exec_wall_seconds > 0
                    ? run.stats.exec_serial_seconds / run.stats.exec_wall_seconds
                    : 0;
  return run;
}

struct ScenarioResult {
  bool ok = true;
  std::vector<ConfigRun> runs;  // workers 1, 2, 4
};

ScenarioResult RunScenarioPart(const char* name, bool high_conflict) {
  ScenarioResult r;
  const std::vector<Block> blocks = MakeBlocks(high_conflict);
  for (size_t workers : {1u, 2u, 4u}) {
    r.runs.push_back(RunConfig(workers, blocks));
  }
  const ConfigRun& serial = r.runs[0];
  for (size_t c = 1; c < r.runs.size(); ++c) {
    const ConfigRun& run = r.runs[c];
    if (run.roots != serial.roots) {
      std::printf("FAIL: %s at %zu workers diverged from the serial roots\n", name,
                  run.workers);
      r.ok = false;
    }
    if (run.stats.fallback_serial || run.fallbacks != 0) {
      std::printf("FAIL: %s at %zu workers fell back to serial\n", name, run.workers);
      r.ok = false;
    }
  }
  return r;
}

void PrintScenario(const char* name, const ScenarioResult& r) {
  for (const ConfigRun& run : r.runs) {
    if (run.workers == 1) {
      std::printf("%s w1: serial reference (%zu blocks), summed per-tx %.3fms\n", name,
                  run.roots.size(), run.tx_seconds * 1e3);
      continue;
    }
    std::printf(
        "%s w%zu: rounds %zu, conflicts %llu, re-execs %llu, attempt CPU %.3fms, "
        "CPU wall %.3fms, speedup %.2fx, stopwatch %.3fms\n",
        name, run.workers, run.stats.rounds,
        static_cast<unsigned long long>(run.stats.conflicts),
        static_cast<unsigned long long>(run.stats.reexecutions),
        run.stats.exec_serial_seconds * 1e3, run.stats.exec_wall_seconds * 1e3,
        run.speedup, run.stats.exec_real_seconds * 1e3);
  }
}

JsonValue ToJson(const ScenarioResult& r) {
  JsonValue rows = JsonValue::Array();
  for (const ConfigRun& run : r.runs) {
    JsonValue row = JsonValue::Object();
    row.Set("workers", static_cast<uint64_t>(run.workers));
    row.Set("rounds", static_cast<uint64_t>(run.stats.rounds));
    row.Set("executions", run.stats.executions);
    row.Set("reexecutions", run.stats.reexecutions);
    row.Set("validation_failures", run.stats.validation_failures);
    row.Set("conflicts", run.stats.conflicts);
    row.Set("exec_serial_seconds", run.stats.exec_serial_seconds);
    row.Set("exec_wall_seconds", run.stats.exec_wall_seconds);
    row.Set("exec_real_seconds", run.stats.exec_real_seconds);
    row.Set("tx_seconds", run.tx_seconds);
    row.Set("speedup", run.speedup);
    row.Set("fallbacks", run.fallbacks);
    rows.Append(std::move(row));
  }
  JsonValue scenario = JsonValue::Object();
  scenario.Set("rows", std::move(rows));
  scenario.Set("ok", r.ok);
  return scenario;
}

}  // namespace

int main(int argc, char** argv) {
  BenchArgs args = ParseBenchArgs(argc, argv);
  std::printf("=== Optimistic parallel block execution: workers x conflict sweep ===\n");

  ScenarioResult low = RunScenarioPart("low-conflict", /*high_conflict=*/false);
  ScenarioResult high = RunScenarioPart("high-conflict", /*high_conflict=*/true);
  PrintScenario("low-conflict", low);
  PrintScenario("high-conflict", high);

  // Low-conflict gates: conflict-free convergence in one round per block, and
  // the 4-worker CPU wall at least 2x below the summed attempt CPU.
  const ConfigRun& low4 = low.runs[2];
  if (low4.stats.conflicts != 0 || low4.stats.rounds != kBlocks) {
    std::printf("FAIL: low-conflict sweep saw conflicts (%llu) or extra rounds (%zu)\n",
                static_cast<unsigned long long>(low4.stats.conflicts),
                low4.stats.rounds);
    low.ok = false;
  }
  if (low4.speedup < 2.0) {
    std::printf("FAIL: low-conflict 4-worker CPU-wall speedup %.2fx (gate >= 2x)\n",
                low4.speedup);
    low.ok = false;
  }

  // High-conflict gates: the shared counter serializes every block (one
  // commit per round) and the conflict accounting is worker-count invariant.
  const ConfigRun& high2 = high.runs[1];
  const ConfigRun& high4 = high.runs[2];
  if (high2.stats.conflicts != high4.stats.conflicts ||
      high2.stats.validation_failures != high4.stats.validation_failures ||
      high2.stats.rounds != high4.stats.rounds) {
    std::printf("FAIL: high-conflict accounting differs between 2 and 4 workers\n");
    high.ok = false;
  }
  if (high4.stats.conflicts != kBlocks * (kHighConflictTxs - 1) ||
      high4.stats.rounds != kBlocks * kHighConflictTxs) {
    std::printf("FAIL: high-conflict schedule did not fully serialize "
                "(conflicts %llu, rounds %zu)\n",
                static_cast<unsigned long long>(high4.stats.conflicts),
                high4.stats.rounds);
    high.ok = false;
  }

  JsonValue payload = JsonValue::Object();
  payload.Set("low_conflict", ToJson(low));
  payload.Set("high_conflict", ToJson(high));

  bool ok = low.ok && high.ok;
  if (!FinishObservability(args, "block_stm", payload)) {
    ok = false;
  }
  std::printf(ok ? "PASS: all block-stm gates held\n"
                 : "FAIL: block-stm gates violated\n");
  return ok ? 0 : 1;
}

// Reproduces Figure 2's motivation: Ethereum's block size (gas limit) has been
// raised era after era, and throughput (gas used) saturates each new limit.
// The historical series is synthesized from the documented gas-limit eras;
// demand grows exponentially and is clipped by the limit. The second part
// reports the same limit-vs-used view for the chain our emulator produced.
#include <algorithm>
#include <cmath>
#include <cstdio>

#include "bench/bench_util.h"

using namespace frn;

int main() {
  std::printf("=== Figure 2: Block size (gas limit) vs throughput (gas used) ===\n");
  std::printf("\n-- Synthetic history (one row per quarter, Jul-2015..Jul-2020) --\n");
  // Gas-limit eras loosely following mainnet history.
  struct Era {
    double start_quarter;
    double limit;  // millions of gas
  };
  const Era eras[] = {{0, 3.1}, {4, 4.7}, {8, 6.7}, {12, 8.0}, {16, 10.0}, {18, 12.5}};
  std::printf("%-9s %12s %12s\n", "quarter", "limit (Mgas)", "used (Mgas)");
  for (int q = 0; q <= 20; ++q) {
    double limit = eras[0].limit;
    for (const Era& era : eras) {
      if (q >= era.start_quarter) {
        limit = era.limit;
      }
    }
    // Demand doubles roughly yearly and saturates the limit.
    double demand = 0.15 * std::pow(2.0, q / 3.4);
    double used = std::min(demand, 0.97 * limit);
    std::printf("%9d %12.1f %12.2f  %s\n", q, limit, used, Bar(used / 15.0, 30).c_str());
  }

  std::printf("\n-- Emulated chain (dataset L1) --\n");
  ScenarioRun run = RunScenario(ScenarioByName("L1"), {});
  uint64_t limit = kDiceBlockGasLimit;
  // Gas used per block from the baseline node's records, grouped by block.
  size_t index = 0;
  std::printf("%-7s %12s %12s %10s\n", "block", "limit", "gas used", "txs");
  for (const Block& block : run.report.chain) {
    uint64_t used = 0;
    for (size_t i = 0; i < block.txs.size(); ++i, ++index) {
      used += run.report.nodes[0].records[index].gas_used;
    }
    std::printf("%7lu %12lu %12lu %10zu\n", (unsigned long)block.header.number,
                (unsigned long)limit, (unsigned long)used, block.txs.size());
  }
  std::printf("\nPaper reference: the rising gas limit is saturated by throughput, "
              "motivating faster execution as the path to higher throughput.\n");
  return 0;
}

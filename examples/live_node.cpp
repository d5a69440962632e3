// A live Forerunner node: runs the full pipeline — dissemination, multi-future
// prediction, speculation, prefetching, consensus, accelerated execution —
// against emulated network traffic, and prints a block-by-block report like a
// node operator would see. A baseline node processes the same chain to verify
// state roots and provide the speedup reference.
//
// Build & run:  ./build/examples/live_node [scenario]
#include <cstdio>
#include <memory>
#include <string>

#include "src/state/statedb.h"
#include "src/workload/workload.h"

using namespace frn;

int Usage(const std::string& error) {
  std::string names;
  for (const std::string& name : AllScenarioNames()) {
    names += (names.empty() ? "" : "|") + name;
  }
  std::fprintf(stderr, "live_node: %s\nusage: live_node [%s]\n", error.c_str(), names.c_str());
  return 2;
}

int main(int argc, char** argv) {
  if (argc > 2) {
    return Usage("too many arguments");
  }
  std::string scenario = argc > 1 ? argv[1] : "L1";
  if (!IsScenarioName(scenario)) {
    return Usage("unknown scenario '" + scenario + "'");
  }
  ScenarioConfig cfg = ScenarioByName(scenario);
  cfg.duration = 90;  // a shorter live session

  Workload workload(cfg);
  auto traffic = workload.GenerateTraffic();
  std::printf("scenario %s: %zu transactions over %.0fs of traffic\n", cfg.name.c_str(),
              traffic.size(), cfg.duration);

  DiceSimulator sim(cfg.dice, traffic);
  auto genesis = [&](StateDb* state) { workload.InitGenesis(state); };

  auto make_options = [&](ExecStrategy strategy) {
    NodeOptions options;
    options.strategy = strategy;
    options.store.cold_read_latency = cfg.cold_read_latency;
    options.predictor.miners = MinerCandidates(sim.miners());
    options.predictor.mean_block_interval = cfg.dice.mean_block_interval;
    return options;
  };
  Node baseline(make_options(ExecStrategy::kBaseline), genesis);
  Node forerunner(make_options(ExecStrategy::kForerunner), genesis);

  SimReport report = sim.Run({&baseline, &forerunner}, cfg.name);

  std::printf("\n%-6s %5s %6s %8s %8s %9s %8s\n", "block", "txs", "heard", "accel",
              "base(ms)", "frn(ms)", "speedup");
  size_t index = 0;
  double total_base = 0;
  double total_frn = 0;
  for (const Block& block : report.chain) {
    size_t heard = 0;
    size_t accel = 0;
    double base_ms = 0;
    double frn_ms = 0;
    for (size_t i = 0; i < block.txs.size(); ++i, ++index) {
      const TxExecRecord& b = report.nodes[0].records[index];
      const TxExecRecord& f = report.nodes[1].records[index];
      heard += f.heard ? 1 : 0;
      accel += f.accelerated ? 1 : 0;
      base_ms += b.seconds * 1e3;
      frn_ms += f.seconds * 1e3;
    }
    total_base += base_ms;
    total_frn += frn_ms;
    std::printf("%-6lu %5zu %6zu %8zu %8.2f %9.2f %7.2fx\n",
                (unsigned long)block.header.number, block.txs.size(), heard, accel, base_ms,
                frn_ms, frn_ms > 0 ? base_ms / frn_ms : 1.0);
  }
  std::printf("\nchain of %lu blocks, %lu txs — every state root agreed with the baseline: %s\n",
              (unsigned long)report.blocks, (unsigned long)report.txs_packed,
              report.roots_consistent ? "yes" : "NO (BUG)");
  std::printf("execution-phase speedup over the whole chain: %.2fx\n",
              total_frn > 0 ? total_base / total_frn : 1.0);
  std::printf("off-critical-path speculation: %.2fs over %lu futures (%lu bail-outs)\n",
              report.nodes[1].speculation_seconds,
              (unsigned long)report.nodes[1].futures_speculated,
              (unsigned long)report.nodes[1].synthesis_failures);
  return report.roots_consistent ? 0 : 1;
}

// Reproduces Table 1: per-dataset block counts, transaction counts, the
// percentage of packed transactions heard during dissemination, and the same
// percentage weighted by baseline execution time, over the six scenario
// configurations (L1 live-analog plus recorded-replay analogs R1-R5).
#include <cstdio>

#include "bench/bench_util.h"

using namespace frn;

int main() {
  std::printf("=== Table 1: Datasets ===\n");
  std::printf("%-5s %8s %7s %8s %10s %14s %10s\n", "Tag", "Blocks", "+forks", "Txs",
              "% heard", "%(weighted)", "duration");
  for (const std::string& name : AllScenarioNames()) {
    ScenarioConfig cfg = ScenarioByName(name);
    ScenarioRun run = RunScenario(cfg, {ExecStrategy::kForerunner});
    SpeedupSummary s = Summarize(Compare(run.report, 1));
    std::printf("%-5s %8lu %7lu %8lu %9.2f%% %13.2f%% %9.0fs\n", name.c_str(),
                (unsigned long)run.report.blocks, (unsigned long)run.report.fork_blocks,
                (unsigned long)run.report.txs_packed, s.heard_pct, s.heard_weighted_pct,
                cfg.duration);
  }
  std::printf("\nPaper reference: heard 92.24%%-97.59%% (weighted 91.45%%-98.15%%) across "
              "L1 and R1-R5.\n");
  return 0;
}

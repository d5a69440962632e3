// Reproduces Figure 11: the reverse CDF of the heard delay — the window
// between hearing a pending transaction and having to execute it, i.e. the
// time available for speculative pre-execution.
#include <cstdio>

#include "bench/bench_util.h"

using namespace frn;

int main() {
  std::printf("=== Figure 11: Reverse CDF of heard delay (dataset L1) ===\n");
  ScenarioRun run = RunScenario(ScenarioByName("L1"), {});
  auto rcdf = ReverseCdf(run.report.heard_delays, 4.0, 48.0);
  std::printf("%-14s %10s\n", "delay > x (s)", "% of txs");
  for (const auto& [x, fraction] : rcdf) {
    std::printf("%13.0f %9.2f%%  %s\n", x, 100.0 * fraction, Bar(fraction).c_str());
  }
  Samples s;
  for (double d : run.report.heard_delays) {
    s.Add(d);
  }
  std::printf("\nheard txs: %zu, median window %.1fs, p10 %.1fs\n", s.count(),
              s.Percentile(50), s.Percentile(10));
  std::printf("Paper reference: >90%% of heard transactions have a window over 4 seconds.\n");
  return 0;
}

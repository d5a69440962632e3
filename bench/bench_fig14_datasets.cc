// Reproduces Figure 14: constraint-satisfaction rate, weighted rate, and
// effective / end-to-end speedups across all six datasets.
#include <cstdio>

#include "bench/bench_util.h"

using namespace frn;

int main() {
  std::printf("=== Figure 14: Evaluations across datasets (Forerunner) ===\n");
  std::printf("%-5s %12s %14s %12s %14s\n", "Tag", "% satisfied", "% (weighted)",
              "Effective", "End-to-End");
  for (const std::string& name : AllScenarioNames()) {
    ScenarioRun run = RunScenario(ScenarioByName(name), {ExecStrategy::kForerunner});
    SpeedupSummary s = Summarize(Compare(run.report, 1));
    std::printf("%-5s %11.2f%% %13.2f%% %11.2fx %13.2fx\n", name.c_str(), s.satisfied_pct,
                s.satisfied_weighted_pct, s.effective_speedup, s.end_to_end_speedup);
  }
  std::printf("\nPaper reference: satisfaction above 95%% across the board; "
              "end-to-end speedups 4.56x-8.38x.\n");
  return 0;
}

// Reproduces Table 3: the breakdown of heard transactions by prediction
// outcome — perfect prediction (context matched a speculated one), imperfect
// prediction (a constraint set was satisfied despite a different context),
// and missed prediction (fallback to full execution) — with the share of
// transactions, the baseline-time-weighted share, and the speedup per class.
#include <cstdio>

#include "bench/bench_util.h"

using namespace frn;

int main() {
  std::printf("=== Table 3: Breakdown by prediction outcome (dataset L1, Forerunner) ===\n");
  ScenarioRun run = RunScenario(ScenarioByName("L1"), {ExecStrategy::kForerunner});
  std::vector<TxComparison> txs = Compare(run.report, 1);

  struct Class {
    const char* label;
    size_t n = 0;
    double base_time = 0;
    double strat_time = 0;
  };
  Class classes[3] = {{"satisfied/perfect"}, {"satisfied/imperfect"}, {"unsatisfied/missed"}};
  size_t heard = 0;
  double heard_base = 0;
  for (const TxComparison& c : txs) {
    if (!c.heard) {
      continue;
    }
    ++heard;
    heard_base += c.baseline_seconds;
    Class& cls = !c.accelerated ? classes[2] : (c.perfect ? classes[0] : classes[1]);
    ++cls.n;
    cls.base_time += c.baseline_seconds;
    cls.strat_time += c.strategy_seconds;
  }

  std::printf("%-22s %9s %14s %10s\n", "", "% txs", "% (weighted)", "Speedup");
  for (const Class& cls : classes) {
    double pct = heard == 0 ? 0 : 100.0 * static_cast<double>(cls.n) / heard;
    double wpct = heard_base == 0 ? 0 : 100.0 * cls.base_time / heard_base;
    double speedup = cls.strat_time > 0 ? cls.base_time / cls.strat_time : 1.0;
    std::printf("%-22s %8.2f%% %13.2f%% %9.2fx\n", cls.label, pct, wpct, speedup);
  }
  std::printf("\nPaper reference: perfect 87.19%% / 83.84%% / 11.33x; "
              "imperfect 11.96%% / 14.58%% / 4.55x; missed 0.85%% / 1.59%% / 1.21x.\n");
  return 0;
}

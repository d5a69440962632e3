// Reproduces Table 2: effective speedup, % of heard transactions satisfying a
// constraint set, and the weighted percentage, for the four execution
// strategies (baseline, Forerunner, perfect matching, perfect matching +
// multi-future prediction), on the main dataset L1. Each row is the median of
// five runs, with the min-max of the speedup.
#include <cstdio>

#include "bench/bench_util.h"

using namespace frn;

int main(int argc, char** argv) {
  BenchArgs args = ParseBenchArgs(argc, argv);
  std::printf("=== Table 2: Effective speedup (dataset L1) ===\n");
  // Speedups are wall-clock ratios, so one run can order close rows wrongly:
  // each row reports the median of kRuns runs with the speedup's min-max.
  constexpr int kRuns = 5;
  const std::vector<ExecStrategy> strategies = {
      ExecStrategy::kForerunner, ExecStrategy::kPerfectMatch, ExecStrategy::kPerfectMulti};
  struct Row {
    Samples speedup, satisfied, weighted;
    JsonValue runs = JsonValue::Array();
  };
  std::vector<Row> rows(strategies.size());
  Samples end_to_end;
  ScenarioRun run;
  for (int r = 0; r < kRuns; ++r) {
    run = RunScenario(ScenarioByName("L1"), strategies);
    for (size_t n = 1; n < run.report.nodes.size(); ++n) {
      SpeedupSummary s = Summarize(Compare(run.report, n));
      Row& row = rows[n - 1];
      row.speedup.Add(s.effective_speedup);
      row.satisfied.Add(s.satisfied_pct);
      row.weighted.Add(s.satisfied_weighted_pct);
      row.runs.Append(ToJson(s));
      if (n == 1) {
        end_to_end.Add(s.end_to_end_speedup);
      }
    }
  }
  std::printf("blocks=%lu txs=%lu (Merkle roots agreed across all nodes on every block)\n",
              (unsigned long)run.report.blocks, (unsigned long)run.report.txs_packed);
  std::printf("median [min-max] of %d runs\n\n", kRuns);

  JsonValue strategies_json = JsonValue::Object();
  std::printf("%-44s %22s %12s %14s\n", "", "Speedup", "% satisfied", "% (weighted)");
  std::printf("%-44s %22s %12s %14s\n", "Baseline", "1.00x", "N/A", "N/A");
  for (size_t n = 0; n < rows.size(); ++n) {
    Row& row = rows[n];
    std::printf("%-44s %22s %11.2f%% %13.2f%%\n", StrategyName(strategies[n]),
                MedianRange(row.speedup, "x").c_str(), row.satisfied.Percentile(50),
                row.weighted.Percentile(50));
    JsonValue strategy = JsonValue::Object();
    strategy.Set("effective_speedup_median", row.speedup.Percentile(50));
    strategy.Set("effective_speedup_min", row.speedup.Percentile(0));
    strategy.Set("effective_speedup_max", row.speedup.Max());
    strategy.Set("satisfied_pct_median", row.satisfied.Percentile(50));
    strategy.Set("satisfied_weighted_pct_median", row.weighted.Percentile(50));
    strategy.Set("runs", std::move(row.runs));
    strategies_json.Set(StrategyName(strategies[n]), std::move(strategy));
  }
  SpeedupSummary fr = Summarize(Compare(run.report, 1));
  std::printf("\nForerunner end-to-end speedup (incl. unheard txs): %s\n",
              MedianRange(end_to_end, "x").c_str());
  std::printf("Heard: %.2f%% of packed txs (%.2f%% weighted by baseline time, last run)\n",
              fr.heard_pct, fr.heard_weighted_pct);
  std::printf("\nPaper reference: Forerunner 8.39x (99.16%% / 98.41%%), "
              "perfect 2.11x (68.81%% / 51.40%%), perfect+multi 5.13x (87.59%% / 84.64%%); "
              "end-to-end 6.06x.\n");

  JsonValue payload = JsonValue::Object();
  payload.Set("scenario", run.cfg.name);
  payload.Set("runs", static_cast<uint64_t>(kRuns));
  payload.Set("blocks", run.report.blocks);
  payload.Set("txs_packed", run.report.txs_packed);
  payload.Set("strategies", std::move(strategies_json));
  FinishObservability(args, "table2_speedup", std::move(payload));
  return 0;
}

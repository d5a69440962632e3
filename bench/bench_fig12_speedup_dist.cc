// Reproduces Figure 12: the distribution of per-transaction speedups across
// all heard transactions under Forerunner.
#include <cstdio>

#include "bench/bench_util.h"

using namespace frn;

int main() {
  std::printf("=== Figure 12: Speedup distribution across heard txs (dataset L1) ===\n");
  ScenarioRun run = RunScenario(ScenarioByName("L1"), {ExecStrategy::kForerunner});
  std::vector<TxComparison> txs = Compare(run.report, 1);

  Histogram hist(5.0, 10);  // buckets of 5x up to 50x, plus overflow
  size_t below_one = 0;
  size_t heard = 0;
  for (const TxComparison& c : txs) {
    if (!c.heard) {
      continue;
    }
    ++heard;
    if (c.speedup < 1.0) {
      ++below_one;
    }
    hist.Add(c.speedup);
  }
  std::printf("%-12s %10s\n", "speedup", "% of txs");
  std::printf("%-12s %9.2f%%\n", "<1x", heard ? 100.0 * below_one / heard : 0.0);
  for (size_t b = 0; b < hist.counts().size(); ++b) {
    char label[32];
    if (b + 1 < hist.counts().size()) {
      std::snprintf(label, sizeof label, "%zu-%zux", b * 5, (b + 1) * 5);
    } else {
      std::snprintf(label, sizeof label, ">=50x");
    }
    double fraction = hist.Fraction(b);
    std::printf("%-12s %9.2f%%  %s\n", label, 100.0 * fraction, Bar(fraction).c_str());
  }
  SpeedupSummary s = Summarize(txs);
  std::printf("\nmean per-tx speedup %.2fx; effective (time-weighted) %.2fx over %zu heard txs\n",
              s.mean_tx_speedup, s.effective_speedup, s.heard);
  std::printf("Paper reference: most txs between 2x and 20x, 0.88%% not accelerated, "
              "0.53%% above 50x.\n");
  return 0;
}

// Parallel speculation engine scaling bench: runs dataset L1 at worker counts
// {1, 2, 4, 8} and gates a >= 2x speedup of the speculation phase's CPU wall
// at 4 workers (per pipeline round, the max over workers of their summed job
// thread CPU, which is the cost when idle cores absorb the fan-out). The
// stopwatch wall of the batches is reported next to it, ungated. That every
// worker count counts identical outcomes is asserted by tests/oracle_test.cc.
// Exits nonzero when the gate fails so CI can gate on it.
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "bench/bench_util.h"

using namespace frn;

int main(int argc, char** argv) {
  BenchArgs args = ParseBenchArgs(argc, argv);
  // L1's contract mix at elevated load: parallel speculation pays off when a
  // pipeline round actually contains several pending transactions, so the
  // scaling study runs the same mix at 16 tx/s (a singleton round is bound by
  // its one job no matter how many workers exist).
  ScenarioConfig cfg = ScenarioByName("L1");
  cfg.tx_rate = 16.0;
  std::printf("=== Parallel speculation engine: scaling on dataset %s @ %.0f tx/s ===\n",
              cfg.name.c_str(), cfg.tx_rate);
  const std::vector<size_t> counts = {1, 2, 4, 8};
  std::vector<SimReport> runs;
  for (size_t workers : counts) {
    ScenarioRun run = RunScenarioWithTweaks(
        cfg,
        {{ExecStrategy::kForerunner, [workers](NodeOptions* o) {
            o->spec_workers = workers;
            // Decouple AP availability from measured wall time, so every
            // worker count speculates the same jobs; the wall cost is still
            // fully accounted below.
            o->speculation_time_scale = 0;
          }}},
        /*duration_override=*/120);
    runs.push_back(std::move(run.report));
  }

  bool ok = true;
  JsonValue rows = JsonValue::Array();
  std::printf("\n%-8s %14s %14s %12s %16s %12s %12s\n", "workers", "spec CPU (s)",
              "CPU wall (s)", "speedup", "stopwatch (s)", "imbalance", "accelerated");
  for (size_t i = 0; i < counts.size(); ++i) {
    const NodeRunStats& node = runs[i].nodes[1];
    size_t accelerated = 0;
    for (const TxExecRecord& r : node.records) {
      accelerated += r.accelerated ? 1 : 0;
    }
    // Speedup of the N-worker schedule over a 1-worker schedule of the same
    // measured job costs (the serial wall is exactly the workers' summed busy
    // time), so the ratio is structural rather than cross-run timing noise.
    double serial_cost = SumSpecWorkerStats(node.spec_worker_stats).busy_seconds;
    double speedup = node.speculation_wall_seconds > 0
                         ? serial_cost / node.speculation_wall_seconds
                         : 0.0;
    std::printf("%-8zu %14.3f %14.3f %11.2fx %16.3f %12.2f %12zu\n", counts[i],
                node.speculation_seconds, node.speculation_wall_seconds, speedup,
                node.speculation_measured_wall_seconds,
                SpecWorkerImbalance(node.spec_worker_stats), accelerated);
    JsonValue row = JsonValue::Object();
    row.Set("workers", static_cast<uint64_t>(counts[i]));
    row.Set("speculation_cpu_seconds", node.speculation_seconds);
    row.Set("speculation_wall_seconds", node.speculation_wall_seconds);
    row.Set("wall_speedup", speedup);
    row.Set("measured_wall_seconds", node.speculation_measured_wall_seconds);
    row.Set("imbalance", SpecWorkerImbalance(node.spec_worker_stats));
    row.Set("accelerated", static_cast<uint64_t>(accelerated));
    rows.Append(std::move(row));
  }

  const NodeRunStats& four = runs[2].nodes[1];
  double four_serial_cost = SumSpecWorkerStats(four.spec_worker_stats).busy_seconds;
  double speedup4 = four.speculation_wall_seconds > 0
                        ? four_serial_cost / four.speculation_wall_seconds
                        : 0.0;
  std::printf("\nspeculation-phase CPU wall speedup at 4 workers vs 1: %.2fx (target >= 2x)\n",
              speedup4);
  // Stopwatch walls of two runs: ungated, since the 4-worker run shares the
  // host's cores with everything else on it.
  const double measured1 = runs[0].nodes[1].speculation_measured_wall_seconds;
  const double measured4 = four.speculation_measured_wall_seconds;
  const double measured_ratio = measured4 > 0 ? measured1 / measured4 : 0.0;
  std::printf("speculation-phase stopwatch wall at 1 vs 4 workers: %.3f s / %.3f s = %.2fx "
              "(reported, not gated)\n",
              measured1, measured4, measured_ratio);
  if (speedup4 < 2.0) {
    std::printf("FAIL: 4-worker speculation CPU wall speedup below 2x\n");
    ok = false;
  }
  std::printf("%s\n", ok ? "PASS" : "FAIL");

  JsonValue payload = JsonValue::Object();
  payload.Set("scenario", cfg.name);
  payload.Set("tx_rate", cfg.tx_rate);
  payload.Set("worker_runs", std::move(rows));
  payload.Set("speedup_4_workers", speedup4);
  payload.Set("measured_speedup_4_workers", measured_ratio);
  payload.Set("pass", ok);
  FinishObservability(args, "spec_pool", std::move(payload));
  return ok ? EXIT_SUCCESS : EXIT_FAILURE;
}

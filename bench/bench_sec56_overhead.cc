// Reproduces the §5.6 off-critical-path overhead measurement: the end-to-end
// cost of pre-executing a transaction in a context and synthesizing an AP,
// relative to plainly executing it — plus the parallel speculation engine's
// per-worker accounting (jobs, queue wait), its CPU wall (the cost when the
// fan-out is absorbed by idle cores) and its stopwatch wall. Cold-read
// latency is spun by the thread that takes it, so the CPU totals include it.
#include <cstdio>

#include "bench/bench_util.h"

using namespace frn;

int main(int argc, char** argv) {
  BenchArgs args = ParseBenchArgs(argc, argv);
  std::printf("=== Section 5.6: Overhead off the critical path (dataset L1) ===\n");
  ScenarioRun run = RunScenarioWithTweaks(
      ScenarioByName("L1"),
      {{ExecStrategy::kForerunner, [](NodeOptions* o) { o->spec_workers = 4; }}});
  const NodeRunStats& node = run.report.nodes[1];

  double speculation = node.speculation_seconds;
  double plain = node.speculated_exec_seconds;
  double critical = node.total_exec_seconds;
  std::printf("futures pre-executed:                    %lu\n",
              (unsigned long)node.futures_speculated);
  std::printf("synthesis bail-outs (unsupported traces): %lu\n",
              (unsigned long)node.synthesis_failures);
  std::printf("total speculate+synthesize time:          %.3f s\n", speculation);
  std::printf("  of which plain pre-execution:           %.3f s\n", plain);
  std::printf("avg per future:                           %.3f ms\n",
              node.futures_speculated
                  ? 1e3 * speculation / static_cast<double>(node.futures_speculated)
                  : 0.0);
  std::printf("speculate+synthesize / plain execution:   %.2fx\n",
              plain > 0 ? speculation / plain : 0.0);
  std::printf("critical-path execution time (all blocks): %.3f s\n", critical);
  std::printf("off-path work per critical-path second:    %.2fx\n",
              critical > 0 ? speculation / critical : 0.0);

  std::printf("\n--- Parallel speculation engine (%zu workers) ---\n", node.spec_workers);
  std::printf("%-8s %10s %10s %12s %14s\n", "worker", "jobs", "futures", "busy (s)",
              "queue wait (s)");
  for (size_t w = 0; w < node.spec_worker_stats.size(); ++w) {
    const SpecWorkerStats& s = node.spec_worker_stats[w];
    std::printf("%-8zu %10lu %10lu %12.3f %14.3f\n", w, (unsigned long)s.jobs,
                (unsigned long)s.futures, s.busy_seconds, s.queue_wait_seconds);
  }
  SpecWorkerStats sum = SumSpecWorkerStats(node.spec_worker_stats);
  std::printf("%-8s %10lu %10lu %12.3f %14.3f\n", "total", (unsigned long)sum.jobs,
              (unsigned long)sum.futures, sum.busy_seconds, sum.queue_wait_seconds);
  double wall = node.speculation_wall_seconds;
  std::printf("speculation CPU cost (serial sum):        %.3f s\n", speculation);
  std::printf("speculation CPU wall (max over workers):  %.3f s\n", wall);
  std::printf("speculation stopwatch wall (batches):     %.3f s\n",
              node.speculation_measured_wall_seconds);
  std::printf("parallel speedup of the speculation phase: %.2fx\n",
              wall > 0 ? speculation / wall : 0.0);
  std::printf("worker imbalance (busiest / mean busy):    %.2f\n",
              SpecWorkerImbalance(node.spec_worker_stats));

  std::printf("\nPaper reference: pre-execute + synthesize averages 12.19x the plain "
              "execution time of the transaction (unoptimized), with 3.33x CPU and 2.50x "
              "memory overhead node-wide.\n");

  JsonValue workers_json = JsonValue::Array();
  for (const SpecWorkerStats& s : node.spec_worker_stats) {
    JsonValue w = JsonValue::Object();
    w.Set("jobs", s.jobs);
    w.Set("futures", s.futures);
    w.Set("busy_seconds", s.busy_seconds);
    w.Set("queue_wait_seconds", s.queue_wait_seconds);
    workers_json.Append(std::move(w));
  }
  JsonValue payload = JsonValue::Object();
  payload.Set("scenario", run.cfg.name);
  payload.Set("futures_speculated", node.futures_speculated);
  payload.Set("synthesis_failures", node.synthesis_failures);
  payload.Set("speculation_seconds", speculation);
  payload.Set("speculated_exec_seconds", plain);
  payload.Set("critical_path_seconds", critical);
  payload.Set("overhead_vs_plain", plain > 0 ? speculation / plain : 0.0);
  payload.Set("speculation_wall_seconds", wall);
  payload.Set("speculation_measured_wall_seconds", node.speculation_measured_wall_seconds);
  payload.Set("parallel_speedup", wall > 0 ? speculation / wall : 0.0);
  payload.Set("worker_imbalance", SpecWorkerImbalance(node.spec_worker_stats));
  payload.Set("workers", std::move(workers_json));
  FinishObservability(args, "sec56_overhead", std::move(payload));
  return 0;
}

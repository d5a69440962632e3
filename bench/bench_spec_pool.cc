// Parallel speculation engine scaling bench: runs dataset L1 at worker counts
// {1, 2, 4, 8} and verifies the acceptance criteria directly — identical
// state roots and per-transaction acceleration outcomes at every worker
// count, and a >= 2x speedup of the speculation phase's CPU wall at 4 workers
// (per pipeline round, the max over workers of their summed job thread CPU,
// which is the cost when idle cores absorb the fan-out). The stopwatch wall
// of the batches is reported next to it, ungated. Exits nonzero on any
// mismatch so CI can gate on it.
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "bench/bench_util.h"
#include "src/obs/trace.h"

using namespace frn;

namespace {

struct WorkerRun {
  size_t workers;
  ScenarioRun run;
};

bool SameRecords(const std::vector<TxExecRecord>& a, const std::vector<TxExecRecord>& b,
                 size_t workers) {
  if (a.size() != b.size()) {
    std::printf("FAIL: %zu workers produced %zu records vs %zu at 1 worker\n", workers,
                b.size(), a.size());
    return false;
  }
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].tx_id != b[i].tx_id || a[i].speculated != b[i].speculated ||
        a[i].accelerated != b[i].accelerated || a[i].perfect != b[i].perfect ||
        a[i].gas_used != b[i].gas_used || a[i].status != b[i].status ||
        a[i].instrs_executed != b[i].instrs_executed ||
        a[i].instrs_skipped != b[i].instrs_skipped) {
      std::printf("FAIL: tx %lu diverged at %zu workers "
                  "(spec %d/%d acc %d/%d perfect %d/%d gas %lu/%lu)\n",
                  (unsigned long)a[i].tx_id, workers, a[i].speculated, b[i].speculated,
                  a[i].accelerated, b[i].accelerated, a[i].perfect, b[i].perfect,
                  (unsigned long)a[i].gas_used, (unsigned long)b[i].gas_used);
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  BenchArgs args = ParseBenchArgs(argc, argv);
  // Tracing is force-enabled here even without --trace-out: this bench is the
  // cross-worker-count determinism gate, and it must keep passing with the
  // tracer armed (spans may not perturb outcomes).
  if (!TraceCollector::Global().enabled()) {
    TraceCollector::Options trace_options;
    trace_options.sample_rate = args.trace_sample;
    TraceCollector::Global().Enable(trace_options);
  }
  // L1's contract mix at elevated load: parallel speculation pays off when a
  // pipeline round actually contains several pending transactions, so the
  // scaling study runs the same mix at 16 tx/s (a singleton round is bound by
  // its one job no matter how many workers exist).
  ScenarioConfig cfg = ScenarioByName("L1");
  cfg.tx_rate = 16.0;
  std::printf("=== Parallel speculation engine: scaling on dataset %s @ %.0f tx/s ===\n",
              cfg.name.c_str(), cfg.tx_rate);
  const std::vector<size_t> counts = {1, 2, 4, 8};
  std::vector<WorkerRun> runs;
  for (size_t workers : counts) {
    ScenarioRun run = RunScenarioWithTweaks(
        cfg,
        {{ExecStrategy::kForerunner, [workers](NodeOptions* o) {
            o->spec_workers = workers;
            // Decouple AP availability from measured wall time so outcomes are
            // comparable exactly; the wall cost is still fully accounted below.
            o->speculation_time_scale = 0;
          }}},
        /*duration_override=*/120);
    RequireConsistentRoots(run.report);
    runs.push_back(WorkerRun{workers, std::move(run)});
  }

  bool identical = true;
  bool ok = true;
  const NodeRunStats& serial = runs[0].run.report.nodes[1];
  JsonValue rows = JsonValue::Array();
  std::printf("\n%-8s %14s %14s %12s %16s %12s %12s\n", "workers", "spec CPU (s)",
              "CPU wall (s)", "speedup", "stopwatch (s)", "imbalance", "accelerated");
  for (const WorkerRun& wr : runs) {
    const NodeRunStats& node = wr.run.report.nodes[1];
    if (!SameRecords(serial.records, node.records, wr.workers)) {
      identical = false;
    }
    if (node.futures_speculated != serial.futures_speculated ||
        node.synthesis_failures != serial.synthesis_failures) {
      std::printf("FAIL: %zu workers speculated %lu futures (%lu bails) vs %lu (%lu)\n",
                  wr.workers, (unsigned long)node.futures_speculated,
                  (unsigned long)node.synthesis_failures,
                  (unsigned long)serial.futures_speculated,
                  (unsigned long)serial.synthesis_failures);
      identical = false;
    }
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
    std::printf("%-8zu %14.3f %14.3f %11.2fx %16.3f %12.2f %12zu\n", wr.workers,
                node.speculation_seconds, node.speculation_wall_seconds, speedup,
                node.speculation_measured_wall_seconds,
                SpecWorkerImbalance(node.spec_worker_stats), accelerated);
    JsonValue row = JsonValue::Object();
    row.Set("workers", static_cast<uint64_t>(wr.workers));
    row.Set("speculation_cpu_seconds", node.speculation_seconds);
    row.Set("speculation_wall_seconds", node.speculation_wall_seconds);
    row.Set("wall_speedup", speedup);
    row.Set("measured_wall_seconds", node.speculation_measured_wall_seconds);
    row.Set("imbalance", SpecWorkerImbalance(node.spec_worker_stats));
    row.Set("accelerated", static_cast<uint64_t>(accelerated));
    rows.Append(std::move(row));
  }

  const NodeRunStats& four = runs[2].run.report.nodes[1];
  double four_serial_cost = SumSpecWorkerStats(four.spec_worker_stats).busy_seconds;
  double speedup4 = four.speculation_wall_seconds > 0
                        ? four_serial_cost / four.speculation_wall_seconds
                        : 0.0;
  std::printf("\nspeculation-phase CPU wall speedup at 4 workers vs 1: %.2fx (target >= 2x)\n",
              speedup4);
  // Stopwatch walls of two runs: ungated, since the 4-worker run shares the
  // host's cores with everything else on it.
  const double measured1 = runs[0].run.report.nodes[1].speculation_measured_wall_seconds;
  const double measured4 = four.speculation_measured_wall_seconds;
  const double measured_ratio = measured4 > 0 ? measured1 / measured4 : 0.0;
  std::printf("speculation-phase stopwatch wall at 1 vs 4 workers: %.3f s / %.3f s = %.2fx "
              "(reported, not gated)\n",
              measured1, measured4, measured_ratio);
  if (speedup4 < 2.0) {
    std::printf("FAIL: 4-worker speculation CPU wall speedup below 2x\n");
    ok = false;
  }
  std::printf("state roots + per-tx outcomes identical across {1,2,4,8} workers: %s\n",
              identical ? "yes" : "NO");
  ok = ok && identical;
  std::printf("%s\n", ok ? "PASS" : "FAIL");

  JsonValue payload = JsonValue::Object();
  payload.Set("scenario", cfg.name);
  payload.Set("tx_rate", cfg.tx_rate);
  payload.Set("worker_runs", std::move(rows));
  payload.Set("speedup_4_workers", speedup4);
  payload.Set("measured_speedup_4_workers", measured_ratio);
  payload.Set("deterministic", identical);
  payload.Set("pass", ok);
  payload.Set("trace_events", static_cast<uint64_t>(TraceCollector::Global().event_count()));
  FinishObservability(args, "spec_pool", std::move(payload));
  return ok ? EXIT_SUCCESS : EXIT_FAILURE;
}

#include "src/forerunner/spec_pool.h"

#include <algorithm>

#include "src/common/clock.h"
#include "src/obs/registry.h"
#include "src/obs/trace.h"

namespace frn {

SpecWorkerStats SumSpecWorkerStats(const std::vector<SpecWorkerStats>& workers) {
  SpecWorkerStats sum;
  for (const SpecWorkerStats& w : workers) {
    sum.jobs += w.jobs;
    sum.futures += w.futures;
    sum.busy_seconds += w.busy_seconds;
    sum.queue_wait_seconds += w.queue_wait_seconds;
  }
  return sum;
}

double SpecWorkerImbalance(const std::vector<SpecWorkerStats>& workers) {
  double busiest = 0;
  double total = 0;
  size_t active = 0;
  for (const SpecWorkerStats& w : workers) {
    if (w.jobs == 0) {
      continue;
    }
    busiest = std::max(busiest, w.busy_seconds);
    total += w.busy_seconds;
    ++active;
  }
  if (active == 0 || total <= 0) {
    return 1.0;
  }
  return busiest / (total / static_cast<double>(active));
}

SpecPool::SpecPool(Mpt* trie, const Speculator::Options& options, size_t workers,
                   VersionedState* versioned)
    : speculator_(trie, options, versioned),
      pool_(workers),
      worker_stats_(pool_.threads()) {}

void SpecPool::ExecuteJob(SpecJob& job, SpecJobResult& result, size_t worker) const {
  static SecondsCounter* job_wall = MetricsRegistry::Global().GetSeconds("spec.job_wall_seconds");
  static Counter* jobs_counter = MetricsRegistry::Global().GetCounter("spec.jobs");
  static Counter* futures_counter = MetricsRegistry::Global().GetCounter("spec.futures");
  static ExpHistogram* job_hist = MetricsRegistry::Global().GetHistogram("spec.job_seconds");
  TraceCollector* collector = &TraceCollector::Global();
  // Span + mirror sit outside the thread-CPU measurement, so tracing overhead
  // never leaks into the job cost (exec_seconds) that drives the per-worker
  // accounting.
  TraceSpan span(collector, "spec", "tx.speculate", job_wall,
                 collector->enabled() && collector->SampleTx(job.tx.id));
  ThreadCpuTimer cpu;
  result.spec = std::move(job.spec);
  result.spec.tx_id = job.tx.id;
  result.outcomes.reserve(job.futures.size());
  for (const FutureContext& future : job.futures) {
    SpecFutureOutcome outcome;
    outcome.synthesized = speculator_.SpeculateFuture(job.root, job.tx, future, &result.spec);
    if (outcome.synthesized) {
      outcome.stats = result.spec.last_stats;
    }
    result.outcomes.push_back(outcome);
  }
  result.exec_seconds = cpu.ElapsedSeconds();
  jobs_counter->Add();
  futures_counter->Add(result.outcomes.size());
  job_hist->Record(result.exec_seconds);
  span.AddArg(TraceArg::U64("tx", job.tx.id));
  span.AddArg(TraceArg::U64("worker", worker));
  span.AddArg(TraceArg::U64("futures", result.outcomes.size()));
  span.AddArg(TraceArg::F64("cpu_s", result.exec_seconds));
}

std::vector<SpecJobResult> SpecPool::RunBatch(std::vector<SpecJob> jobs) {
  std::vector<SpecJobResult> results(jobs.size());
  if (jobs.empty()) {
    last_batch_wall_seconds_ = 0;
    return results;
  }

  Stopwatch batch_watch;
  pool_.Run(jobs.size(), [&](size_t j, size_t worker) {
    ExecuteJob(jobs[j], results[j], worker);
  });
  measured_wall_seconds_ += batch_watch.ElapsedSeconds();

  // Per-worker accounting on the coordinator, in job order: job j ran on
  // worker j % workers.
  const size_t workers = pool_.threads();
  std::vector<double> worker_busy(workers, 0.0);
  for (size_t j = 0; j < results.size(); ++j) {
    size_t worker = j % workers;
    SpecJobResult& result = results[j];
    result.worker = worker;
    result.queue_seconds = worker_busy[worker];
    worker_busy[worker] += result.exec_seconds;

    SpecWorkerStats& stats = worker_stats_[worker];
    ++stats.jobs;
    stats.futures += result.outcomes.size();
    stats.busy_seconds += result.exec_seconds;
    stats.queue_wait_seconds += result.queue_seconds;
  }
  last_batch_wall_seconds_ = *std::max_element(worker_busy.begin(), worker_busy.end());
  static Gauge* lane_occupancy = MetricsRegistry::Global().GetGauge("spec.max_lane_occupancy");
  lane_occupancy->SetMax(static_cast<double>((results.size() + workers - 1) / workers));
  return results;
}

}  // namespace frn

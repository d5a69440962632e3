// Shared harness for the evaluation benches: runs a dataset scenario through
// the DiCE emulator with a baseline node plus the requested strategy nodes,
// and provides the aggregate metrics and sample statistics the paper's
// tables/figures report.
#ifndef BENCH_BENCH_UTIL_H_
#define BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "src/obs/json.h"
#include "src/workload/workload.h"

namespace frn {

// ---- Sample statistics for the tables and figures ----

// Accumulates samples; provides mean / percentile / weighted aggregation.
class Samples {
 public:
  void Add(double value, double weight = 1.0) {
    values_.push_back(value);
    weights_.push_back(weight);
    sum_ += value;
    weighted_sum_ += value * weight;
    weight_sum_ += weight;
  }
  size_t count() const { return values_.size(); }
  double sum() const { return sum_; }
  double weight_sum() const { return weight_sum_; }
  double Mean() const { return values_.empty() ? 0.0 : sum_ / values_.size(); }
  double WeightedMean() const { return weight_sum_ == 0 ? 0.0 : weighted_sum_ / weight_sum_; }
  double Percentile(double p) const;
  double Max() const {
    return values_.empty() ? 0.0 : *std::max_element(values_.begin(), values_.end());
  }
  const std::vector<double>& values() const { return values_; }
  const std::vector<double>& weights() const { return weights_; }

 private:
  std::vector<double> values_;
  std::vector<double> weights_;
  double sum_ = 0;
  double weighted_sum_ = 0;
  double weight_sum_ = 0;
};

// Fixed-bucket histogram over [0, bucket_width * n_buckets), with overflow.
class Histogram {
 public:
  Histogram(double bucket_width, size_t n_buckets)
      : bucket_width_(bucket_width), counts_(n_buckets + 1, 0) {}
  void Add(double value) {
    size_t bucket = static_cast<size_t>(value / bucket_width_);
    if (bucket >= counts_.size() - 1) {
      bucket = counts_.size() - 1;
    }
    ++counts_[bucket];
    ++total_;
  }
  size_t total() const { return total_; }
  const std::vector<uint64_t>& counts() const { return counts_; }
  double bucket_width() const { return bucket_width_; }
  // Fraction of samples in bucket i.
  double Fraction(size_t i) const {
    return total_ == 0 ? 0.0 : static_cast<double>(counts_[i]) / static_cast<double>(total_);
  }

 private:
  double bucket_width_;
  std::vector<uint64_t> counts_;
  size_t total_ = 0;
};

// Reverse CDF: fraction of samples strictly exceeding x, evaluated on a grid.
std::vector<std::pair<double, double>> ReverseCdf(const std::vector<double>& samples,
                                                  double x_step, double x_max);

// Renders a bar of width proportional to fraction (for terminal output).
std::string Bar(double fraction, size_t width = 40);

// One metric over repeated runs as "median [min-max]", each number printed
// with two decimals and followed by `unit` (e.g. "3.59x [3.41x-3.71x]").
std::string MedianRange(const Samples& runs, const char* unit);

// ---- Bench harness ----

// Tiny shared CLI for the bench binaries. Recognized flags (in both
// "--flag value" and "--flag=value" form):
//   --json <path>          write the bench's aggregate results as JSON
//   --trace-out <path>     write a Chrome trace_event JSON of the run
//   --stats-out <path>     write the metrics-registry snapshot as JSON
//   --trace-sample <rate>  per-tx span sampling rate in [0,1] (default 1)
// Unrecognized arguments are preserved (in order) in `rest`.
struct BenchArgs {
  std::string json_path;
  std::string trace_out;
  std::string stats_out;
  double trace_sample = 1.0;
  std::vector<std::string> rest;
};

// Parses the shared flags and, when a trace output is requested, arms the
// global TraceCollector (with the requested sampling rate) before the bench
// body runs.
BenchArgs ParseBenchArgs(int argc, char** argv);

// JSON projections of the aggregate structs, for the --json payloads.
struct SpeedupSummary;
struct TxComparison;
JsonValue ToJson(const SpeedupSummary& s);
JsonValue ToJson(const TxComparison& c);

// End-of-bench emission: writes {"bench": name, "results": payload} to
// --json, the captured trace to --trace-out, and the registry snapshot to
// --stats-out (each only when requested). Returns false if any write failed.
bool FinishObservability(const BenchArgs& args, const std::string& bench_name,
                         JsonValue payload);

struct ScenarioRun {
  ScenarioConfig cfg;
  SimReport report;  // nodes[0] is always the baseline
};

// Runs `cfg` with a baseline node plus one node per entry of `extra`.
// `duration_override` > 0 shortens/extends the traffic window.
ScenarioRun RunScenario(ScenarioConfig cfg, const std::vector<ExecStrategy>& extra,
                        double duration_override = 0);

// Like RunScenario, but each extra node gets caller-tweaked options (for
// ablations). The tweak receives defaults already wired to the scenario.
using NodeTweak = std::function<void(NodeOptions*)>;
ScenarioRun RunScenarioWithTweaks(ScenarioConfig cfg,
                                  const std::vector<std::pair<ExecStrategy, NodeTweak>>& extra,
                                  double duration_override = 0);

// Per-transaction comparison of a strategy node against the baseline node.
struct TxComparison {
  uint64_t tx_id;
  double baseline_seconds;
  double strategy_seconds;
  double speedup;  // baseline / strategy
  bool heard;
  bool accelerated;
  bool perfect;
  uint64_t gas_used;
};

std::vector<TxComparison> Compare(const SimReport& report, size_t strategy_node);

// Aggregates per Table 2's rows. Speedups are ratios of total critical-path
// time (equivalently, per-tx speedups weighted by baseline execution time),
// which is what makes "effective speedup" translate into throughput headroom.
struct SpeedupSummary {
  double effective_speedup = 0;   // sum(baseline)/sum(strategy) over heard txs
  double end_to_end_speedup = 0;  // same over all txs
  double mean_tx_speedup = 0;     // unweighted mean of per-tx ratios (heard)
  double satisfied_pct = 0;       // accelerated / heard
  double satisfied_weighted_pct = 0;  // weighted by baseline execution time
  double heard_pct = 0;
  double heard_weighted_pct = 0;
  size_t heard = 0;
  size_t total = 0;
};

SpeedupSummary Summarize(const std::vector<TxComparison>& txs);

// Asserts the §5.2 correctness condition; aborts the bench loudly otherwise.
void RequireConsistentRoots(const SimReport& report);

}  // namespace frn

#endif  // BENCH_BENCH_UTIL_H_

#include "bench/bench_util.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>

#include "src/state/statedb.h"
#include "src/obs/registry.h"
#include "src/obs/trace.h"

namespace frn {

double Samples::Percentile(double p) const {
  if (values_.empty()) {
    return 0.0;
  }
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  size_t lo = static_cast<size_t>(rank);
  size_t hi = std::min(lo + 1, sorted.size() - 1);
  double frac = rank - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

std::vector<std::pair<double, double>> ReverseCdf(const std::vector<double>& samples,
                                                  double x_step, double x_max) {
  std::vector<double> sorted = samples;
  std::sort(sorted.begin(), sorted.end());
  std::vector<std::pair<double, double>> out;
  for (double x = 0.0; x <= x_max + 1e-12; x += x_step) {
    auto it = std::upper_bound(sorted.begin(), sorted.end(), x);
    double exceeding = static_cast<double>(sorted.end() - it);
    out.emplace_back(x, sorted.empty() ? 0.0 : exceeding / static_cast<double>(sorted.size()));
  }
  return out;
}

std::string Bar(double fraction, size_t width) {
  if (fraction < 0) {
    fraction = 0;
  }
  if (fraction > 1) {
    fraction = 1;
  }
  size_t filled = static_cast<size_t>(fraction * static_cast<double>(width) + 0.5);
  std::string out;
  for (size_t i = 0; i < width; ++i) {
    out += (i < filled) ? "#" : ".";
  }
  return out;
}

std::string MedianRange(const Samples& runs, const char* unit) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%.2f%s [%.2f%s-%.2f%s]", runs.Percentile(50), unit,
                runs.Percentile(0), unit, runs.Max(), unit);
  return buf;
}

namespace {

// Accepts "--flag value" and "--flag=value"; returns true when `arg`
// matched `flag` and fills `*value` (consuming argv[i+1] if needed).
bool MatchFlag(const std::string& flag, int argc, char** argv, int* i, std::string* value) {
  std::string arg = argv[*i];
  if (arg == flag) {
    if (*i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", flag.c_str());
      std::exit(EXIT_FAILURE);
    }
    *value = argv[++*i];
    return true;
  }
  if (arg.rfind(flag + "=", 0) == 0) {
    *value = arg.substr(flag.size() + 1);
    return true;
  }
  return false;
}

}  // namespace

BenchArgs ParseBenchArgs(int argc, char** argv) {
  BenchArgs args;
  std::string value;
  for (int i = 1; i < argc; ++i) {
    if (MatchFlag("--json", argc, argv, &i, &args.json_path)) {
    } else if (MatchFlag("--trace-out", argc, argv, &i, &args.trace_out)) {
    } else if (MatchFlag("--stats-out", argc, argv, &i, &args.stats_out)) {
    } else if (MatchFlag("--trace-sample", argc, argv, &i, &value)) {
      args.trace_sample = std::atof(value.c_str());
    } else {
      args.rest.push_back(argv[i]);
    }
  }
  if (!args.trace_out.empty()) {
    TraceCollector::Options options;
    options.sample_rate = args.trace_sample;
    TraceCollector::Global().Enable(options);
  }
  return args;
}

JsonValue ToJson(const SpeedupSummary& s) {
  JsonValue v = JsonValue::Object();
  v.Set("effective_speedup", s.effective_speedup);
  v.Set("end_to_end_speedup", s.end_to_end_speedup);
  v.Set("mean_tx_speedup", s.mean_tx_speedup);
  v.Set("satisfied_pct", s.satisfied_pct);
  v.Set("satisfied_weighted_pct", s.satisfied_weighted_pct);
  v.Set("heard_pct", s.heard_pct);
  v.Set("heard_weighted_pct", s.heard_weighted_pct);
  v.Set("heard", static_cast<uint64_t>(s.heard));
  v.Set("total", static_cast<uint64_t>(s.total));
  return v;
}

JsonValue ToJson(const TxComparison& c) {
  JsonValue v = JsonValue::Object();
  v.Set("tx_id", c.tx_id);
  v.Set("baseline_seconds", c.baseline_seconds);
  v.Set("strategy_seconds", c.strategy_seconds);
  v.Set("speedup", c.speedup);
  v.Set("heard", c.heard);
  v.Set("accelerated", c.accelerated);
  v.Set("perfect", c.perfect);
  v.Set("gas_used", c.gas_used);
  return v;
}

bool FinishObservability(const BenchArgs& args, const std::string& bench_name,
                         JsonValue payload) {
  bool ok = true;
  if (!args.json_path.empty()) {
    JsonValue doc = JsonValue::Object();
    doc.Set("bench", bench_name);
    doc.Set("results", std::move(payload));
    if (!WriteJsonFile(args.json_path, doc)) {
      std::fprintf(stderr, "failed to write %s\n", args.json_path.c_str());
      ok = false;
    } else {
      std::printf("wrote %s\n", args.json_path.c_str());
    }
  }
  if (!args.trace_out.empty()) {
    if (!TraceCollector::Global().WriteChromeTrace(args.trace_out)) {
      std::fprintf(stderr, "failed to write %s\n", args.trace_out.c_str());
      ok = false;
    } else {
      std::printf("wrote %s (%zu events)\n", args.trace_out.c_str(),
                  TraceCollector::Global().event_count());
    }
  }
  if (!args.stats_out.empty()) {
    if (!WriteJsonFile(args.stats_out, MetricsRegistry::Global().Snapshot().ToJson())) {
      std::fprintf(stderr, "failed to write %s\n", args.stats_out.c_str());
      ok = false;
    } else {
      std::printf("wrote %s\n", args.stats_out.c_str());
    }
  }
  return ok;
}

ScenarioRun RunScenario(ScenarioConfig cfg, const std::vector<ExecStrategy>& extra,
                        double duration_override) {
  std::vector<std::pair<ExecStrategy, NodeTweak>> tweaked;
  for (ExecStrategy s : extra) {
    tweaked.emplace_back(s, NodeTweak{});
  }
  return RunScenarioWithTweaks(std::move(cfg), tweaked, duration_override);
}

ScenarioRun RunScenarioWithTweaks(ScenarioConfig cfg,
                                  const std::vector<std::pair<ExecStrategy, NodeTweak>>& extra,
                                  double duration_override) {
  if (duration_override > 0) {
    cfg.duration = duration_override;
  }
  Workload workload(cfg);
  auto traffic = workload.GenerateTraffic();
  DiceSimulator sim(cfg.dice, traffic);
  auto genesis = [&](StateDb* state) { workload.InitGenesis(state); };

  std::vector<std::unique_ptr<Node>> nodes;
  std::vector<Node*> node_ptrs;
  nodes.push_back(std::make_unique<Node>(
      ScenarioNodeOptions(cfg, ExecStrategy::kBaseline, sim.miners()), genesis));
  for (const auto& [s, tweak] : extra) {
    NodeOptions options = ScenarioNodeOptions(cfg, s, sim.miners());
    if (tweak) {
      tweak(&options);
    }
    nodes.push_back(std::make_unique<Node>(options, genesis));
  }
  for (auto& n : nodes) {
    node_ptrs.push_back(n.get());
  }

  ScenarioRun run;
  run.cfg = cfg;
  run.report = sim.Run(node_ptrs, cfg.name);
  RequireConsistentRoots(run.report);
  return run;
}

std::vector<TxComparison> Compare(const SimReport& report, size_t strategy_node) {
  const auto& base = report.nodes[0].records;
  const auto& strat = report.nodes[strategy_node].records;
  std::vector<TxComparison> out;
  out.reserve(base.size());
  for (size_t i = 0; i < base.size() && i < strat.size(); ++i) {
    if (strat[i].on_fork) {
      continue;  // temporary-fork executions are not part of the main chain
    }
    TxComparison c;
    c.tx_id = strat[i].tx_id;
    c.baseline_seconds = base[i].seconds;
    c.strategy_seconds = strat[i].seconds;
    c.speedup = (strat[i].seconds > 0) ? base[i].seconds / strat[i].seconds : 1.0;
    c.heard = strat[i].heard;
    c.accelerated = strat[i].accelerated;
    c.perfect = strat[i].perfect;
    c.gas_used = strat[i].gas_used;
    out.push_back(c);
  }
  return out;
}

SpeedupSummary Summarize(const std::vector<TxComparison>& txs) {
  SpeedupSummary s;
  Samples effective;
  double heard_base_time = 0;
  double heard_strategy_time = 0;
  double total_base_time = 0;
  double total_strategy_time = 0;
  double satisfied_weight = 0;
  size_t satisfied = 0;
  for (const TxComparison& c : txs) {
    total_base_time += c.baseline_seconds;
    total_strategy_time += c.strategy_seconds;
    if (c.heard) {
      effective.Add(c.speedup);
      heard_base_time += c.baseline_seconds;
      heard_strategy_time += c.strategy_seconds;
      if (c.accelerated) {
        ++satisfied;
        satisfied_weight += c.baseline_seconds;
      }
    }
  }
  double heard_weight = heard_base_time;
  double total_weight = total_base_time;
  s.total = txs.size();
  s.heard = effective.count();
  s.mean_tx_speedup = effective.Mean();
  s.effective_speedup = heard_strategy_time > 0 ? heard_base_time / heard_strategy_time : 1.0;
  s.end_to_end_speedup =
      total_strategy_time > 0 ? total_base_time / total_strategy_time : 1.0;
  s.heard_pct = txs.empty() ? 0 : 100.0 * static_cast<double>(s.heard) / txs.size();
  s.heard_weighted_pct = total_weight == 0 ? 0 : 100.0 * heard_weight / total_weight;
  s.satisfied_pct =
      s.heard == 0 ? 0 : 100.0 * static_cast<double>(satisfied) / static_cast<double>(s.heard);
  s.satisfied_weighted_pct = heard_weight == 0 ? 0 : 100.0 * satisfied_weight / heard_weight;
  return s;
}

void RequireConsistentRoots(const SimReport& report) {
  if (!report.roots_consistent) {
    std::fprintf(stderr,
                 "FATAL: state roots diverged between nodes in scenario %s — "
                 "speculative execution broke consensus\n",
                 report.scenario.c_str());
    std::abort();
  }
}

}  // namespace frn

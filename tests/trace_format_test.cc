// Trace-format validation (tentpole acceptance): runs a small scenario with
// tracing at sample rate 1.0, writes the Chrome trace_event JSON, parses it
// back, and asserts structural well-formedness (well-nested spans per thread,
// unique event ids), lifecycle completeness (every accelerated tx has heard /
// speculate / check spans), and that per-phase span-duration sums reconcile
// with the always-on metrics-registry aggregates.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/obs/registry.h"
#include "src/obs/trace.h"
#include "src/workload/workload.h"

namespace frn {
namespace {

struct ParsedEvent {
  std::string name;
  std::string ph;
  double ts = 0;
  double dur = 0;
  uint64_t tid = 0;
  uint64_t id = 0;
  const JsonValue* args = nullptr;
};

// One traced scenario run, shared by every test in this binary.
struct TraceRun {
  JsonValue doc;                    // parsed back from the written file
  std::vector<ParsedEvent> events;  // non-metadata events
  std::vector<TxExecRecord> records;
  MetricsSnapshot stats;
  size_t dropped = 0;
  bool roots_consistent = false;
};

TraceRun RunTracedScenario() {
  // Fresh counters + fresh capture: the reconciliation checks below compare
  // exact totals, so nothing from other tests may leak in.
  MetricsRegistry::Global().Reset();
  TraceCollector::Options trace_options;
  trace_options.sample_rate = 1.0;
  TraceCollector::Global().Enable(trace_options);

  ScenarioConfig cfg = ScenarioByName("L1");
  cfg.seed = 0x7ace;
  cfg.duration = 30;
  cfg.tx_rate = 2.5;
  cfg.n_users = 60;
  cfg.cold_read_latency = std::chrono::nanoseconds(0);
  cfg.dice.seed = 0x5eed;

  TraceRun out;
  {
    Workload workload(cfg);
    auto traffic = workload.GenerateTraffic();
    DiceSimulator sim(cfg.dice, traffic);
    auto genesis = [&](StateDb* state) { workload.InitGenesis(state); };
    auto make_options = [&](ExecStrategy strategy) {
      NodeOptions options = ScenarioNodeOptions(cfg, strategy, sim.miners());
      options.spec_workers = 4;
      options.speculation_time_scale = 0;
      return options;
    };
    Node baseline(make_options(ExecStrategy::kBaseline), genesis);
    Node forerunner(make_options(ExecStrategy::kForerunner), genesis);
    SimReport report = sim.Run({&baseline, &forerunner}, cfg.name);
    out.records = report.nodes[1].records;
    out.roots_consistent = report.roots_consistent;
  }  // nodes destroyed: SpecPool executors joined, no in-flight Emit remains

  // Keyed by the current test name: ctest runs each case as its own process,
  // and a shared fixed path lets concurrently-scheduled cases tear each
  // other's half-written JSON.
  std::string path = testing::TempDir() + "/trace_format_" +
                     testing::UnitTest::GetInstance()->current_test_info()->name() +
                     ".json";
  EXPECT_TRUE(TraceCollector::Global().WriteChromeTrace(path));
  out.dropped = TraceCollector::Global().dropped_events();
  out.stats = MetricsRegistry::Global().Snapshot();
  TraceCollector::Global().Disable();

  std::string err;
  EXPECT_TRUE(ReadJsonFile(path, &out.doc, &err)) << err;
  const JsonValue* events = out.doc.Find("traceEvents");
  if (events != nullptr) {
    for (size_t i = 0; i < events->size(); ++i) {
      const JsonValue& e = events->at(i);
      ParsedEvent p;
      p.name = e.Find("name") ? e.Find("name")->AsString() : "";
      p.ph = e.Find("ph") ? e.Find("ph")->AsString() : "";
      if (p.ph == "M") {
        continue;  // thread_name metadata carries no id/ts semantics
      }
      p.ts = e.Find("ts") ? e.Find("ts")->AsDouble() : 0;
      p.dur = e.Find("dur") ? e.Find("dur")->AsDouble() : 0;
      p.tid = e.Find("tid") ? e.Find("tid")->AsU64() : 0;
      p.args = e.Find("args");
      p.id = (p.args && p.args->Find("id")) ? p.args->Find("id")->AsU64() : 0;
      out.events.push_back(p);
    }
  }
  return out;
}

const TraceRun& GetRun() {
  static TraceRun* run = new TraceRun(RunTracedScenario());
  return *run;
}

uint64_t ArgU64(const ParsedEvent& e, const std::string& key) {
  const JsonValue* v = e.args ? e.args->Find(key) : nullptr;
  return v ? v->AsU64() : ~0ull;
}

TEST(TraceFormatTest, DocumentIsWellFormed) {
  const TraceRun& run = GetRun();
  ASSERT_TRUE(run.roots_consistent);
  EXPECT_EQ(run.dropped, 0u);
  const JsonValue* unit = run.doc.Find("displayTimeUnit");
  ASSERT_NE(unit, nullptr);
  EXPECT_EQ(unit->AsString(), "ms");
  ASSERT_FALSE(run.events.empty());
  for (const ParsedEvent& e : run.events) {
    EXPECT_TRUE(e.ph == "X" || e.ph == "i") << e.name;
    EXPECT_FALSE(e.name.empty());
    EXPECT_GE(e.ts, 0.0) << e.name;
    EXPECT_GE(e.tid, 1u) << e.name;
    if (e.ph == "X") {
      EXPECT_GE(e.dur, 0.0) << e.name;
    }
  }
}

TEST(TraceFormatTest, EventIdsAreUnique) {
  const TraceRun& run = GetRun();
  std::set<uint64_t> ids;
  for (const ParsedEvent& e : run.events) {
    EXPECT_GT(e.id, 0u) << e.name;
    EXPECT_TRUE(ids.insert(e.id).second) << "duplicate id " << e.id << " on " << e.name;
  }
}

TEST(TraceFormatTest, SpansAreWellNestedPerThread) {
  const TraceRun& run = GetRun();
  std::map<uint64_t, std::vector<const ParsedEvent*>> by_tid;
  for (const ParsedEvent& e : run.events) {
    if (e.ph == "X") {
      by_tid[e.tid].push_back(&e);
    }
  }
  ASSERT_FALSE(by_tid.empty());
  // Spans on one thread come from RAII scopes on one call stack, so any two
  // must be disjoint or contained. Epsilon absorbs the sub-µs skew between a
  // span's ts clock read and its duration stopwatch.
  constexpr double kEpsUs = 10.0;
  for (auto& [tid, spans] : by_tid) {
    std::stable_sort(spans.begin(), spans.end(),
                     [](const ParsedEvent* a, const ParsedEvent* b) {
                       if (a->ts != b->ts) {
                         return a->ts < b->ts;
                       }
                       return a->dur > b->dur;  // open parent before child
                     });
    std::vector<const ParsedEvent*> stack;
    for (const ParsedEvent* e : spans) {
      while (!stack.empty() && stack.back()->ts + stack.back()->dur <= e->ts + kEpsUs) {
        stack.pop_back();
      }
      if (!stack.empty()) {
        const ParsedEvent* parent = stack.back();
        EXPECT_LE(e->ts + e->dur, parent->ts + parent->dur + kEpsUs)
            << e->name << " overlaps " << parent->name << " on tid " << tid
            << " without nesting";
      }
      stack.push_back(e);
    }
  }
}

TEST(TraceFormatTest, AcceleratedTxsHaveFullLifecycle) {
  const TraceRun& run = GetRun();
  std::set<uint64_t> heard;
  std::set<uint64_t> speculated;
  std::set<uint64_t> checked;
  std::set<uint64_t> executed;
  for (const ParsedEvent& e : run.events) {
    if (e.name == "tx.heard") {
      heard.insert(ArgU64(e, "tx"));
    } else if (e.name == "tx.speculate") {
      speculated.insert(ArgU64(e, "tx"));
    } else if (e.name == "tx.check") {
      checked.insert(ArgU64(e, "tx"));
    } else if (e.name == "tx.exec") {
      executed.insert(ArgU64(e, "tx"));
    }
  }
  size_t accelerated = 0;
  for (const TxExecRecord& r : run.records) {
    EXPECT_TRUE(checked.count(r.tx_id)) << "tx " << r.tx_id << " has no check span";
    EXPECT_TRUE(executed.count(r.tx_id)) << "tx " << r.tx_id << " has no exec span";
    if (r.accelerated) {
      ++accelerated;
      // Acceleration requires a prior prediction hit (heard on the mempool)
      // and a speculative pre-execution whose AP passed the constraint check.
      EXPECT_TRUE(heard.count(r.tx_id)) << "accelerated tx " << r.tx_id << " never heard";
      EXPECT_TRUE(speculated.count(r.tx_id))
          << "accelerated tx " << r.tx_id << " has no speculation span";
    }
  }
  EXPECT_GT(accelerated, 0u) << "scenario produced no accelerated txs to validate";
}

TEST(TraceFormatTest, SpanCountsReconcileWithCounters) {
  const TraceRun& run = GetRun();
  std::map<std::string, uint64_t> span_counts;
  for (const ParsedEvent& e : run.events) {
    ++span_counts[e.name];
  }
  // At sample rate 1.0 every instrumented site emits both the span and the
  // counter increment, so the totals must agree exactly.
  EXPECT_EQ(span_counts["tx.speculate"], run.stats.counters.at("spec.jobs"));
  EXPECT_EQ(span_counts["tx.check"], run.stats.counters.at("accel.checks"));
  EXPECT_EQ(span_counts["tx.exec"], run.stats.counters.at("exec.txs"));
  EXPECT_EQ(span_counts["block.exec"], run.stats.counters.at("exec.blocks"));
  EXPECT_EQ(span_counts["block.commit"], run.stats.counters.at("exec.blocks"));
  EXPECT_EQ(span_counts["tx.heard"], run.stats.counters.at("mempool.heard"));
  EXPECT_EQ(span_counts["round.predict"], run.stats.counters.at("predict.rounds"));
}

TEST(TraceFormatTest, SpanDurationsReconcileWithSecondsCounters) {
  const TraceRun& run = GetRun();
  std::map<std::string, double> span_seconds;
  for (const ParsedEvent& e : run.events) {
    if (e.ph == "X") {
      span_seconds[e.name] += e.dur * 1e-6;
    }
  }
  // Each span's duration and its mirror counter derive from the same
  // stopwatch reading, so the sums differ only by µs-conversion rounding.
  const std::vector<std::pair<const char*, const char*>> pairs = {
      {"tx.speculate", "spec.job_wall_seconds"},
      {"tx.check", "accel.check_wall_seconds"},
      {"tx.exec", "exec.tx_wall_seconds"},
      {"block.exec", "exec.block_wall_seconds"},
      {"block.commit", "exec.commit_wall_seconds"},
      {"round.predict", "predict.wall_seconds"},
      {"round.speculate", "spec.round_wall_seconds"},
  };
  for (const auto& [span, counter] : pairs) {
    ASSERT_TRUE(run.stats.seconds.count(counter)) << counter;
    double from_trace = span_seconds[span];
    double from_registry = run.stats.seconds.at(counter);
    EXPECT_NEAR(from_trace, from_registry, 1e-6 * std::max(1.0, from_registry))
        << span << " vs " << counter;
  }
}

TEST(TraceFormatTest, HistogramAggregatesMatchSpanPopulation) {
  const TraceRun& run = GetRun();
  size_t exec_spans = 0;
  for (const ParsedEvent& e : run.events) {
    exec_spans += (e.name == "tx.exec") ? 1 : 0;
  }
  ASSERT_TRUE(run.stats.histograms.count("exec.tx_seconds"));
  const HistogramSnapshot& h = run.stats.histograms.at("exec.tx_seconds");
  EXPECT_EQ(h.count, exec_spans);
  EXPECT_GE(h.max, h.min);
  EXPECT_GE(h.Percentile(95), h.Percentile(50));
}

}  // namespace
}  // namespace frn

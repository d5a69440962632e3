// forerunner_sim — command-line driver for the emulated Forerunner deployment.
//
// Usage:
//   forerunner_sim run [--scenario L1] [--strategy forerunner|baseline|
//                       perfect|perfect-multi] [--duration SECONDS]
//                      [--fork-depth N] [--persist-dir DIR]
//                      [--commit-workers N] [--record FILE] [--trace-out FILE]
//                      [--stats-out FILE] [--trace-sample RATE]
//   forerunner_sim replay --from FILE [--strategy ...] [--commit-workers N]
//                         [--trace-out FILE] [--stats-out FILE]
//   forerunner_sim recover --persist-dir DIR
//   forerunner_sim scenarios
//
// `run` drives live emulated traffic through a baseline node plus the chosen
// strategy node and prints the summary; with --record the traffic and chain
// are captured to a replayable file. `replay` re-executes a recorded run.
// --trace-out captures the transaction-lifecycle spans as Chrome trace_event
// JSON (load it in chrome://tracing or feed it to tools/trace_summary.py);
// --stats-out writes the strategy node's stats plus the global metrics
// registry snapshot. --commit-workers N runs the strategy node's trie commit
// on N fold workers, so the "roots consistent" line doubles as a
// worker-count identity check against the baseline. --persist-dir attaches
// an append-only segment log under DIR; a later `recover` run (or another
// `run` over the same DIR) reopens the store at the persisted head root.
//
// Bad input is rejected, never defaulted: an unknown subcommand, flag,
// scenario (on the command line or named by a recording) or strategy, or a
// malformed number, prints the error and the usage and exits 2.
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "bench/bench_util.h"
#include "src/state/statedb.h"
#include "src/obs/trace.h"
#include "src/replay/recording.h"
#include "src/trie/persist.h"

using namespace frn;

namespace {

// Each commit worker is an OS thread; a typo must not spawn thousands.
constexpr size_t kMaxCommitWorkers = 256;

bool ParseStrategy(const std::string& name, ExecStrategy* out) {
  if (name == "forerunner") {
    *out = ExecStrategy::kForerunner;
  } else if (name == "baseline") {
    *out = ExecStrategy::kBaseline;
  } else if (name == "perfect") {
    *out = ExecStrategy::kPerfectMatch;
  } else if (name == "perfect-multi") {
    *out = ExecStrategy::kPerfectMulti;
  } else {
    return false;
  }
  return true;
}

// Whole-string numeric parses: trailing garbage, a sign on a count, an empty
// value, or a negative or non-finite real is an error, not a prefix or a zero.
bool ParseSize(const std::string& text, size_t* out) {
  if (text.empty() || text[0] < '0' || text[0] > '9') {
    return false;
  }
  char* end = nullptr;
  errno = 0;
  unsigned long long value = std::strtoull(text.c_str(), &end, 10);
  if (errno != 0 || *end != '\0') {
    return false;
  }
  *out = static_cast<size_t>(value);
  return true;
}

bool ParseDouble(const std::string& text, double* out) {
  if (text.empty()) {
    return false;
  }
  char* end = nullptr;
  errno = 0;
  double value = std::strtod(text.c_str(), &end);
  if (errno != 0 || *end != '\0' || !std::isfinite(value) || value < 0) {
    return false;
  }
  *out = value;
  return true;
}

void PrintSummary(const SimReport& report, size_t node_index) {
  SpeedupSummary s = Summarize(Compare(report, node_index));
  std::printf("blocks:               %lu\n", (unsigned long)report.blocks);
  std::printf("transactions:         %lu\n", (unsigned long)report.txs_packed);
  std::printf("heard:                %.2f%% (%.2f%% weighted)\n", s.heard_pct,
              s.heard_weighted_pct);
  std::printf("constraints satisfied: %.2f%% (%.2f%% weighted)\n", s.satisfied_pct,
              s.satisfied_weighted_pct);
  std::printf("effective speedup:    %.2fx\n", s.effective_speedup);
  std::printf("end-to-end speedup:   %.2fx\n", s.end_to_end_speedup);
  std::printf("roots consistent:     %s\n", report.roots_consistent ? "yes" : "NO (BUG)");
}

int Usage(const std::string& error = "") {
  if (!error.empty()) {
    std::fprintf(stderr, "forerunner_sim: %s\n", error.c_str());
  }
  std::string scenarios;
  for (const std::string& name : AllScenarioNames()) {
    scenarios += (scenarios.empty() ? "" : "|") + name;
  }
  std::fprintf(stderr,
               "usage:\n"
               "  forerunner_sim run [--scenario %s] "
               "[--strategy forerunner|baseline|perfect|perfect-multi] "
               "[--duration SEC] [--fork-depth N] [--persist-dir DIR] "
               "[--commit-workers N] [--record FILE] "
               "[--trace-out FILE] [--stats-out FILE] [--trace-sample RATE]\n"
               "  forerunner_sim replay --from FILE [--strategy forerunner] "
               "[--commit-workers N] [--trace-out FILE] [--stats-out FILE]\n"
               "  forerunner_sim recover --persist-dir DIR\n"
               "  forerunner_sim scenarios\n",
               scenarios.c_str());
  return 2;
}

// Writes the requested trace / stats outputs after a run; returns false if a
// write failed (the caller turns that into a nonzero exit).
bool WriteObservability(const std::string& trace_out, const std::string& stats_out,
                        const Node& node) {
  bool ok = true;
  if (!trace_out.empty()) {
    if (!TraceCollector::Global().WriteChromeTrace(trace_out)) {
      std::fprintf(stderr, "failed to write %s\n", trace_out.c_str());
      ok = false;
    } else {
      std::printf("trace written to %s (%zu events)\n", trace_out.c_str(),
                  TraceCollector::Global().event_count());
    }
  }
  if (!stats_out.empty()) {
    if (!node.WriteStatsJson(stats_out)) {
      std::fprintf(stderr, "failed to write %s\n", stats_out.c_str());
      ok = false;
    } else {
      std::printf("stats written to %s\n", stats_out.c_str());
    }
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    return Usage();
  }
  std::string command = argv[1];
  if (command != "run" && command != "replay" && command != "recover" &&
      command != "scenarios") {
    return Usage("unknown command '" + command + "'");
  }
  std::string scenario = "L1";
  std::string strategy_name = "forerunner";
  std::string record_path;
  std::string from_path;
  std::string trace_out;
  std::string stats_out;
  double trace_sample = 1.0;
  double duration = 0;
  size_t fork_depth = 0;
  std::string persist_dir;
  size_t commit_workers = 0;
  if (argc % 2 != 0) {
    return Usage(std::string("flag ") + argv[argc - 1] + " has no value");
  }
  for (int i = 2; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    bool number_ok = true;
    if (flag == "--scenario") {
      scenario = value;
    } else if (flag == "--strategy") {
      strategy_name = value;
    } else if (flag == "--duration") {
      number_ok = ParseDouble(value, &duration);
    } else if (flag == "--fork-depth") {
      number_ok = ParseSize(value, &fork_depth);
    } else if (flag == "--persist-dir") {
      persist_dir = value;
    } else if (flag == "--commit-workers") {
      number_ok = ParseSize(value, &commit_workers);
    } else if (flag == "--record") {
      record_path = value;
    } else if (flag == "--from") {
      from_path = value;
    } else if (flag == "--trace-out") {
      trace_out = value;
    } else if (flag == "--stats-out") {
      stats_out = value;
    } else if (flag == "--trace-sample") {
      number_ok = ParseDouble(value, &trace_sample);
    } else {
      return Usage("unknown flag " + flag);
    }
    if (!number_ok) {
      return Usage("invalid value '" + value + "' for " + flag);
    }
  }
  if (!IsScenarioName(scenario)) {
    return Usage("unknown scenario '" + scenario + "'");
  }
  if (commit_workers > kMaxCommitWorkers) {
    return Usage("--commit-workers " + std::to_string(commit_workers) + " exceeds " +
                 std::to_string(kMaxCommitWorkers));
  }
  ExecStrategy strategy = ExecStrategy::kForerunner;
  if (!ParseStrategy(strategy_name, &strategy)) {
    return Usage("unknown strategy '" + strategy_name + "'");
  }
  if (!trace_out.empty()) {
    TraceCollector::Options trace_options;
    trace_options.sample_rate = trace_sample;
    TraceCollector::Global().Enable(trace_options);
  }

  if (command == "scenarios") {
    std::printf("available scenarios (datasets):\n");
    for (const std::string& name : AllScenarioNames()) {
      ScenarioConfig cfg = ScenarioByName(name);
      std::printf("  %-4s seed=%#lx rate=%.1f tx/s duration=%.0fs contention=%.2f\n",
                  name.c_str(), (unsigned long)cfg.seed, cfg.tx_rate, cfg.duration,
                  cfg.contention);
    }
    return 0;
  }

  if (command == "recover") {
    if (persist_dir.empty()) {
      return Usage();
    }
    std::string error;
    std::unique_ptr<PersistLog> log = PersistLog::Open(persist_dir, &error);
    if (log == nullptr) {
      std::fprintf(stderr, "recover: %s\n", error.c_str());
      return 1;
    }
    if (!log->has_head()) {
      std::fprintf(stderr, "recover: no head marker in %s\n", persist_dir.c_str());
      return 1;
    }
    // Replaying the segment log through a fresh store is the whole recovery:
    // if the head root's trie node survived, every node under it did too
    // (blobs are appended before the head marker that references them).
    KvStore::Options store_options;
    store_options.persist = log.get();
    KvStore store(store_options);
    const PersistLogStats& stats = log->stats();
    std::printf("replayed %lu blobs across %lu segments (%lu truncated records)\n",
                (unsigned long)stats.blobs_replayed, (unsigned long)stats.segments_replayed,
                (unsigned long)stats.truncated_records);
    std::printf("recovered head root: %s height %lu\n", log->head_root().ToHex().c_str(),
                (unsigned long)log->head_height());
    bool ok = log->head_root() == Mpt::EmptyRoot() || store.Contains(log->head_root());
    std::printf("recovery check: %s\n", ok ? "ok" : "FAILED (head root missing from replayed store)");
    return ok ? 0 : 1;
  }

  std::unique_ptr<PersistLog> persist_log;
  if (!persist_dir.empty()) {
    std::string error;
    persist_log = PersistLog::Open(persist_dir, &error);
    if (persist_log == nullptr) {
      std::fprintf(stderr, "failed to open persist dir: %s\n", error.c_str());
      return 1;
    }
  }

  if (command == "run") {
    ScenarioConfig cfg = ScenarioByName(scenario);
    if (duration > 0) {
      cfg.duration = duration;
    }
    if (fork_depth > 0) {
      cfg.dice.max_fork_depth = fork_depth;
    }
    std::printf("running scenario %s with strategy '%s'...\n", cfg.name.c_str(),
                StrategyName(strategy));
    Workload workload(cfg);
    auto traffic = workload.GenerateTraffic();
    DiceSimulator sim(cfg.dice, traffic);
    auto genesis = [&](StateDb* state) { workload.InitGenesis(state); };
    NodeOptions strategy_options = ScenarioNodeOptions(cfg, strategy, sim.miners());
    strategy_options.store.persist = persist_log.get();
    if (commit_workers > 0) {
      strategy_options.chain.commit_workers = commit_workers;
    }
    Node baseline(ScenarioNodeOptions(cfg, ExecStrategy::kBaseline, sim.miners()), genesis);
    Node node(strategy_options, genesis);
    SimReport report = sim.Run({&baseline, &node}, cfg.name);
    PrintSummary(report, 1);
    if (persist_log != nullptr) {
      std::printf("persisted head root: %s height %lu\n",
                  persist_log->head_root().ToHex().c_str(),
                  (unsigned long)persist_log->head_height());
    }
    if (!record_path.empty()) {
      Recording recording = CaptureRecording(report, traffic);
      if (!WriteRecording(recording, record_path)) {
        std::fprintf(stderr, "failed to write recording to %s\n", record_path.c_str());
        return 1;
      }
      std::printf("recording written to %s (%zu heard txs, %zu blocks)\n",
                  record_path.c_str(), recording.heard.size(), recording.blocks.size());
    }
    bool obs_ok = WriteObservability(trace_out, stats_out, node);
    return (report.roots_consistent && obs_ok) ? 0 : 1;
  }

  if (command == "replay") {
    if (from_path.empty()) {
      return Usage();
    }
    Recording recording;
    if (!ReadRecording(from_path, &recording)) {
      std::fprintf(stderr, "failed to read recording from %s\n", from_path.c_str());
      return 1;
    }
    // The scenario name stored in the recording selects the genesis world.
    if (!IsScenarioName(recording.scenario)) {
      return Usage("recording " + from_path + " names unknown scenario '" +
                   recording.scenario + "'");
    }
    ScenarioConfig cfg = ScenarioByName(recording.scenario);
    std::printf("replaying %s (%zu blocks) with strategy '%s'...\n",
                recording.scenario.c_str(), recording.blocks.size(),
                StrategyName(strategy));
    Workload workload(cfg);
    DiceSimulator sim(cfg.dice, {});  // miner candidates for the predictor
    auto genesis = [&](StateDb* state) { workload.InitGenesis(state); };
    NodeOptions strategy_options = ScenarioNodeOptions(cfg, strategy, sim.miners());
    strategy_options.store.persist = persist_log.get();
    if (commit_workers > 0) {
      strategy_options.chain.commit_workers = commit_workers;
    }
    Node baseline(ScenarioNodeOptions(cfg, ExecStrategy::kBaseline, sim.miners()), genesis);
    Node node(strategy_options, genesis);
    SimReport report = ReplayRecording(recording, {&baseline, &node});
    PrintSummary(report, 1);
    bool obs_ok = WriteObservability(trace_out, stats_out, node);
    return (report.roots_consistent && obs_ok) ? 0 : 1;
  }

  return Usage();
}

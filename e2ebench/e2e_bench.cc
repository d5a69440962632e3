// Replay-pinned end-to-end benchmark: a baseline node and a Forerunner node
// whose NodeOptions differ only in `strategy` replay the same recorded traffic
// and main chain, block by block, interleaved. Every public Node call is timed
// from outside the program; nothing here reads the modeled walls
// (BlockExecReport::total_seconds, NodeRunStats).
//
//   e2e_bench --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]
//
// The last stdout line is one JSON object {correct, attempted, failed,
// metrics}: end-to-end metrics with --trace 0, per-layer metrics with
// --trace 1. --out receives the full result (and, traced, every span).
// See e2ebench/README.md for the workloads, metric definitions and bounds.
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include <sys/resource.h>

#include "src/common/clock.h"
#include "src/crypto/keccak.h"
#include "src/forerunner/node.h"
#include "src/obs/json.h"
#include "src/obs/registry.h"
#include "src/replay/recording.h"
#include "src/workload/workload.h"

namespace frn {
namespace {

// DiCE's off-critical-path pipeline cadence, in simulated seconds.
constexpr double kPipelinePeriod = 0.25;
// Blocks replayed after set-up and before the measured blocks, so first-call
// costs (first allocations, lazy registrations) stay out of the block
// metrics. They are not timed: the speculation ticks before the first block
// cover an exponentially distributed stretch of simulated time, which made a
// set-up timer that included them vary 0.30-0.77 s across seeds.
constexpr size_t kWarmupBlocks = 1;
// Never 0 (= hardware concurrency, host dependent); 2 keeps the speculation
// load well under the 4 cores of the reference host.
constexpr size_t kSpecWorkers = 2;
// Keccak-256 rounds of the host-speed probe (45-110 ms on the reference
// host, depending on its load).
constexpr int kProbeRounds = 100'000;

struct WorkloadSpec {
  const char* name;
  const char* scenario;  // ScenarioByName traffic profile
  size_t users;          // genesis users; 0 keeps the scenario's
  double tx_rate;        // transactions per second; 0 keeps the scenario's
  // Measured blocks per --seconds: the work of a run is fixed by the seed and
  // --seconds, never by the clock, so both commits replay identical blocks.
  double blocks_per_second;
  size_t setups;  // set-up repetitions; setup_s is their median
};

// Why each workload (README.md has the measurements behind the choices):
//  l1_mix       L1 traffic saturating the 10M gas limit: full blocks, a
//               growing pending pool, a state inside the store's hot set.
//  cold_state   transfer-heavy R3 traffic, raised to 5.5 tx/s so it saturates
//               like L1, over a 5,000-user genesis that overflows the hot set.
// Both keep serial blocks (chain.block_workers = 1): on two workers the
// parallel executor's p90 followed the host's thread scheduling.
const WorkloadSpec kWorkloads[] = {
    {"l1_mix", "L1", 0, 0, 7.5, 11},
    {"cold_state", "R3", 5000, 5.5, 5.0, 3},
};

uint64_t MixSeed(uint64_t base, uint64_t seed) {
  uint64_t x = base ^ (seed * 0x9E3779B97F4A7C15ULL);
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ULL;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(rank));
  size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (rank - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double Median(std::vector<double> values) { return Percentile(std::move(values), 50); }

// Peak resident set of this process (VmHWM; ru_maxrss is in KiB), in MiB.
double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

// A fixed Keccak-256 chain: host speed at the start and end of a run, so a
// shifted run set can be traced to the host rather than to the program.
double HostProbeMs() {
  Stopwatch watch;
  Hash h;
  for (int i = 0; i < kProbeRounds; ++i) {
    h = Keccak256(h.bytes().data(), h.bytes().size());
  }
  double ms = watch.ElapsedSeconds() * 1e3;
  return h.IsZero() ? -ms : ms;  // keeps the chain observable
}

// ---- Inputs ----

struct Inputs {
  ScenarioConfig config;
  std::vector<std::pair<Address, double>> miners;
  Recording recording;  // truncated to exactly the replayed blocks
};

// Traffic and the DiCE main chain, generated once from the seed with no node
// attached; both nodes then replay the identical recording.
bool GenerateInputs(const WorkloadSpec& spec, uint64_t seed, size_t blocks, Inputs* out,
                    std::string* error) {
  ScenarioConfig config = ScenarioByName(spec.scenario);
  config.seed = MixSeed(config.seed, seed);
  config.dice.seed = MixSeed(config.dice.seed, seed);
  if (spec.users != 0) {
    config.n_users = spec.users;
  }
  if (spec.tx_rate != 0) {
    config.tx_rate = spec.tx_rate;
  }
  // No hashing-contract transactions: their lognormal iteration counts (up to
  // 2,500 rounds) make a few pending whales, re-speculated at every head
  // move, decide the off-path cost of a whole run (97-172 ms per block over
  // six L1 seeds, against 139-181 ms over seven seeds without them).
  config.w_hasher = 0;
  // Half again the expected chain length, so the main chain reaches `blocks`
  // whatever the exponential block intervals draw.
  config.duration = 1.5 * static_cast<double>(blocks) * config.dice.mean_block_interval + 60;
  Workload workload(config);
  std::vector<TimedTx> traffic = workload.GenerateTraffic();
  DiceSimulator sim(config.dice, traffic);
  SimReport report = sim.Run({}, spec.name);
  out->config = config;
  out->miners = MinerCandidates(sim.miners());
  out->recording = CaptureRecording(report, traffic);
  if (out->recording.blocks.size() < blocks) {
    *error = "generated chain has " + std::to_string(out->recording.blocks.size()) +
             " blocks, need " + std::to_string(blocks);
    return false;
  }
  out->recording.blocks.resize(blocks);
  out->recording.block_times.resize(blocks);
  return true;
}

NodeOptions MakeOptions(const Inputs& in, ExecStrategy strategy) {
  NodeOptions options;
  options.strategy = strategy;
  options.store.cold_read_latency = in.config.cold_read_latency;
  options.predictor.miners = in.miners;
  options.predictor.mean_block_interval = in.config.dice.mean_block_interval;
  // AP availability must not depend on measured speculation time, or the
  // accelerated set would vary with host speed.
  options.speculation_time_scale = 0;
  options.spec_workers = kSpecWorkers;
  return options;
}

// ---- Counter probes (traced runs) ----

// What the program already exports, read at every Node-call boundary; a
// span's delta attributes the counts to the one node the call ran on.
enum Probe : size_t {
  kAccelChecks,
  kAccelAccelerated,
  kAccelBails,
  kAccelWall,
  kEvmGas,
  kCommitWall,
  kFoldJobs,
  kPredictWall,
  kPredictTxs,
  kPredictFutures,
  kSpecRoundWall,
  kSpecJobWall,
  kSpecFutures,
  kRootSkips,
  kSynthesisFailures,
  kTrieReads,
  kCacheHits,
  kStoreColdReads,
  kStoreStall,
  kCoordinatorCpu,
  kNumProbes
};

constexpr const char* kProbeNames[] = {
    "accel.checks",
    "accel.accelerated",
    "accel.outcome.bail",
    "accel.check_wall_seconds",
    "evm.gas",
    "exec.commit_wall_seconds",
    "commit.fold_jobs",
    "predict.wall_seconds",
    "predict.txs",
    "predict.futures",
    "spec.round_wall_seconds",
    "spec.job_wall_seconds",
    "spec.futures",
    "spec.root_skips",
    "node.synthesis_failures",
    "node.state_trie_reads",
    "node.shared_cache_hits",
    "node.store_cold_reads",
    "node.store_stall_seconds",
    "driver.thread_cpu_seconds",
};

static_assert(std::size(kProbeNames) == kNumProbes);

using ProbeValues = std::array<double, kNumProbes>;

class Probes {
 public:
  Probes() {
    MetricsRegistry& registry = MetricsRegistry::Global();
    for (size_t p : {kAccelChecks, kAccelAccelerated, kAccelBails, kEvmGas, kFoldJobs, kPredictTxs,
                     kPredictFutures, kSpecFutures, kRootSkips}) {
      counters_[p] = registry.GetCounter(kProbeNames[p]);
    }
    for (size_t p : {kAccelWall, kCommitWall, kPredictWall, kSpecRoundWall, kSpecJobWall}) {
      seconds_[p] = registry.GetSeconds(kProbeNames[p]);
    }
  }

  // `store` adds the node's KvStore block (StatsJson), which costs a registry
  // snapshot: it is read around ExecuteBlock calls only.
  ProbeValues Read(const Node& node, bool store) const {
    ProbeValues v{};
    for (size_t p = 0; p < kNumProbes; ++p) {
      if (counters_[p] != nullptr) {
        v[p] = static_cast<double>(counters_[p]->value());
      } else if (seconds_[p] != nullptr) {
        v[p] = seconds_[p]->value();
      }
    }
    v[kSynthesisFailures] = static_cast<double>(node.synthesis_failures());
    StateDbStats state = node.chain_state_stats();
    v[kTrieReads] = static_cast<double>(state.account_trie_reads + state.storage_trie_reads);
    v[kCacheHits] = static_cast<double>(state.shared_cache_hits);
    if (store) {
      JsonValue stats = node.StatsJson();
      const JsonValue* block = stats.Find("node")->Find("store");
      v[kStoreColdReads] = block->Find("cold_reads")->AsDouble();
      v[kStoreStall] = block->Find("stall_seconds")->AsDouble();
    }
    return v;
  }

 private:
  std::array<Counter*, kNumProbes> counters_{};
  std::array<SecondsCounter*, kNumProbes> seconds_{};
};

// ---- Spans ----

enum NodeId : int { kHarness = -1, kBase = 0, kForerunner = 1 };
constexpr const char* kNodeNames[] = {"base", "forerunner"};

struct Span {
  const char* name = "";
  int node = kHarness;
  size_t block = 0;
  double start_us = 0;
  double end_us = 0;
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t items = 0;  // transactions delivered or executed by the call
  ProbeValues delta{};
};

// In-memory span log of a traced run; written out once, at exit.
class Tracer {
 public:
  uint64_t Open(const char* name, int node, size_t block, uint64_t parent) {
    Span span;
    span.name = name;
    span.node = node;
    span.block = block;
    span.id = spans_.size() + 1;
    span.parent = parent;
    span.start_us = epoch_.ElapsedSeconds() * 1e6;
    spans_.push_back(span);
    return span.id;
  }
  Span& Close(uint64_t id) {
    Span& span = spans_[id - 1];
    span.end_us = epoch_.ElapsedSeconds() * 1e6;
    return span;
  }
  const std::vector<Span>& spans() const { return spans_; }
  const Probes& probes() const { return probes_; }

 private:
  Stopwatch epoch_;
  Probes probes_;
  std::vector<Span> spans_;
};

// ---- Replay ----

struct BlockOutcome {
  double exec_s[2] = {0, 0};  // ExecuteBlock wall per node
  double offpath_s = 0;       // Forerunner OnHeard + RunSpeculationPipeline wall
  uint64_t gas = 0;
  uint64_t txs = 0;
  uint64_t accelerated = 0;
  bool ok = true;
};

// Drives both nodes through the recording in the DiCE order: heard
// transactions at their recorded times, a speculation tick every 0.25 s of
// simulated time, then the block on the baseline node and on the Forerunner
// node, then the post-block tick. The loop is closed: the next call is made
// when the previous one returns.
class Replay {
 public:
  Replay(const Recording* recording, Node* base, Node* forerunner)
      : recording_(recording), nodes_{base, forerunner} {}

  void set_tracer(Tracer* tracer) { tracer_ = tracer; }

  BlockOutcome Step(size_t b) {
    BlockOutcome out;
    block_ = b;
    outcome_ = &out;
    parent_ = tracer_ != nullptr ? tracer_->Open("replay.block", kHarness, b, 0) : 0;
    double block_time = recording_->block_times[b];
    for (double t = last_pipeline_ + kPipelinePeriod; t < block_time; t += kPipelinePeriod) {
      Deliver(t);
      Tick(t);
    }
    Deliver(block_time);

    const Block& block = recording_->blocks[b];
    BlockExecReport reports[2];
    for (int n : {kBase, kForerunner}) {
      out.exec_s[n] = Timed("execute_block", n, block.txs.size(), true, [&] {
        reports[n] = nodes_[n]->ExecuteBlock(block, block_time);
      });
    }
    out.ok = reports[kBase].state_root == reports[kForerunner].state_root &&
             reports[kBase].txs.size() == reports[kForerunner].txs.size();
    for (size_t i = 0; out.ok && i < reports[kBase].txs.size(); ++i) {
      const TxExecRecord& a = reports[kBase].txs[i];
      const TxExecRecord& f = reports[kForerunner].txs[i];
      out.ok = a.status == f.status && a.gas_used == f.gas_used;
    }
    for (const TxExecRecord& r : reports[kForerunner].txs) {
      out.gas += r.gas_used;
      out.accelerated += r.accelerated ? 1 : 0;
    }
    out.txs = reports[kForerunner].txs.size();

    Tick(block_time);
    last_pipeline_ = block_time;
    if (tracer_ != nullptr) {
      tracer_->Close(parent_);
    }
    outcome_ = nullptr;
    return out;
  }

 private:
  // Times one Node call from outside; traced runs also record its span and
  // the counter deltas across it (probes are read outside the timed window).
  template <typename Call>
  double Timed(const char* name, int n, uint64_t items, bool store, Call&& call) {
    uint64_t id = 0;
    ProbeValues before{};
    if (tracer_ != nullptr) {
      before = tracer_->probes().Read(*nodes_[n], store);
      id = tracer_->Open(name, n, block_, parent_);
    }
    const double cpu_before = ThreadCpuSeconds();
    Stopwatch watch;
    call();
    double seconds = watch.ElapsedSeconds();
    const double cpu_seconds = ThreadCpuSeconds() - cpu_before;
    if (tracer_ != nullptr) {
      Span& span = tracer_->Close(id);
      ProbeValues after = tracer_->probes().Read(*nodes_[n], store);
      span.items = items;
      for (size_t p = 0; p < kNumProbes; ++p) {
        span.delta[p] = after[p] - before[p];
      }
      span.delta[kCoordinatorCpu] = cpu_seconds;
    }
    return seconds;
  }

  void Deliver(double t) {
    size_t end = next_heard_;
    while (end < recording_->heard.size() && recording_->heard[end].heard_at <= t) {
      ++end;
    }
    if (end == next_heard_) {
      return;
    }
    for (int n : {kBase, kForerunner}) {
      double s = Timed("on_heard", n, end - next_heard_, false, [&] {
        for (size_t i = next_heard_; i < end; ++i) {
          nodes_[n]->OnHeard(recording_->heard[i].tx, recording_->heard[i].heard_at);
        }
      });
      if (n == kForerunner) {
        outcome_->offpath_s += s;
      }
    }
    next_heard_ = end;
  }

  void Tick(double t) {
    for (int n : {kBase, kForerunner}) {
      double s = Timed("speculation_pipeline", n, 0, false,
                       [&] { nodes_[n]->RunSpeculationPipeline(t); });
      if (n == kForerunner) {
        outcome_->offpath_s += s;
      }
    }
  }

  const Recording* recording_;
  std::array<Node*, 2> nodes_;
  Tracer* tracer_ = nullptr;
  size_t next_heard_ = 0;
  double last_pipeline_ = 0;
  size_t block_ = 0;
  uint64_t parent_ = 0;
  BlockOutcome* outcome_ = nullptr;
};

// ---- Per-layer metrics from the span log ----

// The layer split is made here only; layer_table.py prints these metrics.
struct LayerSums {
  ProbeValues exec[2]{};  // summed deltas over execute_block spans, per node
  double exec_wall[2] = {0, 0};
  ProbeValues offpath{};  // Forerunner on_heard + speculation_pipeline
  double heard_wall = 0;
  double pipeline_wall = 0;
  double pipeline_cpu = 0;  // driver-thread CPU inside RunSpeculationPipeline
  uint64_t heard_txs = 0;
};

LayerSums SumLayers(const std::vector<Span>& spans) {
  LayerSums sums;
  for (const Span& span : spans) {
    double wall = (span.end_us - span.start_us) * 1e-6;
    std::string name = span.name;
    if (name == "execute_block") {
      for (size_t p = 0; p < kNumProbes; ++p) {
        sums.exec[span.node][p] += span.delta[p];
      }
      sums.exec_wall[span.node] += wall;
    } else if (span.node == kForerunner) {
      for (size_t p = 0; p < kNumProbes; ++p) {
        sums.offpath[p] += span.delta[p];
      }
      if (name == "on_heard") {
        sums.heard_wall += wall;
        sums.heard_txs += span.items;
      } else {
        sums.pipeline_wall += wall;
        sums.pipeline_cpu += span.delta[kCoordinatorCpu];
      }
    }
  }
  return sums;
}

double SafeRatio(double num, double den) { return den > 0 ? num / den : 0; }

void AddMetric(JsonValue* metrics, const std::string& name, double value, const char* unit) {
  JsonValue m = JsonValue::Object();
  m.Set("value", value);
  m.Set("unit", unit);
  metrics->Set(name, std::move(m));
}

JsonValue LayerMetrics(const LayerSums& s, double blocks) {
  JsonValue m = JsonValue::Object();
  const ProbeValues& fr = s.exec[kForerunner];
  const ProbeValues& off = s.offpath;
  auto per_block = [&](double v) { return v / blocks; };
  auto ms = [&](double seconds) { return per_block(seconds * 1e3); };
  for (int n : {kForerunner, kBase}) {
    const ProbeValues& e = s.exec[n];
    std::string prefix = n == kBase ? "base." : "";
    // ExecuteBlock wall = execute phase (the accelerator loop) + commit +
    // other.
    AddMetric(&m, prefix + "chain_manager.execute_block_ms", ms(s.exec_wall[n]), "ms");
    AddMetric(&m, prefix + "accelerator.exec_ms", ms(e[kAccelWall]), "ms");
    AddMetric(&m, prefix + "state.commit_ms", ms(e[kCommitWall]), "ms");
    AddMetric(&m, prefix + "chain_manager.other_ms",
              ms(s.exec_wall[n] - e[kAccelWall] - e[kCommitWall]), "ms");
    AddMetric(&m, prefix + "evm.mgas", per_block(e[kEvmGas] / 1e6), "Mgas");
    AddMetric(&m, prefix + "trie.cold_reads", per_block(e[kStoreColdReads]), "count");
    AddMetric(&m, prefix + "trie.stall_ms", ms(e[kStoreStall]), "ms");
    AddMetric(&m, prefix + "state.trie_reads", per_block(e[kTrieReads]), "count");
    AddMetric(&m, prefix + "state.cache_hits", per_block(e[kCacheHits]), "count");
  }
  AddMetric(&m, "commit_pool.fold_jobs", per_block(fr[kFoldJobs]), "count");
  AddMetric(&m, "accelerator.fastpath_share", SafeRatio(fr[kAccelAccelerated], fr[kAccelChecks]),
            "ratio");
  AddMetric(&m, "accelerator.bails", per_block(fr[kAccelBails]), "count");

  // Off-path wall = OnHeard + predictor + spec-pool batch + merge/prefetch +
  // the pipeline's own rest. The coordinator's pipeline wall not spent on its
  // own CPU is its wait for the spec pool's worker batch.
  const double batch_s = s.pipeline_wall - s.pipeline_cpu;
  const double merge_s = off[kSpecRoundWall] - batch_s;
  AddMetric(&m, "offpath.wall_ms", ms(s.heard_wall + s.pipeline_wall), "ms");
  AddMetric(&m, "mempool.admit_ms", ms(s.heard_wall), "ms");
  AddMetric(&m, "mempool.admit_us", SafeRatio(s.heard_wall * 1e6, s.heard_txs), "us");
  AddMetric(&m, "predictor.ms", ms(off[kPredictWall]), "ms");
  AddMetric(&m, "predictor.txs", per_block(off[kPredictTxs]), "count");
  AddMetric(&m, "predictor.futures_per_tx", SafeRatio(off[kPredictFutures], off[kPredictTxs]),
            "ratio");
  AddMetric(&m, "spec_pool.batch_ms", ms(batch_s), "ms");
  AddMetric(&m, "spec_pool.cpu_ms", ms(off[kSpecJobWall]), "ms");
  AddMetric(&m, "spec_pool.futures", per_block(off[kSpecFutures]), "count");
  AddMetric(&m, "spec_pool.utilization",
            SafeRatio(off[kSpecJobWall], batch_s * static_cast<double>(kSpecWorkers)), "ratio");
  AddMetric(&m, "speculator.synthesis_failures", per_block(off[kSynthesisFailures]), "count");
  AddMetric(&m, "spec_manager.merge_prefetch_ms", ms(merge_s), "ms");
  AddMetric(&m, "spec_manager.root_skips", per_block(off[kRootSkips]), "count");
  // Job building (SpeculationManager::BuildJobs) and the pipeline's own rest.
  AddMetric(&m, "spec_manager.other_ms",
            ms(s.pipeline_wall - off[kPredictWall] - off[kSpecRoundWall]), "ms");
  return m;
}

JsonValue SpansJson(const std::vector<Span>& spans) {
  JsonValue out = JsonValue::Array();
  for (const Span& span : spans) {
    JsonValue j = JsonValue::Object();
    j.Set("name", span.name);
    j.Set("node", span.node == kHarness ? "-" : kNodeNames[span.node]);
    j.Set("block", static_cast<uint64_t>(span.block));
    j.Set("start_us", span.start_us);
    j.Set("end_us", span.end_us);
    j.Set("id", span.id);
    j.Set("parent", span.parent);
    j.Set("items", span.items);
    JsonValue counts = JsonValue::Object();
    for (size_t p = 0; p < kNumProbes; ++p) {
      if (span.delta[p] != 0) {
        counts.Set(kProbeNames[p], span.delta[p]);
      }
    }
    j.Set("counts", std::move(counts));
    out.Append(std::move(j));
  }
  return out;
}

// ---- Driver ----

// One set-up, timed: inputs generated from the seed and both nodes built from
// the same genesis. The warm-up blocks follow, untimed. Heap-held: the replay
// points into the inputs.
struct Stage {
  Inputs inputs;
  std::unique_ptr<Node> nodes[2];
  std::unique_ptr<Replay> replay;
  std::string fingerprint;  // traffic + chain + genesis root
  double seconds = 0;
  uint64_t failed = 0;
};

std::unique_ptr<Stage> SetUp(const WorkloadSpec& spec, uint64_t seed, size_t blocks,
                             std::string* error) {
  auto stage = std::make_unique<Stage>();
  Stopwatch watch;
  if (!GenerateInputs(spec, seed, blocks, &stage->inputs, error)) {
    return nullptr;
  }
  Workload workload(stage->inputs.config);
  auto genesis = [&workload](StateDb* state) { workload.InitGenesis(state); };
  stage->nodes[kBase] = std::make_unique<Node>(
      MakeOptions(stage->inputs, ExecStrategy::kBaseline), genesis);
  stage->nodes[kForerunner] = std::make_unique<Node>(
      MakeOptions(stage->inputs, ExecStrategy::kForerunner), genesis);
  stage->seconds = watch.ElapsedSeconds();
  const Hash genesis_root = stage->nodes[kBase]->head_root();
  stage->replay = std::make_unique<Replay>(&stage->inputs.recording, stage->nodes[kBase].get(),
                                           stage->nodes[kForerunner].get());
  for (size_t b = 0; b < kWarmupBlocks; ++b) {
    stage->failed += stage->replay->Step(b).ok ? 0 : 1;
  }
  std::string text = SerializeRecording(stage->inputs.recording) + genesis_root.ToHex();
  stage->fingerprint = Keccak256(Bytes(text.begin(), text.end())).ToHex();
  return stage;
}

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  std::string out;
};

int Usage(const char* error) {
  std::fprintf(stderr,
               "e2e_bench: %s\nusage: e2e_bench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--out FILE]\n",
               error);
  return 2;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value, &end, 10);
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value, &end);
    } else if (key == "--trace") {
      args->trace = static_cast<int>(std::strtol(value, &end, 10));
    } else if (key == "--out") {
      args->out = value;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0 &&
         (args->trace == 0 || args->trace == 1);
}

int Run(const Args& args) {
  const WorkloadSpec* spec = nullptr;
  for (const WorkloadSpec& w : kWorkloads) {
    if (args.workload == w.name) {
      spec = &w;
    }
  }
  if (spec == nullptr) {
    return Usage(("unknown workload '" + args.workload + "'").c_str());
  }
  const size_t measured =
      std::max<size_t>(1, static_cast<size_t>(std::ceil(args.seconds * spec->blocks_per_second)));
  const size_t total_blocks = kWarmupBlocks + measured;
  const double probe_start_ms = HostProbeMs();

  // ---- Set-up, repeated: inputs and both geneses, then the warm-up ----
  // Half the repetitions run before the measured blocks and the rest after,
  // so the setup_s median samples the same stretch of host time as the
  // block metrics.
  std::vector<double> setup_seconds;
  std::string fingerprint;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  auto set_up = [&]() -> std::unique_ptr<Stage> {
    std::string error;
    std::unique_ptr<Stage> stage = SetUp(*spec, args.seed, total_blocks, &error);
    if (stage == nullptr) {
      std::fprintf(stderr, "e2e_bench: %s\n", error.c_str());
      return nullptr;
    }
    setup_seconds.push_back(stage->seconds);
    attempted += kWarmupBlocks;
    failed += stage->failed;
    if (!fingerprint.empty() && stage->fingerprint != fingerprint) {
      std::fprintf(stderr, "e2e_bench: inputs differ between set-up repetitions\n");
      ++failed;
    }
    fingerprint = stage->fingerprint;
    return stage;
  };
  std::unique_ptr<Stage> stage;
  for (size_t rep = 0; rep < (spec->setups + 1) / 2; ++rep) {
    stage.reset();
    if ((stage = set_up()) == nullptr) {
      return 1;
    }
  }
  Replay* replay = stage->replay.get();
  Node* nodes[2] = {stage->nodes[kBase].get(), stage->nodes[kForerunner].get()};

  // ---- Measured blocks, interleaved baseline / Forerunner ----
  std::unique_ptr<Tracer> tracer;
  if (args.trace == 1) {
    tracer = std::make_unique<Tracer>();
    replay->set_tracer(tracer.get());
  }
  MetricsRegistry& registry = MetricsRegistry::Global();
  Counter* evm_gas = registry.GetCounter("evm.gas");
  Counter* fold_jobs = registry.GetCounter("commit.fold_jobs");
  Counter* spec_futures = registry.GetCounter("spec.futures");
  auto cold_reads = [&](const Node& node) {
    return node.StatsJson().Find("node")->Find("store")->Find("cold_reads")->AsU64();
  };
  const uint64_t evm_gas0 = evm_gas->value();
  const uint64_t fold_jobs0 = fold_jobs->value();
  const uint64_t spec_futures0 = spec_futures->value();
  const uint64_t base_cold0 = cold_reads(*nodes[kBase]);

  std::vector<double> exec_ms[2];
  double exec_s[2] = {0, 0};
  double offpath_s = 0;
  uint64_t gas = 0;
  uint64_t txs = 0;
  uint64_t accelerated = 0;
  for (size_t b = kWarmupBlocks; b < total_blocks; ++b) {
    BlockOutcome o = replay->Step(b);
    ++attempted;
    failed += o.ok ? 0 : 1;
    for (int n : {kBase, kForerunner}) {
      exec_ms[n].push_back(o.exec_s[n] * 1e3);
      exec_s[n] += o.exec_s[n];
    }
    offpath_s += o.offpath_s;
    gas += o.gas;
    txs += o.txs;
    accelerated += o.accelerated;
  }
  const double blocks = static_cast<double>(measured);
  const Recording& recording = stage->inputs.recording;
  const double sim_seconds =
      recording.block_times.back() - recording.block_times[kWarmupBlocks - 1];
  const double mean_block_interval = stage->inputs.config.dice.mean_block_interval;

  JsonValue counts = JsonValue::Object();
  counts.Set("blocks", static_cast<uint64_t>(measured));
  counts.Set("sim_seconds", sim_seconds);
  counts.Set("txs", txs);
  counts.Set("gas", gas);
  counts.Set("accelerated_txs", accelerated);
  // Every baseline transaction runs the interpreter, so the Forerunner
  // node's interpreted gas is the registry total minus the block gas.
  counts.Set("forerunner_interpreter_gas", evm_gas->value() - evm_gas0 - gas);
  counts.Set("fold_jobs", fold_jobs->value() - fold_jobs0);
  counts.Set("base_cold_reads", cold_reads(*nodes[kBase]) - base_cold0);
  const uint64_t futures = spec_futures->value() - spec_futures0;
  counts.Set("spec_futures", futures);

  stage.reset();
  for (size_t rep = (spec->setups + 1) / 2; rep < spec->setups; ++rep) {
    if (set_up() == nullptr) {
      return 1;
    }
  }

  JsonValue end_to_end = JsonValue::Object();
  AddMetric(&end_to_end, "block_ms_p50", Percentile(exec_ms[kForerunner], 50), "ms");
  AddMetric(&end_to_end, "block_ms_p90", Percentile(exec_ms[kForerunner], 90), "ms");
  AddMetric(&end_to_end, "block_mgas_s", SafeRatio(gas / 1e6, exec_s[kForerunner]), "Mgas/s");
  AddMetric(&end_to_end, "base_block_ms_p50", Percentile(exec_ms[kBase], 50), "ms");
  AddMetric(&end_to_end, "base_block_mgas_s", SafeRatio(gas / 1e6, exec_s[kBase]), "Mgas/s");
  // The §5.6 off-path cost per unit of speculation work. The work itself
  // follows the pending pool, which random-walks with the seed: per block,
  // the cost spread 0.21 across five cold_state seeds, per future 0.13.
  AddMetric(&end_to_end, "offpath_us_per_future",
            SafeRatio(offpath_s * 1e6, static_cast<double>(futures)), "us");
  AddMetric(&end_to_end, "peak_rss_mb", PeakRssMb(), "MB");
  AddMetric(&end_to_end, "setup_s", Median(setup_seconds), "s");

  // The whole off-path cost, ungated. Off-path work accrues per simulated
  // second (ticks, arrivals), so it is charged per mean block interval of
  // replayed traffic rather than per realized block.
  JsonValue diagnostics = JsonValue::Object();
  diagnostics.Set("offpath_ms_per_block", offpath_s * 1e3 * mean_block_interval / sim_seconds);
  diagnostics.Set("host.probe_ms.start", probe_start_ms);
  diagnostics.Set("host.probe_ms.end", HostProbeMs());
  diagnostics.Set("forerunner.block_speedup", SafeRatio(exec_s[kBase], exec_s[kForerunner]));
  JsonValue setup_list = JsonValue::Array();
  for (double s : setup_seconds) {
    setup_list.Append(s);
  }
  diagnostics.Set("setup_s.samples", std::move(setup_list));

  JsonValue result = JsonValue::Object();
  result.Set("correct", failed == 0);
  result.Set("attempted", attempted);
  result.Set("failed", failed);
  JsonValue layers;
  if (tracer != nullptr) {
    layers = LayerMetrics(SumLayers(tracer->spans()), blocks);
    result.Set("metrics", layers);
  } else {
    result.Set("metrics", end_to_end);
  }

  std::printf("workload %s seed %llu: %zu warm-up + %zu measured blocks, %llu txs, %llu "
              "accelerated\n",
              spec->name, static_cast<unsigned long long>(args.seed), kWarmupBlocks, measured,
              static_cast<unsigned long long>(txs), static_cast<unsigned long long>(accelerated));
  std::printf("fingerprint %s\n", fingerprint.c_str());
  std::printf("counts %s\n", counts.Dump().c_str());
  std::printf("diagnostics %s\n", diagnostics.Dump().c_str());
  if (!args.out.empty()) {
    JsonValue doc = JsonValue::Object();
    doc.Set("workload", spec->name);
    doc.Set("seed", args.seed);
    doc.Set("trace", args.trace);
    doc.Set("fingerprint", fingerprint);
    doc.Set("counts", counts);
    doc.Set("diagnostics", diagnostics);
    doc.Set("end_to_end", end_to_end);
    doc.Set("correct", failed == 0);
    doc.Set("failed", failed);
    if (tracer != nullptr) {
      doc.Set("per_layer", layers);
      doc.Set("spans", SpansJson(tracer->spans()));
    }
    if (!WriteJsonFile(args.out, doc, -1)) {
      std::fprintf(stderr, "e2e_bench: cannot write %s\n", args.out.c_str());
      return 1;
    }
  }
  std::printf("%s\n", result.Dump().c_str());
  std::fflush(stdout);
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace frn

int main(int argc, char** argv) {
  frn::Args args;
  if (!frn::ParseArgs(argc, argv, &args)) {
    return frn::Usage("bad arguments");
  }
  return frn::Run(args);
}

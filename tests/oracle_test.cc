// The single §5.2 oracle: an accelerated node reaches the same Merkle root
// as an unmodified node on every block, at every configuration. Each case
// drives seeded contract-level traffic (a Workload scenario) through DiCE
// with fork churn and attaches a matrix of node configurations to that one
// run. Every node is checked against one reference, ReplayTrieOnly of the
// main chain DiCE adopted, where a store-less StateDb walks the trie for
// every read. The numbered assertions are the Check* functions below.
// OracleTest holds the ctest slice; the DISABLED_ OracleSoakTest cases add
// seeds, full-size churn and the full worker grid, and tools/ci.sh's
// oracle-soak stage runs them with --gtest_also_run_disabled_tests.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include "src/obs/registry.h"
#include "src/obs/trace.h"
#include "src/replay/recording.h"
#include "src/trie/persist.h"
#include "src/workload/workload.h"

namespace frn {
namespace {

namespace fs = std::filesystem;

struct NodeConfig {
  ExecStrategy strategy = ExecStrategy::kForerunner;
  size_t spec_workers = 1;
  size_t block_workers = 1;
  size_t commit_workers = 1;
  bool persist = false;

  bool serial() const { return spec_workers == 1 && block_workers == 1 && commit_workers == 1; }
  std::string Label() const {
    return std::string(StrategyName(strategy)) + " " + std::to_string(spec_workers) + "/" +
           std::to_string(block_workers) + "/" + std::to_string(commit_workers) +
           (persist ? " persisted" : "");
  }
};

constexpr NodeConfig kBaseline{ExecStrategy::kBaseline};

NodeConfig Forerunner(size_t spec, size_t block, size_t commit, bool persist = false) {
  return NodeConfig{ExecStrategy::kForerunner, spec, block, commit, persist};
}

// The baseline (node 0) and, at 1/1/1 workers, every accelerated strategy.
std::vector<NodeConfig> AllStrategies(std::vector<NodeConfig> more) {
  std::vector<NodeConfig> nodes = {kBaseline, NodeConfig{ExecStrategy::kPerfectMatch},
                                   NodeConfig{ExecStrategy::kPerfectMulti}, Forerunner(1, 1, 1)};
  nodes.insert(nodes.end(), more.begin(), more.end());
  return nodes;
}

struct OracleCase {
  const char* scenario = "L1";
  uint64_t seed = 1;
  double duration = 30;  // seconds of traffic
  double tx_rate = 2.0;
  size_t n_users = 60;
  double fork_rate = 0.08;
  double fork_resolution_delay = 6.0;
  size_t max_fork_depth = 1;
  size_t min_fork_depth_seen = 0;  // > 0 also requires fork blocks
  std::vector<NodeConfig> nodes;   // nodes[0] is the baseline; one is persisted
  size_t sweep_depth = 0;          // > 0: the undo window assertion 6 walks back
  bool replay = false;
  bool traced = false;
  bool default_shares = false;  // L1's heard and accelerated shares
  bool expect_conflicts = false;
  bool expect_bails = false;
};

// Reports the first element at which two streams differ, so a divergence
// reads as one failure rather than one per element after it.
template <typename T, typename Same = std::equal_to<>>
void ExpectSameStream(const char* stream, const std::vector<T>& a, const std::vector<T>& b,
                      Same same = {}) {
  ASSERT_EQ(a.size(), b.size()) << stream;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!same(a[i], b[i])) {
      ADD_FAILURE() << stream << " differ first at element " << i;
      return;
    }
  }
}

// What every node must agree on per executed transaction.
bool SameResult(const TxExecRecord& a, const TxExecRecord& b) {
  return a.tx_id == b.tx_id && a.status == b.status && a.gas_used == b.gas_used &&
         a.on_fork == b.on_fork;
}

// What a Forerunner node counts must not depend on how many threads it ran.
void ExpectSameOutcome(const NodeRunStats& a, const NodeRunStats& b) {
  EXPECT_EQ(a.futures_speculated, b.futures_speculated);
  EXPECT_EQ(a.synthesis_failures, b.synthesis_failures);
  ExpectSameStream("records", a.records, b.records,
                   [](const TxExecRecord& x, const TxExecRecord& y) {
                     return SameResult(x, y) && x.speculated == y.speculated &&
                            x.accelerated == y.accelerated && x.perfect == y.perfect &&
                            x.instrs_executed == y.instrs_executed &&
                            x.instrs_skipped == y.instrs_skipped;
                   });
  ExpectSameStream("synthesis stats", a.synthesis_stats, b.synthesis_stats);
  ExpectSameStream("AP stats", a.ap_stats, b.ap_stats);
  ExpectSameStream("executed speculations", a.executed_speculations, b.executed_speculations);
}

std::vector<TxExecRecord> MainChainRecords(const NodeRunStats& stats) {
  std::vector<TxExecRecord> out;
  std::copy_if(stats.records.begin(), stats.records.end(), std::back_inserter(out),
               [](const TxExecRecord& r) { return !r.on_fork; });
  return out;
}

// The share of the main chain's transactions whose record sets `flag`.
double Share(const NodeRunStats& stats, uint64_t txs_packed, bool TxExecRecord::*flag) {
  const std::vector<TxExecRecord> main = MainChainRecords(stats);
  return static_cast<double>(std::count_if(main.begin(), main.end(),
                                           [&](const TxExecRecord& r) { return r.*flag; })) /
         static_cast<double>(txs_packed);
}

// One case: its inputs, the live DiCE run with every configured node
// attached, and the trie-only reference of the adopted main chain.
class OracleRun {
 public:
  explicit OracleRun(const OracleCase& c) : case_(c) {
    cfg_ = ScenarioByName(c.scenario);
    cfg_.seed = c.seed;
    cfg_.dice.seed = c.seed * 31 + 7;
    cfg_.duration = c.duration;
    cfg_.tx_rate = c.tx_rate;
    cfg_.n_users = c.n_users;
    cfg_.cold_read_latency = std::chrono::nanoseconds(0);
    cfg_.dice.fork_rate = c.fork_rate;
    cfg_.dice.fork_resolution_delay = c.fork_resolution_delay;
    cfg_.dice.max_fork_depth = c.max_fork_depth;
    workload_ = std::make_unique<Workload>(cfg_);
    traffic_ = workload_->GenerateTraffic();
    genesis_ = [w = workload_.get()](StateDb* state) { w->InitGenesis(state); };
    persist_dir_ = fs::path(::testing::TempDir()) /
                   ("frn_oracle_" +
                    std::string(::testing::UnitTest::GetInstance()->current_test_info()->name()) +
                    "_" + std::to_string(getpid()));
    fs::remove_all(persist_dir_);
  }

  ~OracleRun() {
    nodes_.clear();
    log_.reset();
    fs::remove_all(persist_dir_);
  }

  void CheckAll() {
    ASSERT_NO_FATAL_FAILURE(Run());
    CheckRoots();
    CheckSerialEquivalence();
    CheckStoreCoverage();
    CheckStrategiesAndChurn();
    CheckChainIndependence();
    if (case_.replay) {
      CheckReplay();
    }
    if (case_.traced) {
      CheckTracerNeutral();
    }
    // The sweep re-marks the persisted head, so recovery is checked after it.
    if (case_.sweep_depth > 0) {
      CheckRollbackSweep();
    }
    CheckPersist();
  }

 private:
  NodeOptions Options(NodeConfig c) const {
    NodeOptions options = ScenarioNodeOptions(cfg_, c.strategy, miners_);
    // Counted outcomes must not depend on measured speculation time.
    options.speculation_time_scale = 0;
    options.spec_workers = c.spec_workers;
    options.chain.block_workers = c.block_workers;
    options.chain.commit_workers = c.commit_workers;
    options.chain.max_reorg_depth = std::max<size_t>(4, case_.max_fork_depth);
    return options;
  }

  // The first node of the case that matches `pick`, or nodes_.size().
  size_t Find(const std::function<bool(const NodeConfig&)>& pick) const {
    return static_cast<size_t>(std::find_if(case_.nodes.begin(), case_.nodes.end(), pick) -
                               case_.nodes.begin());
  }
  size_t Serial(ExecStrategy strategy) const {
    return Find([&](const NodeConfig& c) { return c.strategy == strategy && c.serial(); });
  }
  size_t ParallelForerunner() const {
    return Find([](const NodeConfig& c) {
      return c.strategy == ExecStrategy::kForerunner &&
             (c.block_workers > 1 || c.commit_workers > 1);
    });
  }

  void Run() {
    DiceSimulator sim(cfg_.dice, traffic_);
    miners_ = sim.miners();
    std::vector<Node*> attached;
    for (const NodeConfig& c : case_.nodes) {
      NodeOptions options = Options(c);
      if (c.persist) {
        std::string error;
        log_ = PersistLog::Open(persist_dir_.string(), &error);
        ASSERT_NE(log_, nullptr) << error;
        options.store.persist = log_.get();
      }
      nodes_.push_back(std::make_unique<Node>(options, genesis_));
      attached.push_back(nodes_.back().get());
    }
    Counter* bails = MetricsRegistry::Global().GetCounter("accel.outcome.bail");
    const uint64_t bails_before = bails->value();
    report_ = sim.Run(attached, cfg_.name);
    bails_ = bails->value() - bails_before;
    reference_ = ReplayTrieOnly(genesis_, report_.chain);
    ASSERT_GT(report_.blocks, 1u);
  }

  // Assertion 1: one root per main-chain block, the reference's, on every
  // node, fork blocks agreeing too, and every record's status, gas and fork
  // flag equal to the baseline's.
  void CheckRoots() const {
    SCOPED_TRACE("assertion 1: roots");
    EXPECT_TRUE(report_.roots_consistent);
    EXPECT_EQ(report_.roots, reference_);
    for (size_t n = 0; n < nodes_.size(); ++n) {
      SCOPED_TRACE(case_.nodes[n].Label());
      EXPECT_EQ(nodes_[n]->head_root(), reference_.back());
      ExpectSameStream("records", report_.nodes[0].records, report_.nodes[n].records,
                       SameResult);
    }
  }

  // Assertion 2: every Forerunner node counts what the 1/1/1 one counts,
  // Block-STM conflict counts agree at every block_workers >= 2, and the
  // re-execution and bail paths ran where the case expects them.
  void CheckSerialEquivalence() const {
    SCOPED_TRACE("assertion 2: serial equivalence");
    const size_t serial = Serial(ExecStrategy::kForerunner);
    std::set<std::pair<uint64_t, uint64_t>> conflicts;  // (conflicts, fallbacks)
    for (size_t n = 0; n < nodes_.size(); ++n) {
      const NodeConfig& c = case_.nodes[n];
      if (c.strategy != ExecStrategy::kForerunner || c.serial()) {
        continue;
      }
      SCOPED_TRACE(c.Label());
      if (serial < nodes_.size()) {
        ExpectSameOutcome(report_.nodes[serial], report_.nodes[n]);
      }
      if (c.block_workers > 1) {
        conflicts.emplace(nodes_[n]->parallel_stats().conflicts, nodes_[n]->parallel_fallbacks());
      }
    }
    EXPECT_LE(conflicts.size(), 1u) << "conflict counts differ across block_workers";
    if (case_.expect_conflicts) {
      ASSERT_EQ(conflicts.size(), 1u);
      EXPECT_GT(conflicts.begin()->first, 0u) << "no Block-STM re-execution ran";
    }
    if (case_.expect_bails) {
      EXPECT_GT(bails_, 0u) << "no AP bailed to the EVM";
    }
  }

  // Assertion 3: the versioned store served every committed read.
  void CheckStoreCoverage() const {
    SCOPED_TRACE("assertion 3: store coverage");
    for (size_t n = 0; n < nodes_.size(); ++n) {
      SCOPED_TRACE(case_.nodes[n].Label());
      const NodeRunStats& stats = report_.nodes[n];
      EXPECT_EQ(stats.chain_state.account_trie_reads + stats.chain_state.storage_trie_reads, 0u);
      EXPECT_EQ(stats.chain_state.versioned_misses, 0u);
      EXPECT_GT(stats.chain_state.versioned_hits, 0u);
      EXPECT_GT(stats.versioned.commits, 0u);
      EXPECT_EQ(stats.versioned.invalidations, 0u);
      EXPECT_TRUE(stats.state_view_active);
    }
  }

  // Assertion 4: strategy ordering and shares, speculation only off the
  // baseline, every main-chain transaction recorded once, and churn that
  // happened.
  void CheckStrategiesAndChurn() const {
    SCOPED_TRACE("assertion 4: strategies and churn");
    const uint64_t packed = report_.txs_packed;
    const size_t match = Serial(ExecStrategy::kPerfectMatch);
    const size_t multi = Serial(ExecStrategy::kPerfectMulti);
    const size_t forerunner = Serial(ExecStrategy::kForerunner);
    auto accelerated = [&](size_t n) {
      return Share(report_.nodes[n], packed, &TxExecRecord::accelerated);
    };
    if (std::max({match, multi, forerunner}) < nodes_.size()) {
      EXPECT_GE(accelerated(forerunner) + 1e-9, accelerated(multi));
      EXPECT_GE(accelerated(multi) + 1e-9, accelerated(match));
    }
    if (case_.default_shares) {
      ASSERT_LT(forerunner, nodes_.size());
      EXPECT_GT(Share(report_.nodes[forerunner], packed, &TxExecRecord::heard), 0.7);
      EXPECT_GT(accelerated(forerunner), 0.5);
    }
    const NodeRunStats& base = report_.nodes[0];
    EXPECT_EQ(base.futures_speculated, 0u);
    for (size_t n = 0; n < nodes_.size(); ++n) {
      SCOPED_TRACE(case_.nodes[n].Label());
      const NodeRunStats& stats = report_.nodes[n];
      if (n > 0) {
        EXPECT_GT(stats.futures_speculated, 0u);
        EXPECT_GT(stats.speculation_seconds, 0.0);
      }
      EXPECT_EQ(MainChainRecords(stats).size(), packed);
    }
    if (case_.min_fork_depth_seen > 0) {
      EXPECT_GT(report_.fork_blocks, 0u);
      EXPECT_GE(report_.max_fork_depth_seen, case_.min_fork_depth_seen);
    }
  }

  // Assertion 5: the chain (blocks, their times, the heard times) is a
  // function of the inputs alone — e2ebench's set-up builds it with no node
  // attached — and another seed makes another chain.
  void CheckChainIndependence() const {
    SCOPED_TRACE("assertion 5: chain independence");
    auto recorded = [&](const DiceOptions& dice) {
      return SerializeRecording(
          CaptureRecording(DiceSimulator(dice, traffic_).Run({}, cfg_.name), traffic_));
    };
    EXPECT_EQ(recorded(cfg_.dice), SerializeRecording(CaptureRecording(report_, traffic_)));
    DiceOptions other = cfg_.dice;
    other.seed += 1;
    EXPECT_NE(recorded(other), recorded(cfg_.dice));
  }

  // Assertion 6: the baseline and the first parallel Forerunner node walk
  // back their whole undo window, landing on the reference root at every
  // height (the genesis root at 0), then re-execute to the reference.
  void CheckRollbackSweep() {
    SCOPED_TRACE("assertion 6: rollback sweep");
    const size_t parallel = ParallelForerunner();
    ASSERT_LT(parallel, nodes_.size()) << "the sweep needs a parallel Forerunner node";
    const size_t blocks = report_.chain.size();
    std::vector<Hash> heads = {GenesisRoot()};
    heads.insert(heads.end(), reference_.begin(), reference_.end());
    for (size_t n : {size_t{0}, parallel}) {
      SCOPED_TRACE(case_.nodes[n].Label());
      Node* node = nodes_[n].get();
      ASSERT_EQ(node->reorg_window(), case_.sweep_depth);
      for (size_t height = blocks; height-- > blocks - case_.sweep_depth;) {
        node->RollbackHead();
        EXPECT_EQ(node->head().number, height);
        EXPECT_EQ(node->head_root(), heads[height]) << "height " << height;
        EXPECT_TRUE(node->view_active());
      }
      EXPECT_FALSE(node->CanRollback());
      for (size_t b = blocks - case_.sweep_depth; b < blocks; ++b) {
        EXPECT_EQ(node->ExecuteBlock(report_.chain[b], report_.block_times[b]).state_root,
                  reference_[b])
            << "block " << b;
      }
      EXPECT_EQ(node->versioned_stats().invalidations, 0u);
    }
  }

  // Assertion 7: the captured recording, replayed on a fresh baseline and a
  // fresh Forerunner node, reproduces the live run's main chain.
  void CheckReplay() const {
    SCOPED_TRACE("assertion 7: record -> replay");
    const size_t parallel = ParallelForerunner();
    Node baseline(Options(kBaseline), genesis_);
    Node forerunner(
        Options(parallel < nodes_.size() ? case_.nodes[parallel] : Forerunner(1, 1, 1)),
        genesis_);
    SimReport replayed =
        ReplayRecording(CaptureRecording(report_, traffic_), {&baseline, &forerunner});
    EXPECT_TRUE(replayed.roots_consistent);
    EXPECT_EQ(replayed.roots, report_.roots);
    EXPECT_EQ(replayed.txs_packed, report_.txs_packed);
    EXPECT_EQ(replayed.heard_count, report_.heard_count);
    EXPECT_EQ(replayed.heard_delays, report_.heard_delays);
    for (const NodeRunStats& stats : replayed.nodes) {
      ExpectSameStream("records", MainChainRecords(report_.nodes[0]), stats.records,
                       SameResult);
    }
    EXPECT_GT(Share(replayed.nodes[1], replayed.txs_packed, &TxExecRecord::accelerated), 0.5);
  }

  // Assertion 8: the persisted node's log reopens at the final reference
  // root, and a store-less StateDb over the recovered store re-executes the
  // last main-chain block from the previous reference root to it.
  void CheckPersist() {
    SCOPED_TRACE("assertion 8: persist");
    const size_t persisted = Find([](const NodeConfig& c) { return c.persist; });
    ASSERT_LT(persisted, nodes_.size());
    nodes_[persisted].reset();
    log_.reset();
    std::string error;
    std::unique_ptr<PersistLog> log = PersistLog::Open(persist_dir_.string(), &error);
    ASSERT_NE(log, nullptr) << error;
    ASSERT_TRUE(log->has_head());
    EXPECT_EQ(log->head_root(), reference_.back());
    EXPECT_EQ(log->head_height(), report_.chain.back().header.number);
    EXPECT_EQ(log->stats().truncated_records, 0u);
    KvStore::Options options;
    options.cold_read_latency = std::chrono::nanoseconds(0);
    options.persist = log.get();
    KvStore store(options);
    Mpt trie(&store);
    const Block& last = report_.chain.back();
    StateDb state(&trie, reference_[reference_.size() - 2]);
    for (const Transaction& tx : last.txs) {
      Accelerator::Execute(&state, last.header, tx, nullptr, ExecStrategy::kBaseline);
    }
    EXPECT_EQ(state.Commit(), reference_.back());
  }

  // Assertion 9: a second run with the tracer armed counts exactly what the
  // disarmed serial Forerunner node counted.
  void CheckTracerNeutral() const {
    SCOPED_TRACE("assertion 9: tracer");
    const size_t serial = Serial(ExecStrategy::kForerunner);
    ASSERT_LT(serial, nodes_.size());
    DiceSimulator sim(cfg_.dice, traffic_);
    Node baseline(Options(kBaseline), genesis_);
    Node forerunner(Options(Forerunner(2, 1, 1)), genesis_);
    TraceCollector& collector = TraceCollector::Global();
    collector.Enable();
    SimReport traced = sim.Run({&baseline, &forerunner}, cfg_.name);
    collector.Disable();
    EXPECT_GT(collector.event_count(), 0u);
    collector.Clear();
    EXPECT_EQ(traced.roots, reference_);
    ExpectSameOutcome(report_.nodes[serial], traced.nodes[1]);
  }

  Hash GenesisRoot() const {
    KvStore::Options options;
    options.cold_read_latency = std::chrono::nanoseconds(0);
    KvStore store(options);
    Mpt trie(&store);
    StateDb state(&trie, Mpt::EmptyRoot());
    genesis_(&state);
    return state.Commit();
  }

  OracleCase case_;
  ScenarioConfig cfg_;
  std::unique_ptr<Workload> workload_;
  std::vector<TimedTx> traffic_;
  std::function<void(StateDb*)> genesis_;
  std::vector<MinerModel> miners_;
  fs::path persist_dir_;
  std::unique_ptr<PersistLog> log_;
  std::vector<std::unique_ptr<Node>> nodes_;
  SimReport report_;
  std::vector<Hash> reference_;  // main-chain post-state root per block
  uint64_t bails_ = 0;
};

void RunCase(const OracleCase& c) { OracleRun(c).CheckAll(); }

// ---- The ctest slice ----
// Each case runs Forerunner serially and at one or two parallel worker
// settings; across the slice every spec_workers value in {1, 2, 4, 8} and
// every block_workers and commit_workers value in {1, 2, 4} runs.

OracleCase L1Default() {
  OracleCase c;
  c.seed = 0x51;
  c.nodes = AllStrategies({Forerunner(8, 4, 2, true)});
  c.replay = true;
  c.traced = true;
  c.default_shares = true;
  return c;
}

// Temporary forks: half of all rounds fork and the winner arrives 3 s later.
OracleCase ForkChurn(size_t depth) {
  OracleCase c;
  c.seed = 0x0F0;
  c.fork_rate = 0.5;
  c.fork_resolution_delay = 3.0;
  c.max_fork_depth = depth;
  c.min_fork_depth_seen = depth == 1 ? 1 : 2;
  c.nodes = {kBaseline, Forerunner(1, 1, 1),
             depth == 1 ? Forerunner(2, 2, 4, true) : Forerunner(4, 4, 2, true)};
  return c;
}

// Losing branches up to eight blocks deep inside an eight-deep undo window:
// the largest case, so the slice runs one parallel Forerunner node only.
OracleCase DepthEight(uint64_t seed, double duration, size_t sweep_depth) {
  OracleCase c = ForkChurn(8);
  c.seed = seed;
  c.duration = duration;
  c.tx_rate = 6.0;  // enough backlog for rivals to extend deep branches
  c.min_fork_depth_seen = 3;
  c.nodes = {kBaseline, Forerunner(2, 2, 4, true)};
  c.sweep_depth = sweep_depth;
  return c;
}

OracleCase HighContention() {
  OracleCase c;
  c.scenario = "R2";
  c.seed = 0x22;
  c.nodes = {kBaseline, Forerunner(1, 1, 1), Forerunner(2, 4, 2, true), Forerunner(4, 2, 4)};
  c.expect_conflicts = true;
  c.expect_bails = true;
  return c;
}

OracleCase ComputeHeavy() {
  OracleCase c;
  c.scenario = "R4";
  c.seed = 0x24;
  c.duration = 20;
  c.nodes = {kBaseline, Forerunner(1, 1, 1), Forerunner(4, 2, 4, true)};
  return c;
}

TEST(OracleTest, L1DefaultForkRate) { RunCase(L1Default()); }
TEST(OracleTest, SingleBlockForkChurn) { RunCase(ForkChurn(1)); }
TEST(OracleTest, DepthThreeForkChurn) { RunCase(ForkChurn(3)); }
TEST(OracleTest, DepthEightForkChurn) { RunCase(DepthEight(0x0F8, 45, 8)); }
TEST(OracleTest, HighContentionR2) { RunCase(HighContention()); }
TEST(OracleTest, ComputeHeavyR4) { RunCase(ComputeHeavy()); }

// The slice's matrix, checked without running it: every strategy, every
// worker value, and one persisted node per case.
TEST(OracleTest, SliceCoversTheMatrix) {
  std::set<ExecStrategy> strategies;
  std::set<size_t> spec;
  std::set<size_t> block;
  std::set<size_t> commit;
  for (const OracleCase& c : {L1Default(), ForkChurn(1), ForkChurn(3),
                              DepthEight(0x0F8, 45, 8), HighContention(), ComputeHeavy()}) {
    EXPECT_EQ(c.nodes[0].strategy, ExecStrategy::kBaseline);
    EXPECT_EQ(std::count_if(c.nodes.begin(), c.nodes.end(),
                            [](const NodeConfig& n) { return n.persist; }),
              1);
    for (const NodeConfig& n : c.nodes) {
      strategies.insert(n.strategy);
      if (n.strategy == ExecStrategy::kForerunner) {
        spec.insert(n.spec_workers);
        block.insert(n.block_workers);
        commit.insert(n.commit_workers);
      }
    }
  }
  EXPECT_EQ(strategies.size(), 4u);
  EXPECT_EQ(spec, (std::set<size_t>{1, 2, 4, 8}));
  EXPECT_EQ(block, (std::set<size_t>{1, 2, 4}));
  EXPECT_EQ(commit, (std::set<size_t>{1, 2, 4}));
}

// ---- The soak ----

// Every strategy plus Forerunner over the whole block x commit grid
// {1, 2, 4}^2 at one speculation worker count.
std::vector<NodeConfig> Grid(size_t spec_workers) {
  std::vector<NodeConfig> nodes;
  for (size_t block : {1, 2, 4}) {
    for (size_t commit : {1, 2, 4}) {
      if (spec_workers > 1 || block > 1 || commit > 1) {
        nodes.push_back(Forerunner(spec_workers, block, commit));
      }
    }
  }
  nodes.back().persist = true;
  return AllStrategies(nodes);
}

// The slice's cases at other seeds and half again their traffic, one
// spec_workers value each over the full grid. Bails and fork depth are
// properties of a seed, so only the slice pins them.
TEST(OracleSoakTest, DISABLED_FullWorkerGrid) {
  for (auto [c, spec] : std::vector<std::pair<OracleCase, size_t>>{
           {L1Default(), 1}, {HighContention(), 2}, {ComputeHeavy(), 4}, {ForkChurn(3), 8}}) {
    SCOPED_TRACE(std::string(c.scenario) + " at spec_workers " + std::to_string(spec));
    c.seed += 0x1000;
    c.duration *= 1.5;
    c.expect_bails = false;
    c.min_fork_depth_seen = std::min<size_t>(c.min_fork_depth_seen, 1);
    c.nodes = Grid(spec);
    RunCase(c);
  }
}

TEST(OracleSoakTest, DISABLED_DepthEightFullSize) {
  OracleCase c = DepthEight(0x0F0, 90, 5);
  c.nodes = AllStrategies({Forerunner(2, 2, 2), Forerunner(4, 4, 4, true)});
  RunCase(c);
}

// L1 at its own size and rate for 60 s under 20% fork churn.
TEST(OracleSoakTest, DISABLED_L1TwentyPercentChurn) {
  OracleCase c;
  c.seed = ScenarioByName("L1").seed;
  c.duration = 60;
  c.tx_rate = ScenarioByName("L1").tx_rate;
  c.n_users = ScenarioByName("L1").n_users;
  c.fork_rate = 0.2;
  c.max_fork_depth = 2;
  c.nodes = {kBaseline, Forerunner(1, 1, 1), Forerunner(4, 2, 2, true)};
  RunCase(c);
}

}  // namespace
}  // namespace frn

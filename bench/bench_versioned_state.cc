// Versioned snapshot store validation bench — the store is every node's only
// source of committed reads, so this bench gates it end to end. Five parts:
//
//   acquire  — commits a chain of versions, then hammers AcquireAt to price a
//              snapshot-handle acquisition (the cost a speculation lane pays
//              to pin a root). Gate: every retained root acquires.
//
//   commit   — a synthetic many-account commit workload on stores with the
//              modeled 2us cold-read latency, run store-less (trie-only) at 1
//              commit worker and store-backed at 1 and 4. Gates:
//              bit-identical per-round roots across all three, and the
//              modeled fold wall (max over lanes of per-job thread-CPU +
//              store latency, the speculation pool's scheduler-independent
//              accounting) at 4 workers at least 1.5x below 1 worker's.
//
//   scenario — dataset L1 under 20% fork churn with a baseline and a
//              Forerunner node. Gates: consistent roots, and on both nodes
//              zero invalidations, zero versioned misses and zero
//              critical-path trie reads, with versions committed and
//              retained.
//
//   no-fork  — the same dataset with fork churn off: every view on both
//              nodes opens covered (view_active, zero versioned misses) and
//              the store never refuses a commit.
//
//   reorg    — a node with a depth-8 undo window against the trie-only
//              reference replay: 9 blocks, then for each depth 1..8 roll back
//              `depth` blocks and re-execute, requiring the reference root at
//              every step. Prices the handle-swap rollback.
//
// Exit code 1 if any gate fails. Emits BENCH_versioned_state.json via --json.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/clock.h"
#include "src/replay/recording.h"
#include "src/state/commit_pool.h"
#include "src/state/statedb.h"
#include "src/state/versioned_state.h"

using namespace frn;

namespace {

constexpr size_t kCommitWorkers = 4;

struct AcquireResult {
  bool ok = true;
  size_t versions = 0;
  uint64_t acquires = 0;
  double ns_per_acquire = 0;
};

AcquireResult RunAcquirePart() {
  KvStore store;
  Mpt trie(&store);
  VersionedState versioned(/*retention=*/8);
  Hash root = Mpt::EmptyRoot();
  std::vector<Hash> roots;
  for (uint64_t n = 0; n < 8; ++n) {
    StateDb db(&trie, root, &versioned);
    for (uint64_t a = 0; a < 16; ++a) {
      db.AddBalance(Address::FromId(a + 1), U256(n + 1));
      db.SetStorage(Address::FromId(a + 1), U256(n), U256(a + n + 1));
    }
    root = db.Commit();
    roots.push_back(root);
  }

  AcquireResult r;
  r.versions = roots.size();
  constexpr uint64_t kIters = 200'000;
  uint64_t valid = 0;
  Stopwatch timer;
  for (uint64_t i = 0; i < kIters; ++i) {
    SnapshotHandle h = versioned.AcquireAt(roots[i % roots.size()]);
    valid += h.valid() ? 1 : 0;
  }
  double elapsed = timer.ElapsedSeconds();
  r.acquires = kIters;
  r.ns_per_acquire = elapsed * 1e9 / static_cast<double>(kIters);
  if (valid != kIters) {
    std::printf("FAIL: %llu of %llu acquires missed a retained root\n",
                static_cast<unsigned long long>(kIters - valid),
                static_cast<unsigned long long>(kIters));
    r.ok = false;
  }
  return r;
}

struct CommitConfigRun {
  std::vector<Hash> roots;          // per-round post-commit roots
  double physical_seconds = 0;      // best-of-rounds stopwatch wall (host-dependent)
  double fold_serial_seconds = 0;   // modeled: sum of per-job cpu+latency costs
  double fold_wall_seconds = 0;     // modeled: max-over-lanes per commit, summed
};

// One deterministic commit workload: `n_accounts` accounts, each with a
// populated storage subtrie, re-dirtied every round. `with_store` attaches a
// versioned store (reads through pinned views); without it every read walks
// the trie.
CommitConfigRun RunCommitConfig(bool with_store, size_t workers, size_t n_accounts,
                                size_t n_rounds) {
  KvStore store;  // modeled 2us cold-read latency: what parallel folds hide
  Mpt trie(&store);
  CommitPool pool(workers);
  VersionedState versioned(4);
  VersionedState* vs = with_store ? &versioned : nullptr;
  Hash root = Mpt::EmptyRoot();
  {
    // Base state: every account pre-seeded with a storage subtrie deep enough
    // that the per-account fold has real trie paths to walk.
    StateDb db(&trie, root, vs, &pool);
    for (size_t a = 0; a < n_accounts; ++a) {
      Address addr = Address::FromId(a + 1);
      db.AddBalance(addr, U256(1'000'000));
      for (uint64_t s = 0; s < 48; ++s) {
        db.SetStorage(addr, U256(s), U256(s + 1));
      }
    }
    root = db.Commit();
  }

  CommitConfigRun run;
  for (size_t round = 0; round < n_rounds; ++round) {
    StateDb db(&trie, root, vs, &pool);
    for (size_t a = 0; a < n_accounts; ++a) {
      Address addr = Address::FromId(a + 1);
      db.AddBalance(addr, U256(1));
      for (uint64_t s = 0; s < 8; ++s) {
        db.SetStorage(addr, U256((round * 8 + s) % 48), U256(round * 100 + s));
      }
    }
    // Every commit starts against a cold store: the timed section pays the
    // modeled read latency exactly where a restarted node would.
    store.CoolAll();
    Stopwatch timer;
    root = db.Commit();
    double elapsed = timer.ElapsedSeconds();
    run.physical_seconds = (round == 0) ? elapsed : std::min(run.physical_seconds, elapsed);
    run.fold_serial_seconds += db.commit_stats().fold_serial_seconds;
    run.fold_wall_seconds += db.commit_stats().fold_wall_seconds;
    run.roots.push_back(root);
  }
  return run;
}

struct CommitResult {
  bool ok = true;
  CommitConfigRun trie_only;
  CommitConfigRun serial;
  CommitConfigRun parallel;
  double modeled_speedup = 0;
  size_t accounts = 0;
  size_t rounds = 0;
};

CommitResult RunCommitPart() {
  CommitResult r;
  r.accounts = 192;
  r.rounds = 3;
  r.trie_only = RunCommitConfig(false, 1, r.accounts, r.rounds);
  r.serial = RunCommitConfig(true, 1, r.accounts, r.rounds);
  r.parallel = RunCommitConfig(true, kCommitWorkers, r.accounts, r.rounds);
  if (r.serial.roots != r.trie_only.roots || r.parallel.roots != r.trie_only.roots) {
    std::printf("FAIL: a store-backed commit diverged from the trie-only roots\n");
    r.ok = false;
  }
  // Gate on the modeled fold wall (max over commit lanes of per-job
  // thread-CPU + store latency): it is what a host with >= kCommitWorkers
  // idle cores saves, and unlike the stopwatch it is not inflated away on a
  // core-starved CI machine where spinning workers merely timeshare.
  r.modeled_speedup = r.parallel.fold_wall_seconds > 0
                          ? r.serial.fold_wall_seconds / r.parallel.fold_wall_seconds
                          : 0;
  if (r.modeled_speedup < 1.5) {
    std::printf("FAIL: modeled fold speedup %.2fx with %zu workers is under the gate\n",
                r.modeled_speedup, kCommitWorkers);
    r.ok = false;
  }
  // Sanity: both configs measured the same amount of fold work (the modeled
  // serial sums must agree within timesharing noise).
  double work_ratio = r.parallel.fold_serial_seconds > 0
                          ? r.serial.fold_serial_seconds / r.parallel.fold_serial_seconds
                          : 0;
  if (work_ratio < 0.5 || work_ratio > 2.0) {
    std::printf("FAIL: fold work diverged between configs (ratio %.2f)\n", work_ratio);
    r.ok = false;
  }
  return r;
}

// One node's store coverage over a scenario run.
struct NodeCoverage {
  uint64_t trie_reads = 0;
  uint64_t versioned_hits = 0;
  uint64_t versioned_misses = 0;
  VersionedStateStats versioned;
  bool view_active = false;
};

struct ScenarioResult {
  bool ok = true;
  uint64_t blocks = 0;
  uint64_t fork_blocks = 0;
  uint64_t txs = 0;
  NodeCoverage nodes[2];  // baseline, Forerunner
};

// Runs L1 with `fork_rate` churn (depth <= 2) through a baseline and a
// Forerunner node and gates both nodes' store coverage.
ScenarioResult RunScenarioPart(const char* label, double fork_rate, double duration) {
  ScenarioConfig cfg = ScenarioByName("L1");
  cfg.dice.fork_rate = fork_rate;
  cfg.dice.max_fork_depth = 2;
  // Counted statistics, not wall-clock availability, drive the gates.
  NodeTweak exact = [](NodeOptions* o) { o->speculation_time_scale = 0; };
  // RunScenarioWithTweaks aborts the bench on any root mismatch.
  ScenarioRun run = RunScenarioWithTweaks(cfg, {{ExecStrategy::kForerunner, exact}}, duration);

  ScenarioResult r;
  r.blocks = run.report.blocks;
  r.fork_blocks = run.report.fork_blocks;
  r.txs = run.report.txs_packed;
  for (size_t n = 0; n < 2; ++n) {
    const NodeRunStats& stats = run.report.nodes[n];
    NodeCoverage& c = r.nodes[n];
    c.trie_reads = stats.chain_state.account_trie_reads + stats.chain_state.storage_trie_reads;
    c.versioned_hits = stats.chain_state.versioned_hits;
    c.versioned_misses = stats.chain_state.versioned_misses;
    c.versioned = stats.versioned;
    c.view_active = stats.state_view_active;
    const char* node = n == 0 ? "baseline" : "forerunner";
    if (c.versioned.invalidations != 0) {
      std::printf("FAIL: %s %s: %llu commits refused over an uncovered parent\n", label, node,
                  static_cast<unsigned long long>(c.versioned.invalidations));
      r.ok = false;
    }
    if (c.versioned_misses != 0 || !c.view_active) {
      std::printf("FAIL: %s %s: %llu reads fell off store coverage (view_active %d)\n", label,
                  node, static_cast<unsigned long long>(c.versioned_misses), c.view_active);
      r.ok = false;
    }
    if (c.trie_reads != 0) {
      std::printf("FAIL: %s %s: %llu critical-path trie reads\n", label, node,
                  static_cast<unsigned long long>(c.trie_reads));
      r.ok = false;
    }
    if (c.versioned_hits == 0 || c.versioned.commits == 0 || c.versioned.retained == 0) {
      std::printf("FAIL: %s %s: the store served no reads or retained no versions\n", label,
                  node);
      r.ok = false;
    }
  }
  return r;
}

struct ReorgDepthRow {
  size_t depth = 0;
  bool roots_match = false;
  double rollback_seconds = 0;
};

struct ReorgResult {
  bool ok = true;
  std::vector<ReorgDepthRow> rows;
  uint64_t invalidations = 0;
};

ReorgResult RunReorgPart() {
  NodeOptions options;
  options.store.cold_read_latency = std::chrono::nanoseconds(0);
  options.speculation_time_scale = 0;
  options.chain.max_reorg_depth = 8;
  options.chain.commit_workers = 2;

  Address sender = Address::FromId(1);
  auto genesis = [&](StateDb* state) {
    state->AddBalance(sender, U256::Exp(U256(10), U256(21)));
  };
  Node node(options, genesis);

  auto make_block = [&](uint64_t number) {
    Transaction tx;
    tx.id = number;
    tx.sender = sender;
    tx.to = Address::FromId(2);
    tx.value = U256(5);
    tx.nonce = number - 1;
    tx.gas_limit = 30'000;
    tx.gas_price = U256(1'000'000'000);
    Block block;
    block.header.number = number;
    block.header.timestamp = 1'700'000'000 + number * 13;
    block.txs = {tx};
    return block;
  };

  ReorgResult r;
  std::vector<Block> blocks;
  for (uint64_t n = 1; n <= 9; ++n) {
    blocks.push_back(make_block(n));
  }
  const std::vector<Hash> roots = ReplayTrieOnly(genesis, blocks);
  auto execute_from = [&](uint64_t from) {
    bool match = true;
    for (uint64_t n = from; n <= 9; ++n) {
      match = match && node.ExecuteBlock(blocks[n - 1], 13.0 * n).state_root == roots[n - 1];
    }
    return match;
  };
  if (!execute_from(1)) {
    std::printf("FAIL: initial 9-block build diverged from the trie-only replay\n");
    r.ok = false;
  }

  for (size_t depth = 1; depth <= 8; ++depth) {
    ReorgDepthRow row;
    row.depth = depth;
    Stopwatch timer;
    for (size_t d = 0; d < depth; ++d) {
      node.RollbackHead();
    }
    row.rollback_seconds = timer.ElapsedSeconds();
    row.roots_match = node.head_root() == roots[8 - depth] && execute_from(9 - depth + 1);
    if (!row.roots_match) {
      std::printf("FAIL: depth-%zu rollback + re-execution diverged\n", depth);
      r.ok = false;
    }
    r.rows.push_back(row);
  }
  r.invalidations = node.versioned_stats().invalidations;
  if (r.invalidations != 0) {
    std::printf("FAIL: %llu invalidations during the reorg sweep\n",
                static_cast<unsigned long long>(r.invalidations));
    r.ok = false;
  }
  return r;
}

JsonValue ToJson(const ScenarioResult& s) {
  JsonValue j = JsonValue::Object();
  j.Set("blocks", s.blocks);
  j.Set("fork_blocks", s.fork_blocks);
  j.Set("txs", s.txs);
  const char* names[] = {"baseline", "forerunner"};
  for (size_t n = 0; n < 2; ++n) {
    const NodeCoverage& c = s.nodes[n];
    JsonValue nj = JsonValue::Object();
    nj.Set("trie_reads", c.trie_reads);
    nj.Set("versioned_hits", c.versioned_hits);
    nj.Set("versioned_misses", c.versioned_misses);
    nj.Set("commits", c.versioned.commits);
    nj.Set("invalidations", c.versioned.invalidations);
    nj.Set("folds", c.versioned.folds);
    nj.Set("fold_deferrals", c.versioned.fold_deferrals);
    nj.Set("retained", static_cast<uint64_t>(c.versioned.retained));
    nj.Set("view_active", c.view_active);
    j.Set(names[n], std::move(nj));
  }
  j.Set("ok", s.ok);
  return j;
}

void PrintScenario(const char* label, const ScenarioResult& s) {
  std::printf("%s: %llu blocks (%llu on forks), %llu txs\n", label,
              static_cast<unsigned long long>(s.blocks),
              static_cast<unsigned long long>(s.fork_blocks),
              static_cast<unsigned long long>(s.txs));
  const char* names[] = {"baseline", "forerunner"};
  for (size_t n = 0; n < 2; ++n) {
    const NodeCoverage& c = s.nodes[n];
    std::printf("  %-10s trie reads %llu, versioned hits %llu, misses %llu, commits %llu, "
                "retained %zu, folds %llu, deferrals %llu\n",
                names[n], static_cast<unsigned long long>(c.trie_reads),
                static_cast<unsigned long long>(c.versioned_hits),
                static_cast<unsigned long long>(c.versioned_misses),
                static_cast<unsigned long long>(c.versioned.commits), c.versioned.retained,
                static_cast<unsigned long long>(c.versioned.folds),
                static_cast<unsigned long long>(c.versioned.fold_deferrals));
  }
}

}  // namespace

int main(int argc, char** argv) {
  BenchArgs args = ParseBenchArgs(argc, argv);
  std::printf("=== Versioned store: acquire cost, commit folds, coverage, reorg sweep ===\n");

  AcquireResult acquire = RunAcquirePart();
  std::printf("acquire: %llu acquisitions over %zu versions, %.1f ns each\n",
              static_cast<unsigned long long>(acquire.acquires), acquire.versions,
              acquire.ns_per_acquire);

  CommitResult commit = RunCommitPart();
  std::printf("commit (%zu accounts, %zu rounds): modeled fold wall %.3fms -> %.3fms "
              "with %zu workers (%.2fx); physical best-of trie-only %.3fms, "
              "store w1 %.3fms, w%zu %.3fms\n",
              commit.accounts, commit.rounds, commit.serial.fold_wall_seconds * 1e3,
              commit.parallel.fold_wall_seconds * 1e3, kCommitWorkers, commit.modeled_speedup,
              commit.trie_only.physical_seconds * 1e3, commit.serial.physical_seconds * 1e3,
              kCommitWorkers, commit.parallel.physical_seconds * 1e3);

  ScenarioResult scenario = RunScenarioPart("scenario L1 (20% forks)", 0.2, 60);
  PrintScenario("scenario L1 (20% forks)", scenario);
  ScenarioResult no_fork = RunScenarioPart("no-fork L1", 0, 60);
  PrintScenario("no-fork L1", no_fork);

  ReorgResult reorg = RunReorgPart();
  for (const ReorgDepthRow& row : reorg.rows) {
    std::printf("reorg depth %zu: roots %s, rollback %.3fms\n", row.depth,
                row.roots_match ? "identical" : "DIVERGED", row.rollback_seconds * 1e3);
  }

  JsonValue payload = JsonValue::Object();
  JsonValue acquire_json = JsonValue::Object();
  acquire_json.Set("versions", static_cast<uint64_t>(acquire.versions));
  acquire_json.Set("acquires", acquire.acquires);
  acquire_json.Set("ns_per_acquire", acquire.ns_per_acquire);
  acquire_json.Set("ok", acquire.ok);
  payload.Set("acquire", acquire_json);
  JsonValue commit_json = JsonValue::Object();
  commit_json.Set("accounts", static_cast<uint64_t>(commit.accounts));
  commit_json.Set("rounds", static_cast<uint64_t>(commit.rounds));
  commit_json.Set("workers", static_cast<uint64_t>(kCommitWorkers));
  commit_json.Set("fold_wall_serial_seconds", commit.serial.fold_wall_seconds);
  commit_json.Set("fold_wall_parallel_seconds", commit.parallel.fold_wall_seconds);
  commit_json.Set("fold_serial_work_seconds", commit.serial.fold_serial_seconds);
  commit_json.Set("modeled_speedup", commit.modeled_speedup);
  commit_json.Set("physical_trie_only_seconds", commit.trie_only.physical_seconds);
  commit_json.Set("physical_serial_seconds", commit.serial.physical_seconds);
  commit_json.Set("physical_parallel_seconds", commit.parallel.physical_seconds);
  commit_json.Set("ok", commit.ok);
  payload.Set("commit", commit_json);
  payload.Set("scenario", ToJson(scenario));
  payload.Set("no_fork", ToJson(no_fork));
  JsonValue reorg_json = JsonValue::Object();
  JsonValue rows = JsonValue::Array();
  for (const ReorgDepthRow& row : reorg.rows) {
    JsonValue rj = JsonValue::Object();
    rj.Set("depth", static_cast<uint64_t>(row.depth));
    rj.Set("roots_match", row.roots_match);
    rj.Set("rollback_seconds", row.rollback_seconds);
    rows.Append(std::move(rj));
  }
  reorg_json.Set("rows", std::move(rows));
  reorg_json.Set("invalidations", reorg.invalidations);
  reorg_json.Set("ok", reorg.ok);
  payload.Set("reorg", reorg_json);

  bool ok = acquire.ok && commit.ok && scenario.ok && no_fork.ok && reorg.ok;
  if (!FinishObservability(args, "versioned_state", payload)) {
    ok = false;
  }
  std::printf(ok ? "PASS: all versioned-state gates held\n"
                 : "FAIL: versioned-state gates violated\n");
  return ok ? 0 : 1;
}

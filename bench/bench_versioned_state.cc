// Versioned snapshot store bench: the store is every node's only source of
// committed reads, so this bench prices and gates its two hot operations.
//
//   acquire  — commits a chain of versions, then hammers AcquireAt to price a
//              snapshot-handle acquisition (the cost a speculation worker pays
//              to pin a root). Gate: every retained root acquires.
//
//   commit   — a synthetic many-account commit workload on stores with the
//              modeled 2us cold-read latency, run store-less (trie-only) at 1
//              commit worker and store-backed at 1 and 4. Gates:
//              bit-identical per-round roots across all three, and the
//              measured fold wall (a stopwatch around the fold phase; each
//              fold spins its own cold reads) at 4 workers at least 1.5x
//              below 1 worker's.
//
// Store coverage, trie-only roots and reorgs of store-backed nodes on
// scenario traffic are asserted by tests/oracle_test.cc.
//
// Exit code 1 if any gate fails. Emits BENCH_versioned_state.json via --json.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/clock.h"
#include "src/common/worker_pool.h"
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
  double physical_seconds = 0;      // best-of-rounds whole-commit stopwatch wall
  double fold_serial_seconds = 0;   // sum of per-job thread CPU, spins included
  double fold_wall_seconds = 0;     // fold-phase stopwatch wall, summed over rounds
};

// One deterministic commit workload: `n_accounts` accounts, each with a
// populated storage subtrie, re-dirtied every round. `with_store` attaches a
// versioned store (reads through pinned views); without it every read walks
// the trie.
CommitConfigRun RunCommitConfig(bool with_store, size_t workers, size_t n_accounts,
                                size_t n_rounds) {
  KvStore store;  // modeled 2us cold-read latency: what parallel folds hide
  Mpt trie(&store);
  WorkerPool pool(workers);
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
  double fold_speedup = 0;
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
  // Gate on the measured fold wall: the stopwatch around the fold phase, in
  // which every fold spins its own cold reads. It needs kCommitWorkers idle
  // cores to show the overlap.
  r.fold_speedup = r.parallel.fold_wall_seconds > 0
                       ? r.serial.fold_wall_seconds / r.parallel.fold_wall_seconds
                       : 0;
  if (r.fold_speedup < 1.5) {
    std::printf("FAIL: fold wall speedup %.2fx with %zu workers is under the gate\n",
                r.fold_speedup, kCommitWorkers);
    r.ok = false;
  }
  // Sanity: both configs did the same amount of fold work (the summed job
  // CPU must agree within timesharing noise).
  double work_ratio = r.parallel.fold_serial_seconds > 0
                          ? r.serial.fold_serial_seconds / r.parallel.fold_serial_seconds
                          : 0;
  if (work_ratio < 0.5 || work_ratio > 2.0) {
    std::printf("FAIL: fold work diverged between configs (ratio %.2f)\n", work_ratio);
    r.ok = false;
  }
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  BenchArgs args = ParseBenchArgs(argc, argv);
  std::printf("=== Versioned store: acquire cost and commit folds ===\n");

  AcquireResult acquire = RunAcquirePart();
  std::printf("acquire: %llu acquisitions over %zu versions, %.1f ns each\n",
              static_cast<unsigned long long>(acquire.acquires), acquire.versions,
              acquire.ns_per_acquire);

  CommitResult commit = RunCommitPart();
  std::printf("commit (%zu accounts, %zu rounds): measured fold wall %.3fms -> %.3fms "
              "with %zu workers (%.2fx); best-of whole commit trie-only %.3fms, "
              "store w1 %.3fms, w%zu %.3fms\n",
              commit.accounts, commit.rounds, commit.serial.fold_wall_seconds * 1e3,
              commit.parallel.fold_wall_seconds * 1e3, kCommitWorkers, commit.fold_speedup,
              commit.trie_only.physical_seconds * 1e3, commit.serial.physical_seconds * 1e3,
              kCommitWorkers, commit.parallel.physical_seconds * 1e3);

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
  commit_json.Set("fold_speedup", commit.fold_speedup);
  commit_json.Set("physical_trie_only_seconds", commit.trie_only.physical_seconds);
  commit_json.Set("physical_serial_seconds", commit.serial.physical_seconds);
  commit_json.Set("physical_parallel_seconds", commit.parallel.physical_seconds);
  commit_json.Set("ok", commit.ok);
  payload.Set("commit", commit_json);
  bool ok = acquire.ok && commit.ok;
  if (!FinishObservability(args, "versioned_state", payload)) {
    ok = false;
  }
  std::printf(ok ? "PASS: all versioned-state gates held\n"
                 : "FAIL: versioned-state gates violated\n");
  return ok ? 0 : 1;
}

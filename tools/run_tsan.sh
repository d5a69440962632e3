#!/usr/bin/env bash
# Builds the repo with ThreadSanitizer (-DFRN_SANITIZE=thread) into build-tsan/
# and runs the concurrency-sensitive tests: the persistent WorkerPool every
# parallel stage runs on, the snapshot-reader / KvStore stress test (readers
# pinning VersionedState handles while commits land), the parallel
# speculation engine's pool, the §5.2 oracle's slice (nodes at every
# speculation, block and commit worker count on DiCE runs, one of them with
# the tracer armed; its cases include the worker-count determinism, Block-STM
# and commit-worker node tests by their old names), the full forerunner
# node test, the node-subsystem tests (mempool admission and the chain
# manager's multi-depth reorgs around the worker pool), the versioned
# snapshot store (readers pinning handles through commit/fork churn, the
# parallel commit folds), the optimistic parallel block executor (worker
# threads publishing attempts through the round barrier while snapshot
# readers pin and read concurrently), the persistence log's locked append
# path, the prefetcher's trie-warming path, and the observability tests
# (sharded metrics registry under concurrent writers, trace capture during a
# threaded scenario). Pass --all to run the entire ctest suite under TSan
# instead (slow).
#
# Division of labor with the clang -Wthread-safety stage (tools/ci.sh):
# the annotated wrappers in src/common/sync.h prove *lock discipline* at
# compile time — every FRN_GUARDED_BY field is touched under its mutex, on
# every path, including ones no test exercises. TSan is the dynamic backstop
# for what annotations cannot see: lock-free atomics protocols (the sharded
# metrics counters, the tracer's enabled gate), fields with quiesced-writer
# contracts that are deliberately unguarded (TraceCollector::sample_rate_),
# and happens-before bugs between whole subsystems. Keep both green: neither
# subsumes the other.
#
# The TSan build also auto-arms the runtime lockdep (FRN_LOCKDEP, see
# src/common/sync.h): every frn::Mutex/SharedMutex acquisition below feeds a
# process-wide lock-ordering graph, and an acquisition that would close an
# ordering cycle aborts with a report — the dynamic cross-check of the static
# lock-order pass in tools/analyze.py. The lockdep_test binary is in the run
# list to prove the checker itself is armed and firing under this build.
#
# Usage:  tools/run_tsan.sh [--all]
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${repo_root}/build-tsan"

cmake -S "${repo_root}" -B "${build_dir}" -DFRN_SANITIZE=thread >/dev/null
tsan_tests=(worker_pool_test concurrency_stress_test spec_pool_test oracle_test
            forerunner_test mempool_test chain_manager_test
            versioned_state_test block_stm_test persist_test prefetcher_test
            obs_registry_test trace_format_test lockdep_test)

cmake --build "${build_dir}" -j"$(nproc)" --target "${tsan_tests[@]}"

export TSAN_OPTIONS="halt_on_error=1 ${TSAN_OPTIONS:-}"

if [[ "${1:-}" == "--all" ]]; then
  cmake --build "${build_dir}" -j"$(nproc)"
  (cd "${build_dir}" && ctest --output-on-failure)
else
  for test in "${tsan_tests[@]}"; do
    echo "=== TSan: ${test} ==="
    "${build_dir}/tests/${test}"
  done
fi

echo "TSan run clean."

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
# path, the prefetcher's trie-warming path, the observability tests
# (sharded metrics registry under concurrent writers, trace capture during a
# threaded scenario), and the lock-order probe below. Pass --all to run the
# entire ctest suite under TSan instead (slow).
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
# Lock order at runtime is TSan's own deadlock detector (on by default), the
# dynamic cross-check of the static lock-order pass in tools/analyze.py: an
# acquisition order that inverts one taken earlier in the run, even by a
# thread that has since exited, is a "lock-order-inversion" report, and
# halt_on_error=1 fails the binary. tsan_lock_order_probe, built only in this
# tree, proves the detector sees acquisitions through the frn wrappers. A
# thread that locks a mutex it already holds hangs without a TSan report, so
# every binary runs under `timeout`: a self-deadlock fails the run instead of
# hanging it.
#
# Usage:  tools/run_tsan.sh [--all]
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${repo_root}/build-tsan"

cmake -S "${repo_root}" -B "${build_dir}" -DFRN_SANITIZE=thread >/dev/null
tsan_tests=(worker_pool_test concurrency_stress_test spec_pool_test oracle_test
            forerunner_test mempool_test chain_manager_test
            versioned_state_test block_stm_test persist_test prefetcher_test
            obs_registry_test trace_format_test)
# Per-binary bound in seconds: ten times the slowest binary (oracle_test,
# about 30 s under TSan on a 4-core host).
test_timeout=300

cmake --build "${build_dir}" -j"$(nproc)" --target "${tsan_tests[@]}" tsan_lock_order_probe

export TSAN_OPTIONS="halt_on_error=1 ${TSAN_OPTIONS:-}"

if [[ "${1:-}" == "--all" ]]; then
  cmake --build "${build_dir}" -j"$(nproc)"
  (cd "${build_dir}" && ctest --output-on-failure --timeout "${test_timeout}")
else
  for test in "${tsan_tests[@]}"; do
    echo "=== TSan: ${test} ==="
    timeout --kill-after=10 "${test_timeout}" "${build_dir}/tests/${test}" || {
      echo "TSan: ${test} failed with exit $? (124: hung past ${test_timeout}s)" >&2
      exit 1
    }
  done
  # Registered with ctest because it passes on TSan's report, not on exit 0.
  echo "=== TSan: tsan_lock_order_probe ==="
  (cd "${build_dir}" && ctest -R '^tsan_lock_order_probe$' --output-on-failure)
fi

echo "TSan run clean."

#!/usr/bin/env bash
# Single-entry CI gate. Stages, in the order that fails fastest:
#
#   analyze         tools/analyze.py --self-test (lock-order,
#                   lock-annotation, layering, determinism and the lexical
#                   passes; fixture suites + clean-tree scan + the
#                   committed tools/lock_order.dot against a fresh graph).
#                   Pure python3, no build needed.
#   format          check-only clang-format over the curated file list below
#                   [skipped when clang-format is not installed]
#   tier1           default build + full ctest suite (build/), the §5.2
#                   oracle's slice (tests/oracle_test.cc) included
#   versioned-gate  bench_versioned_state gates: handle-acquire cost,
#                   trie-only vs store-backed commit roots and the measured
#                   fold wall's 4-worker speedup
#   block-stm-gate  bench_block_stm gates: bit-identical roots at 1/2/4
#                   block workers under low- and high-conflict traffic,
#                   deterministic conflict counts, >= 2x CPU-wall speedup
#   persist-smoke   cold-start/recovery: run forerunner_sim with a persist
#                   dir, reopen it with `recover`, require the same head root
#   thread-safety   clang build with -Wthread-safety -Werror=thread-safety
#                   against the annotated wrappers in src/common/sync.h
#                   [skipped when clang++ is not installed]
#   clang-tidy      curated bugprone-*/concurrency-*/performance-* checks
#                   (config in .clang-tidy) over the concurrency-heavy files
#                   [skipped when clang-tidy is not installed]
#   asan            AddressSanitizer build + full ctest suite (build-asan/)
#   oracle-soak     the oracle's DISABLED_ soak cases (more seeds, full-size
#                   fork churn, the full worker grid) from the ASan tree
#                   [skipped with --skip-asan]
#   tsan            ThreadSanitizer concurrency subset via tools/run_tsan.sh
#                   (each binary under a timeout; TSan's deadlock detector
#                   is the runtime lock-order check)
#   ubsan           UBSan build + full ctest suite (build-ubsan/)
#
# Every stage runs even after a failure (the summary table at the end shows
# all results); the script exits non-zero if any stage failed. Each build
# flavor uses its own tree, so local incremental builds stay warm.
#
# The thread-safety stage is the machine check for the repo's lock
# discipline: deleting a MutexLock from, say, KvStore::Touch or the SpecPool
# batch retirement turns a latent race into a compile error there. On
# machines without clang the annotations compile to nothing (see sync.h) and
# the stage is skipped — TSan remains the dynamic backstop.
#
# Usage:  tools/ci.sh [--skip-asan] [--skip-tsan] [--skip-ubsan]
#                     [--stages a,b,c]
#
# --stages runs only the named stages (comma list, names as in the summary
# table); everything else is left out of the run and the summary entirely.
# An unknown stage name is a usage error.
set -uo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
jobs="$(nproc)"
skip_asan=0
skip_tsan=0
skip_ubsan=0
only_stages=""
usage="usage: tools/ci.sh [--skip-asan] [--skip-tsan] [--skip-ubsan] [--stages a,b,c]"
for arg in "$@"; do
  case "${arg}" in
    --skip-asan) skip_asan=1 ;;
    --skip-tsan) skip_tsan=1 ;;
    --skip-ubsan) skip_ubsan=1 ;;
    --stages=*) only_stages="${arg#--stages=}" ;;
    --stages) ;;  # value arrives as the next arg
    *)
      if [[ -n "${prev_arg:-}" && "${prev_arg}" == "--stages" ]]; then
        only_stages="${arg}"
      else
        echo "${usage}" >&2
        exit 2
      fi
      ;;
  esac
  prev_arg="${arg}"
done

all_stages=(analyze format tier1 versioned-gate block-stm-gate persist-smoke
            thread-safety clang-tidy asan oracle-soak tsan ubsan)
for s in ${only_stages//,/ }; do
  if [[ " ${all_stages[*]} " != *" ${s} "* ]]; then
    echo "tools/ci.sh: unknown stage '${s}'" >&2
    echo "${usage}" >&2
    exit 2
  fi
done

# True when the stage is selected by --stages (or no filter is active).
stage_selected() {
  [[ -z "${only_stages}" ]] && return 0
  local s
  for s in ${only_stages//,/ }; do
    [[ "${s}" == "$1" ]] && return 0
  done
  return 1
}

# Files held to .clang-format (scoped: the legacy tree is not reflowed
# wholesale; files join this list as PRs touch them).
format_files=(
  src/common/sync.h
  src/obs/registry.cc
  src/trie/kv_store.cc
  tests/analyze_fixtures/raii_temporary/bad_raii_temporary.cc
  tests/analyze_fixtures/raw_clock/bad_raw_clock.cc
  tests/analyze_fixtures/raw_rand/bad_raw_rand.cc
  tests/analyze_fixtures/raw_sync/bad_raw_sync.cc
  tests/analyze_fixtures/todo_tag/bad_todo_tag.cc
  tests/analyze_fixtures/tainted_iter/bad_unordered_iter.cc
)

# The clang-tidy stage covers every translation unit in src/ (the curated
# list it replaced had gone stale when files moved between subsystems).
mapfile -t tidy_files < <(cd "${repo_root}" && find src -name '*.cc' | sort)

stage_names=()
stage_results=()
overall=0

run_stage() {
  local name="$1"
  shift
  stage_selected "${name}" || return 0
  echo
  echo "=== CI stage: ${name} ==="
  if "$@"; then
    stage_names+=("${name}")
    stage_results+=("PASS")
  else
    stage_names+=("${name}")
    stage_results+=("FAIL")
    overall=1
    echo "--- stage ${name} FAILED (continuing) ---" >&2
  fi
}

skip_stage() {
  local name="$1" why="$2"
  stage_selected "${name}" || return 0
  echo
  echo "=== CI stage: ${name} — skipped (${why}) ==="
  stage_names+=("${name}")
  stage_results+=("SKIP: ${why}")
}

stage_analyze() {
  python3 "${repo_root}/tools/analyze.py" --self-test
}

stage_format() {
  local bad=0 f
  for f in "${format_files[@]}"; do
    if ! clang-format --dry-run --Werror "${repo_root}/${f}"; then
      bad=1
    fi
  done
  return "${bad}"
}

stage_tier1() {
  # compile_commands.json is always exported: the clang-tidy stage falls
  # back to it, and editors expect it in build/.
  cmake -S "${repo_root}" -B "${repo_root}/build" \
    -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null &&
    cmake --build "${repo_root}/build" -j"${jobs}" &&
    (cd "${repo_root}/build" && ctest --output-on-failure -j"${jobs}")
}

stage_versioned_gate() {
  "${repo_root}/build/bench/bench_versioned_state" --json "${repo_root}/build/BENCH_versioned_state.json"
}

stage_block_stm_gate() {
  "${repo_root}/build/bench/bench_block_stm" --json "${repo_root}/build/BENCH_block_stm.json"
}

stage_persist_smoke() {
  local dir
  dir="$(mktemp -d)" || return 1
  local sim="${repo_root}/build/tools/forerunner_sim"
  local run_out recover_out run_root recover_root status=1
  if run_out="$("${sim}" run --scenario L1 --duration 20 --persist-dir "${dir}/state")" &&
     recover_out="$("${sim}" recover --persist-dir "${dir}/state")"; then
    echo "${run_out}" | tail -n 3
    echo "${recover_out}"
    run_root="$(echo "${run_out}" | awk '/persisted head root:/ {print $4}')"
    recover_root="$(echo "${recover_out}" | awk '/recovered head root:/ {print $4}')"
    if [[ -n "${run_root}" && "${run_root}" == "${recover_root}" ]] &&
       echo "${recover_out}" | grep -q "recovery check: ok"; then
      status=0
    else
      echo "persist-smoke: head root mismatch (run=${run_root} recover=${recover_root})" >&2
    fi
  fi
  rm -rf "${dir}"
  return "${status}"
}

stage_thread_safety() {
  cmake -S "${repo_root}" -B "${repo_root}/build-clang" \
    -DCMAKE_CXX_COMPILER=clang++ -DFRN_THREAD_SAFETY=ON \
    -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null &&
    cmake --build "${repo_root}/build-clang" -j"${jobs}"
}

stage_clang_tidy() {
  # Uses the clang build tree's compile commands when the thread-safety stage
  # produced one (clang-tidy parses cleanest against clang flags), falling
  # back to the default tree's export.
  local cc_dir="${repo_root}/build-clang"
  [[ -f "${cc_dir}/compile_commands.json" ]] || cc_dir="${repo_root}/build"
  local bad=0 f
  for f in "${tidy_files[@]}"; do
    echo "--- clang-tidy: ${f}"
    if ! clang-tidy -p "${cc_dir}" --quiet "${repo_root}/${f}"; then
      bad=1
    fi
  done
  return "${bad}"
}

stage_asan() {
  cmake -S "${repo_root}" -B "${repo_root}/build-asan" -DFRN_SANITIZE=address >/dev/null &&
    cmake --build "${repo_root}/build-asan" -j"${jobs}" &&
    (cd "${repo_root}/build-asan" && ctest --output-on-failure -j"${jobs}")
}

stage_oracle_soak() {
  "${repo_root}/build-asan/tests/oracle_test" --gtest_also_run_disabled_tests \
    --gtest_filter='OracleSoakTest.*'
}

stage_tsan() {
  "${repo_root}/tools/run_tsan.sh"
}

stage_ubsan() {
  cmake -S "${repo_root}" -B "${repo_root}/build-ubsan" -DFRN_SANITIZE=undefined >/dev/null &&
    cmake --build "${repo_root}/build-ubsan" -j"${jobs}" &&
    (cd "${repo_root}/build-ubsan" && ctest --output-on-failure -j"${jobs}")
}

run_stage analyze stage_analyze

if command -v clang-format >/dev/null 2>&1; then
  run_stage format stage_format
else
  skip_stage format "clang-format not installed"
fi

run_stage tier1 stage_tier1
run_stage versioned-gate stage_versioned_gate
run_stage block-stm-gate stage_block_stm_gate
run_stage persist-smoke stage_persist_smoke

if command -v clang++ >/dev/null 2>&1; then
  run_stage thread-safety stage_thread_safety
else
  skip_stage thread-safety "clang++ not installed (annotations are no-ops under GCC)"
fi

if command -v clang-tidy >/dev/null 2>&1; then
  run_stage clang-tidy stage_clang_tidy
else
  skip_stage clang-tidy "clang-tidy not installed"
fi

if [[ "${skip_asan}" == 0 ]]; then
  run_stage asan stage_asan
  run_stage oracle-soak stage_oracle_soak
else
  skip_stage asan "--skip-asan"
  skip_stage oracle-soak "--skip-asan"
fi

if [[ "${skip_tsan}" == 0 ]]; then
  run_stage tsan stage_tsan
else
  skip_stage tsan "--skip-tsan"
fi

if [[ "${skip_ubsan}" == 0 ]]; then
  run_stage ubsan stage_ubsan
else
  skip_stage ubsan "--skip-ubsan"
fi

echo
echo "=== CI summary ==="
printf '%-15s %s\n' "stage" "result"
printf '%-15s %s\n' "-----" "------"
for i in "${!stage_names[@]}"; do
  printf '%-15s %s\n' "${stage_names[$i]}" "${stage_results[$i]}"
done

if [[ "${overall}" != 0 ]]; then
  echo "CI FAILED." >&2
  exit 1
fi
echo "CI green."

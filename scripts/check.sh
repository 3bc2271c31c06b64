#!/usr/bin/env bash
# Full verification matrix: plain build + ctest, the kernel-benchmark smoke
# gate (zero pool misses, zero dense full-table gradient scans in a
# warmed-up training step, no silent scalar kernel fallback), the serving
# smoke gate (router tail latency, snapshot-open and delta-apply growth
# with the entity table), the imr_serve CLI (query, then serve with a hot
# reload), the end-to-end benchmark smoke (served responses
# bit-exact vs the reference, AUC floors, recorded train losses), the ANN
# smoke gate (IVF recall@10 vs exact, sub-millisecond p99 at 100k
# entities), the SIMD backend matrix (full ctest under every compiled
# backend), ThreadSanitizer, AddressSanitizer,
# UndefinedBehaviorSanitizer, the clang thread-safety
# analysis build, the project linter (pass 1), and the cross-file analyzer
# (pass 2: lock-order cycles, hot-path reachability, Status propagation,
# with a >= 5x incremental-cache gate). Each stage reports pass/fail/skip
# and the script exits nonzero if anything failed.
#
# Usage: scripts/check.sh [-jN]   (run from the repo root)
set -u

JOBS="${1:--j$(nproc)}"
ROOT="$(cd "$(dirname "$0")/.." && pwd)"
cd "$ROOT"

declare -a STAGE_NAMES=()
declare -a STAGE_RESULTS=()
FAILED=0

record() {  # name result
  STAGE_NAMES+=("$1")
  STAGE_RESULTS+=("$2")
  if [ "$2" = FAIL ]; then FAILED=1; fi
}

run_stage() {  # name command...
  local name="$1"
  shift
  echo
  echo "==== $name ===="
  if "$@"; then
    record "$name" PASS
  else
    record "$name" FAIL
  fi
}

build_and_test() {  # builddir cmake-extra-args... -- ctest-extra-args...
  local dir="$1"
  shift
  local cmake_args=()
  while [ $# -gt 0 ] && [ "$1" != "--" ]; do
    cmake_args+=("$1")
    shift
  done
  [ $# -gt 0 ] && shift  # drop --
  cmake -B "$dir" -S . "${cmake_args[@]}" >/dev/null \
    && cmake --build "$dir" "$JOBS" \
    && ctest --test-dir "$dir" --output-on-failure "$JOBS" "$@"
}

# Runs a command from a fresh temporary directory, removed afterwards. The
# serving and ANN smokes write bench_results/BENCH_{serve,ann}.json under
# the working directory; run from the checkout they would overwrite the
# committed full-run results.
in_scratch_dir() {  # command...
  local dir status
  dir="$(mktemp -d)" || return 1
  (cd "$dir" && "$@")
  status=$?
  rm -rf "$dir"
  return "$status"
}

# 1. Plain release build, full test suite (includes the imr_lint ctest).
run_stage "build+ctest" build_and_test build -DCMAKE_BUILD_TYPE=Release --

# 1b. Kernel benchmark smoke: tiny sizes, exits nonzero if a warmed-up
# training step reports any buffer-pool miss (an allocation crept back onto
# the hot path), if the steady-state embedding step loses row sparsity
# (SparseGradStats reports a dense full-table gradient scan), or if kernel
# dispatch silently falls back to scalar on a vector-capable host.
if [ -x build/bench/bench_kernels ]; then
  run_stage "bench-smoke" build/bench/bench_kernels --smoke
else
  record "bench-smoke" SKIP
fi

# 1b'. Serving smoke: a reduced replay, exits nonzero if the router's p99
# regresses past 10x the single-thread engine floor, or if snapshot open or
# a 228-row delta apply grows more than 3x when the entity table grows 8x.
# Cache, hot-swap, kNN-swap, delta-swap and int8 parity gates are ctest
# cases (stage 1).
if [ -x build/bench/bench_serve ]; then
  run_stage "serve-smoke" in_scratch_dir "$ROOT/build/bench/bench_serve" --smoke
else
  record "serve-smoke" SKIP
fi

# 1b'''''. Serving CLI: trains a tiny demo snapshot, answers its sample
# queries with `imr_serve query`, then drives `imr_serve serve` over stdin
# (three query lines, stats, a hot reload, quit). Fails if a command exits
# nonzero, prints an `error:` line, answers no pair, or the reload does not
# publish generation 2.
serve_cli() {
  local dir query_out="" serve_out="" answered=0 status=1
  dir="$(mktemp -d)" || return 1
  if build/examples/imr_serve train-demo --workdir "$dir" --scale 0.2 \
       --epochs 1 >/dev/null \
     && query_out="$(build/examples/imr_serve query --workdir "$dir")" \
     && serve_out="$({ head -n 3 "$dir/queries.tsv"; echo stats;
                       echo "reload $dir/model.imrs"; echo quit; } \
                     | build/examples/imr_serve serve --workdir "$dir" \
                         --replicas 2 --workers 2)"; then
    answered="$(grep -c '^(' <<<"$query_out")"
    if [ "$answered" -ge 1 ] \
       && ! grep -q 'error:' <<<"$query_out$serve_out" \
       && grep -q 'now serving generation 2' <<<"$serve_out"; then
      status=0
    fi
  fi
  echo "query answered $answered pairs"
  printf '%s\n' "$serve_out"
  rm -rf "$dir"
  return "$status"
}
if [ -x build/examples/imr_serve ]; then
  run_stage "serve-cli" serve_cli
else
  record "serve-cli" SKIP
fi

# 1b'''. Snapshot format compatibility: the SnapshotCompat* suite proves
# a version-1 file fails as an unsupported version, v2 opens zero-copy
# with a valid content hash and 64-byte-aligned arrays, and a v1-era
# reader cleanly rejects v2 files — the cross-version contract a serving
# fleet mid-rollout depends on.
if [ -x build/tests/serve_test ]; then
  run_stage "snapshot-compat" build/tests/serve_test \
      --gtest_filter='SnapshotCompat*'
else
  record "snapshot-compat" SKIP
fi

# 1b''''. End-to-end smoke: bench/e2e/run.sh builds the standalone
# benchmark from this checkout and runs every workload with 2 s phases. It
# exits nonzero if a served response differs from the reference forward, a
# held-out AUC floor is missed, or a train-nyt epoch loss drifts from its
# recorded value.
run_stage "e2e-smoke" bash bench/e2e/run.sh --smoke

# 1b''. ANN smoke: IVF index over 100k x 64 clustered vectors, exits
# nonzero if recall@10 vs the exact FlatIndex drops below 0.95 or p99
# query latency exceeds 1 ms at nprobe=16. On the scalar backend the
# latency bound relaxes x8 (no SIMD distance sweep); the recall bound
# never relaxes.
if [ -x build/bench/bench_ann ]; then
  run_stage "ann-smoke" in_scratch_dir "$ROOT/build/bench/bench_ann" --smoke
else
  record "ann-smoke" SKIP
fi

# 1c. SIMD backend matrix: force every backend this build+host supports
# (bench_kernels --list_backends; scalar is always in the list) through the
# full test suite via the IMR_KERNEL_BACKEND pin, so a kernel that only
# breaks under one ISA — or a dispatch bug that ignores the pin — fails CI.
if [ -x build/bench/bench_kernels ]; then
  simd_matrix() {
    local backend ok=0
    for backend in $(build/bench/bench_kernels --list_backends); do
      echo "---- IMR_KERNEL_BACKEND=$backend ----"
      if ! IMR_KERNEL_BACKEND="$backend" \
           ctest --test-dir build --output-on-failure "$JOBS"; then
        ok=1
      fi
    done
    return "$ok"
  }
  run_stage "simd" simd_matrix
else
  record "simd" SKIP
fi

# 2-4. Sanitizers, each in its own build tree, selecting its label so a
# sanitizer tree only runs the suite it instruments.
run_stage "tsan" build_and_test build-tsan -DIMR_SANITIZE=thread \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo -- -L tsan
run_stage "asan" build_and_test build-asan -DIMR_SANITIZE=address \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo -- -L asan
run_stage "ubsan" build_and_test build-ubsan -DIMR_SANITIZE=undefined \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo -- -L ubsan

# 5. Clang thread-safety analysis (compile-only gate; -Werror=thread-safety
# makes any violation a build failure). Skipped when clang is unavailable.
if command -v clang++ >/dev/null 2>&1; then
  echo
  echo "==== thread-safety ===="
  if cmake -B build-tsa -S . -DCMAKE_CXX_COMPILER=clang++ \
       -DIMR_THREAD_SAFETY=ON >/dev/null \
     && cmake --build build-tsa "$JOBS"; then
    record "thread-safety" PASS
  else
    record "thread-safety" FAIL
  fi
else
  echo
  echo "==== thread-safety ==== (skipped: clang++ not found)"
  record "thread-safety" SKIP
fi

# 6. Linter, standalone (also already ran inside stage 1's ctest; running
# it again here keeps the stage table complete even if stage 1 failed to
# build).
if [ -x build/tools/imr_lint ]; then
  run_stage "imr_lint" build/tools/imr_lint "$ROOT"
else
  record "imr_lint" SKIP
fi

# 7. Cross-file analyzer (pass 2): whole-program lock-order / hot-path /
# Status-propagation analyses against the checked-in baseline. Exits
# nonzero on any non-baselined finding and prints the per-analysis timing
# summary. The second invocation gates the incremental model cache: a warm
# re-run must be at least 5x faster than a cold one.
if [ -x build/tools/imr_analyze ]; then
  run_stage "analyze" build/tools/imr_analyze \
    --cache build/imr_analysis_cache "$ROOT"
  run_stage "analyze-cache" build/tools/imr_analyze \
    --bench-cache build/imr_analysis_cache_bench --min-speedup 5 "$ROOT"
else
  record "analyze" SKIP
  record "analyze-cache" SKIP
fi

echo
echo "==== summary ===="
for i in "${!STAGE_NAMES[@]}"; do
  printf '%-16s %s\n' "${STAGE_NAMES[$i]}" "${STAGE_RESULTS[$i]}"
done
exit "$FAILED"

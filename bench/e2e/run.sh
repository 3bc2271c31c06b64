#!/usr/bin/env bash
# Builds imr_e2e (the standalone CMake project in this directory, which
# compiles the library from this checkout with its shipped flags) and runs it.
#
#   bench/e2e/run.sh --workload <name> --seed <n> [--seconds <s>] [--trace 0|1]
#       One workload in one process; the last stdout line is its JSON
#       summary. This is the form BENCHMARK.json's command uses.
#
#   bench/e2e/run.sh [--seed N] [--trace] [--smoke] [--seconds S]
#       Every workload, each in its own process, then a merge of the results
#       into bench_results/e2e/<sha>-s<seed>[-smoke][-trace].json stamped
#       with the git sha, dirty flag and host metadata. --smoke shortens
#       every phase to 2 s for a sanity pass.
#
# Build output goes to stderr, into .bench_build/e2e at the checkout root.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
cd "$root"
build=".bench_build/e2e"
jobs="$(nproc 2>/dev/null || echo 4)"

if [[ ! -f "$build/CMakeCache.txt" ]]; then
  generator=()
  if command -v ninja >/dev/null 2>&1; then generator=(-G Ninja); fi
  cmake -S bench/e2e -B "$build" "${generator[@]}" \
    -DCMAKE_BUILD_TYPE=Release >&2
fi
cmake --build "$build" --target imr_e2e -j "$jobs" >&2
bin="$build/imr_e2e"

for arg in "$@"; do
  if [[ "$arg" == "--workload" ]]; then
    exec "$bin" "$@"
  fi
done

seed=1
trace=0
seconds=25
suffix=""
while [[ $# -gt 0 ]]; do
  case "$1" in
    --seed) seed="$2"; shift 2 ;;
    --trace) trace=1; shift ;;
    --smoke) seconds=2; suffix="-smoke"; shift ;;
    --seconds) seconds="$2"; shift 2 ;;
    *) echo "usage: $0 [--seed N] [--trace] [--smoke] [--seconds S]" >&2
       exit 2 ;;
  esac
done
if [[ "$trace" == 1 ]]; then suffix="$suffix-trace"; fi

out="bench_results/e2e"
mkdir -p "$out"
sha="nogit"
dirty="unknown"
if git rev-parse --short HEAD >/dev/null 2>&1; then
  sha="$(git rev-parse --short HEAD)"
  if [[ -n "$(git status --porcelain)" ]]; then dirty=true; else dirty=false; fi
fi

status=0
results=()
for workload in $("$bin" --list); do
  echo "== $workload (seed $seed, ${seconds}s, trace $trace)" >&2
  log="$out/$workload-s$seed$suffix.log"
  if ! "$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" \
      --trace "$trace" --out "$out" | tee "$log"; then
    status=1
  fi
  result="$out/$workload-s$seed"
  if [[ "$trace" == 1 ]]; then result="$result-trace"; fi
  results+=("$result.json")
done

"$bin" --merge "$out/$sha-s$seed$suffix.json" "${results[@]}" \
  --meta "sha=$sha" --meta "dirty=$dirty" --meta "seed=$seed" \
  --meta "seconds=$seconds" --meta "trace=$trace" \
  --meta "nproc=$jobs" || status=1
exit "$status"

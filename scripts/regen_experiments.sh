#!/usr/bin/env bash
# Regenerate bench_output.txt: rebuild the default preset and rerun every
# bench binary with its default (EXPERIMENTS.md) settings.
#
# Usage:
#   scripts/regen_experiments.sh              # rebuild + all benches
#   scripts/regen_experiments.sh --tsan       # also run the ThreadSanitizer
#                                             # pass over the replica-runner
#                                             # and simulator tests first
#   BENCH_THREADS=4 scripts/regen_experiments.sh   # pin --threads for the
#                                             # replica-parallel figure runs
#                                             # (default: all hardware threads)
#
# Output is deterministic per seed and per --threads-invariant by
# construction (see DESIGN.md "Parallel replica runs"), so a diff of
# bench_output.txt against a committed copy is a meaningful regression
# signal regardless of the machine's core count. Wall-clock notes in
# EXPERIMENTS.md do depend on the machine.

set -euo pipefail
cd "$(dirname "$0")/.."

run_tsan=0
for arg in "$@"; do
  case "$arg" in
    --tsan) run_tsan=1 ;;
    *) echo "usage: $0 [--tsan]" >&2; exit 2 ;;
  esac
done

if [[ "$run_tsan" == 1 ]]; then
  echo "== ThreadSanitizer pass (replica runner + simulator tests) =="
  cmake --preset tsan
  cmake --build --preset tsan -j "$(nproc)"
  ctest --preset tsan
fi

echo "== Rebuild (default preset) =="
cmake --preset default
cmake --build --preset default -j "$(nproc)"

threads_flag=""
if [[ -n "${BENCH_THREADS:-}" ]]; then
  threads_flag="--threads=${BENCH_THREADS}"
fi

# Discover the suite: every build/bench executable that answers the --spec
# handshake (bench_common.h) prints "order<TAB>recorded<TAB>name<TAB>title"
# and is run in order. Binaries that don't speak --spec (the
# google-benchmark micro benches) fall out of the probe; they report
# non-deterministic wall times and are smoke-run separately below.
specs=$(for b in ./build/bench/*; do
  [[ -x "$b" && -f "$b" ]] || continue
  "$b" --spec 2>/dev/null || true
done | grep -E $'^[0-9]+\t[01]\t' | sort -n)

out=bench_output.txt
artifacts=bench_artifacts
: > "$out"
mkdir -p "$artifacts"
while IFS=$'\t' read -r order recorded name title; do
  if [[ "$recorded" != 1 ]]; then
    echo "== $name: skipped (not recorded: $title) =="
    continue
  fi
  start=$SECONDS
  {
    echo "===== $name ${threads_flag} ====="
    # The JSON snapshot is the machine-readable twin of the text table;
    # stdout is byte-identical with or without --metrics-json (asserted by
    # the acceptance sweep), so the artifacts ride along for free.
    ./build/bench/"$name" ${threads_flag} \
      --metrics-json="$artifacts/$name.metrics.json"
    echo
  } >> "$out"
  echo "== $name: $((SECONDS - start))s =="
done <<< "$specs"

# The google-benchmark binaries report wall times, which are not
# deterministic; keep them out of bench_output.txt but still smoke-run the
# core-ops suite.
echo "== micro_core_ops (smoke, not recorded) =="
# Plain double: the pinned google-benchmark predates the "0.01s" suffix
# syntax and rejects it.
./build/bench/micro_core_ops --benchmark_min_time=0.01 > /dev/null

# The key-tree scale sweep + tree-shape ablations (WGL degree sweep,
# placement ablation, through-directory admission) report wall-clock (not
# recorded); smoke-run a small point with the O(N) invariant passes on.
# BENCH_scale.json records the measured curves (regenerate the 10^4/10^5
# points with ./build/bench/micro_scale, the 10^6/10^5 decade points with
# ./build/bench/micro_scale --full; see EXPERIMENTS.md "Tree-shape
# ablations").
echo "== micro_scale (smoke, not recorded) =="
./build/bench/micro_scale --users=10000 --runs=2 --full \
  --metrics-json="$artifacts/micro_scale.metrics.json" > /dev/null

echo "Wrote $out and $artifacts/*.metrics.json"

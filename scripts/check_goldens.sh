#!/usr/bin/env bash
# Golden check: reruns every recorded bench and compares, byte for byte,
#   - its stdout with its section of bench_output.txt, and
#   - its --metrics-json snapshot with bench_artifacts/NAME.metrics.json.
# The recorded benches are discovered through the --spec handshake, exactly
# as scripts/regen_experiments.sh discovers them, so the two cannot drift.
# Output is --threads-invariant by construction, so the section header's
# --threads flag is ignored.
#
# Usage: scripts/check_goldens.sh [BUILD_DIR]   (default: build)
#   Expects BUILD_DIR to be an up-to-date build of the default preset
#   (scripts/presubmit.sh builds it first). Exit 0 iff every recorded bench
#   reproduces both goldens; on a mismatch the first differing lines are
#   printed and the remaining benches still run.
set -euo pipefail
cd "$(dirname "$0")/.."

build="${1:-build}"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

specs=$(for b in "$build"/bench/*; do
  [[ -x "$b" && -f "$b" ]] || continue
  "$b" --spec 2>/dev/null || true
done | grep -E $'^[0-9]+\t[01]\t' | sort -n)

checked=0
failed=0
while IFS=$'\t' read -r order recorded name title; do
  [[ "$recorded" == 1 ]] || continue
  # The section regen_experiments.sh wrote: the bench's stdout followed by
  # one blank line, between its "===== NAME ... =====" header and the next.
  awk -v name="$name" '
    /^===== / { in_section = ($2 == name); next }
    in_section { print }
  ' bench_output.txt > "$tmp/$name.golden"
  start=$SECONDS
  status=ok
  if ! "$build/bench/$name" --metrics-json="$tmp/$name.metrics.json" \
      > "$tmp/$name.out" 2>/dev/null; then
    status=FAIL
    echo "FAIL: $name exited non-zero" >&2
  fi
  echo >> "$tmp/$name.out"
  if ! cmp -s "$tmp/$name.golden" "$tmp/$name.out"; then
    status=FAIL
    echo "FAIL: $name stdout differs from bench_output.txt" >&2
    diff "$tmp/$name.golden" "$tmp/$name.out" | head -20 >&2 || true
  fi
  if ! cmp -s "bench_artifacts/$name.metrics.json" \
      "$tmp/$name.metrics.json"; then
    status=FAIL
    echo "FAIL: $name metrics JSON differs from" \
      "bench_artifacts/$name.metrics.json" >&2
  fi
  [[ "$status" == ok ]] || failed=$((failed + 1))
  checked=$((checked + 1))
  echo "  $name: $status ($((SECONDS - start))s)"
done <<< "$specs"

if [[ "$checked" == 0 ]]; then
  echo "check_goldens: no recorded benches found under $build/bench" >&2
  exit 1
fi
if [[ "$failed" != 0 ]]; then
  echo "check_goldens: $failed of $checked recorded benches differ" >&2
  exit 1
fi
echo "check_goldens: OK ($checked recorded benches)"

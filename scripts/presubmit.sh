#!/usr/bin/env bash
# Presubmit: the three ROADMAP invocations plus the docs check in one
# command.
#
#   0. check_docs — markdown links, §-section refs, file:line refs, and
#                   backticked paths across README/DESIGN/EXPERIMENTS/
#                   ROADMAP must all resolve (scripts/check_docs.sh)
#   1. default   — RelWithDebInfo build + the full tier-1 ctest suite
#   1b. goldens  — every recorded bench's stdout and metrics JSON
#                   byte-identical to bench_output.txt and bench_artifacts/
#                   (scripts/check_goldens.sh, on the default build)
#   2. asan-ubsan — every tier-1 test under ASan+UBSan
#                   (-fno-sanitize-recover=all)
#   3. tsan      — the replica-runner, replicated-key-server, simulator,
#                   metrics-registry, and transport suites under
#                   ThreadSanitizer (the registry suite exercises the
#                   cross-replica merge at --threads>1; the transport
#                   conformance suite and the multi-process smoke exercise
#                   UdpTransport's event-loop thread)
#   4. soak      — one scripts/soak_rekey.sh round: the multi-process
#                   join/leave/rekey demo over real loopback UDP, asserting
#                   decryption closure + forward secrecy from wire bytes
#
# Usage: scripts/presubmit.sh [-j N]
#   -j N   build parallelism (default: nproc)
#
# Each pass uses the CMake presets from CMakePresets.json, so the build
# trees (build/, build-asan-ubsan/, build-tsan/) are the same ones the
# README documents and stay warm across presubmit runs. The script stops
# at the first failing configure/build/test.
set -euo pipefail

cd "$(dirname "$0")/.."

jobs="$(nproc 2>/dev/null || echo 2)"
while getopts "j:" opt; do
  case "$opt" in
    j) jobs="$OPTARG" ;;
    *) echo "usage: $0 [-j N]" >&2; exit 2 ;;
  esac
done

run_preset() {
  local preset="$1"
  echo "==== [$preset] configure"
  cmake --preset "$preset"
  echo "==== [$preset] build (-j $jobs)"
  cmake --build --preset "$preset" -j "$jobs"
  echo "==== [$preset] ctest"
  ctest --preset "$preset"
}

echo "==== [docs] check_docs"
scripts/check_docs.sh

run_preset default

echo "==== [goldens] recorded bench output (scripts/check_goldens.sh)"
scripts/check_goldens.sh build

run_preset asan-ubsan
run_preset tsan

echo "==== [soak] loopback UDP rekeying (scripts/soak_rekey.sh)"
scripts/soak_rekey.sh build 1

echo "==== presubmit OK: docs + default + goldens + asan-ubsan + tsan + soak all green"

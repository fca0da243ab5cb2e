#!/usr/bin/env bash
# Builds the serving benchmark suite and runs its workloads, each in its own
# process (so rss_mib and setup_s are per workload).
#
#   bash bench/suite/run.sh [--workload NAME] [--seed N] [--seconds S]
#                           [--trace [0|1]] [--smoke] [--out FILE]
#                           [--build-dir DIR]
#
# Without --workload every workload runs. --seconds defaults to 25, the
# run length BENCHMARK.json names and the bounds were calibrated for; --smoke
# runs every workload for about 2 s. Each run prints one `workload metric
# value unit` line per metric and, as its last line, a JSON object
# {correct, attempted, failed, metrics}; its record is appended to FILE
# (default DIR/results.jsonl) for compare.py. --trace 1 reports the
# per-layer metrics instead of the end-to-end ones and writes a Chrome trace
# per workload to DIR/traces/. DIR defaults to build/bench-suite.
# Exits non-zero when the build fails or any output check fails.
set -euo pipefail

ALL_WORKLOADS="cifar-distinct cifar-shared imagenet224-int8 adversarial-mixed"

workload=""
seed=1
seconds=""
trace=0
smoke=0
out=""
build_dir="build/bench-suite"

die() {
  echo "run.sh: $*" >&2
  exit 2
}

while [ $# -gt 0 ]; do
  case "$1" in
    --workload) [ $# -ge 2 ] || die "--workload needs a value"; workload="$2"; shift 2 ;;
    --seed) [ $# -ge 2 ] || die "--seed needs a value"; seed="$2"; shift 2 ;;
    --seconds) [ $# -ge 2 ] || die "--seconds needs a value"; seconds="$2"; shift 2 ;;
    --trace)
      if [ $# -ge 2 ] && { [ "$2" = 0 ] || [ "$2" = 1 ]; }; then
        trace="$2"; shift 2
      else
        trace=1; shift
      fi ;;
    --smoke) smoke=1; shift ;;
    --out) [ $# -ge 2 ] || die "--out needs a value"; out="$2"; shift 2 ;;
    --build-dir) [ $# -ge 2 ] || die "--build-dir needs a value"; build_dir="$2"; shift 2 ;;
    *) die "unknown argument $1" ;;
  esac
done

case "$seed" in ''|*[!0-9]*) die "--seed must be a non-negative integer" ;; esac

# Run from the repository root, wherever the script is called from.
cd "$(dirname "$0")/../.."

jobs=$(nproc 2>/dev/null || echo 2)
if [ "$jobs" -gt 4 ]; then jobs=4; fi
# Keep the compiler's temporary files inside the checkout too.
mkdir -p "$build_dir/tmp"
export TMPDIR="$PWD/$build_dir/tmp"
if [ ! -f "$build_dir/CMakeCache.txt" ]; then
  cmake -S bench/suite -B "$build_dir" >&2 || { echo "run.sh: configure failed" >&2; exit 1; }
fi
cmake --build "$build_dir" --target antidote_suite -j "$jobs" >&2 ||
  { echo "run.sh: build failed" >&2; exit 1; }

[ -n "$out" ] || out="$build_dir/results.jsonl"
mkdir -p "$build_dir/traces"

# One process: a generator, a collector and one batch worker that runs the
# kernels itself (ANTIDOTE_THREADS counts it plus the kernel pool, here
# empty). A second kernel thread adds little throughput on a shared 4-vCPU
# host and makes every step wait on the slower of two vCPUs (see README).
export ANTIDOTE_THREADS=1

status=0
for w in ${workload:-$ALL_WORKLOADS}; do
  args=(--workload "$w" --seed "$seed" --trace "$trace" --record-file "$out")
  [ -n "$seconds" ] && args+=(--seconds "$seconds")
  [ "$smoke" = 1 ] && args+=(--smoke)
  [ "$trace" = 1 ] && args+=(--trace-file "$build_dir/traces/$w.trace.json")
  "$build_dir/antidote_suite" "${args[@]}" || status=1
done
echo "run.sh: records appended to $out" >&2
exit "$status"

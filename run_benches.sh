#!/bin/sh
# Regenerates every table/figure and ablation through the suite binary,
# emitting the machine-readable BENCH_*.json reports and appending all
# output to bench_output.txt. Each experiment is isolated: a failure is
# reported loudly (both to stderr and in the log) and the remaining
# experiments still run; the script exits non-zero if any failed.
#
#   ./run_benches.sh            full run (every experiment, full size)
#   ./run_benches.sh --quick    the exec, adaptive, serve, persist,
#                               ablations, regalloc and codegen
#                               experiments at --smoke size (asserts
#                               live, timings not meaningful)
#   ./run_benches.sh --check    regression gate: run the exec,
#                               adaptive, serve, and persist
#                               experiments at full size, then
#                               `suite exec-check` compares the fresh
#                               BENCH files against baselines/ under
#                               the gate table (tcc_suite::GATES: exec
#                               speedups and dispatches per insn at
#                               30%, the adaptive tail ratio, serve
#                               throughput and persist warm_speedup at
#                               50%, serve p99 at 75%, largest-pool
#                               hit rate >= 0.9 and compiles per
#                               unique <= 1, persist warm_speedup >= 5
#                               and disk_hits >= cells); one retry
#                               absorbs machine noise
set -u
cd "$(dirname "$0")"

quick=0
check=0
for a in "$@"; do
  case "$a" in
    --quick) quick=1 ;;
    --check) check=1 ;;
    *) echo "usage: $0 [--quick|--check]" >&2; exit 2 ;;
  esac
done

: > bench_output.txt
failed=""

if [ "$check" -eq 1 ]; then
  # Regression gate only: fresh full-size runs vs committed baselines.
  # Wall-clock ratios are load-sensitive, so a failed comparison gets
  # one re-measure before the gate fails for real.
  echo "=== exec regression gate ===" >> bench_output.txt
  for attempt in 1 2; do
    cargo run -p tcc-suite --bin suite --release -- exec --json \
      >> bench_output.txt 2>&1 || { echo "BENCH FAILED: exec" >&2; exit 1; }
    cargo run -p tcc-suite --bin suite --release -- adaptive --json \
      >> bench_output.txt 2>&1 || { echo "BENCH FAILED: adaptive" >&2; exit 1; }
    cargo run -p tcc-suite --bin suite --release -- serve --json \
      >> bench_output.txt 2>&1 || { echo "BENCH FAILED: serve" >&2; exit 1; }
    cargo run -p tcc-suite --bin suite --release -- persist --json \
      >> bench_output.txt 2>&1 || { echo "BENCH FAILED: persist" >&2; exit 1; }
    if cargo run -p tcc-suite --bin suite --release -- exec-check \
        BENCH_exec.json baselines/BENCH_exec.json \
        >> bench_output.txt 2>&1; then
      tail -n 12 bench_output.txt
      echo BENCHES_DONE
      exit 0
    fi
    echo "exec-check attempt $attempt failed" >> bench_output.txt
  done
  echo "BENCHES_FAILED: exec-check (see bench_output.txt)" >&2
  tail -n 30 bench_output.txt >&2
  exit 1
fi

# suite <experiment> [extra flags...] — appends to the log and writes
# BENCH_<experiment>.json into the repo root.
run_suite() {
  label="$1"; shift
  echo "=== suite $label ===" >> bench_output.txt
  if ! cargo run -p tcc-suite --bin suite --release -- "$@" --json \
      >> bench_output.txt 2>&1; then
    echo "BENCH FAILED: suite $label (see bench_output.txt)" >&2
    failed="$failed suite-$label"
  fi
}

run_suite all all --small
run_suite cache cache
if [ "$quick" -eq 0 ]; then
  size=""
else
  size="--smoke"
fi
for e in exec adaptive serve persist ablations regalloc codegen; do
  # $size is deliberately unquoted: empty in full mode.
  run_suite "$e" "$e" $size
done

if [ -n "$failed" ]; then
  echo "BENCHES_FAILED:$failed" >&2
  exit 1
fi
echo BENCHES_DONE

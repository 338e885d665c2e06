#!/usr/bin/env bash
# Wall-clock perf-regression gates.
#
# Two pinned sweeps over the 18-kernel suite:
#
#  * `bench_hotloop` — simulated MIPS of the timing-simulator hot loop;
#    fails when any machine's fresh throughput drops below
#    `tolerance × recorded` from the checked-in BENCH_hotloop.json.
#  * `bench_functional` — functional MIPS of the threaded-code
#    interpreter vs the frozen pre-predecode baseline; fails on the same
#    tolerance band against BENCH_functional.json, or when the fresh
#    threaded/reference speedup falls below `tolerance ×` the pinned 10x
#    floor (the recorded speedup itself is held to the full floor by the
#    schema check).
#
# The default tolerance is deliberately wide (0.5 — only a 2x regression
# fails) so the gates stay non-flaky on loaded or slow CI hosts while
# still catching real regressions. Override with PERF_GATE_TOLERANCE,
# and the iteration count with PERF_GATE_ITERS.
#
# NOTE: a plain `cargo build --release` at the workspace root builds
# every crate, the bench crate included (the root `[workspace]` lists
# them all in `default-members`); the `-p fgstp-bench` below only narrows
# the build to the two gate binaries.
set -euo pipefail
cd "$(dirname "$0")/.."

TOLERANCE="${PERF_GATE_TOLERANCE:-0.5}"
ITERS="${PERF_GATE_ITERS:-3}"
REPORT="${1:-BENCH_hotloop.json}"
FUNC_REPORT="${2:-BENCH_functional.json}"

echo "== perf gate: building bench binaries (release)"
cargo build --release -q -p fgstp-bench \
    --bin bench_hotloop --bin bench_functional

echo "== perf gate: schema check on ${REPORT}"
./target/release/bench_hotloop --schema-check="${REPORT}"

echo "== perf gate: re-measuring hot loop (iters=${ITERS}, tolerance=${TOLERANCE})"
./target/release/bench_hotloop --check="${REPORT}" \
    --iters="${ITERS}" --tolerance="${TOLERANCE}"

echo "== perf gate: schema check on ${FUNC_REPORT}"
./target/release/bench_functional --schema-check="${FUNC_REPORT}"

echo "== perf gate: re-measuring functional interpreter (iters=${ITERS}, tolerance=${TOLERANCE})"
./target/release/bench_functional --check="${FUNC_REPORT}" \
    --iters="${ITERS}" --tolerance="${TOLERANCE}"

echo "== perf gate OK"

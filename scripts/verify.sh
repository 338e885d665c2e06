#!/usr/bin/env bash
# Full offline verification: format, lint, build, test.
# Everything runs against the local toolchain — no network required.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check"
cargo fmt --all -- --check

echo "== cargo clippy (warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo doc (broken links / missing docs are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "== tier-1: cargo build --release && cargo test -q"
cargo build --release
cargo test -q

echo "== service crate tests (client framing, TCP_NODELAY, loopback latency)"
cargo test -q -p fgstp-service

echo "== telemetry invariants (cycle accounting reconciles exactly)"
cargo test -q --test telemetry

echo "== sampled-simulation smoke (E14 at test scale)"
cargo run --release -q -p fgstp-bench --bin exp_e14_sampling -- test --no-cache

echo "== live-points smoke (E18: snapshot-warm rerun is bit-identical and warms nothing)"
# The binary asserts internally that all three phases (cold, snapshot-warm,
# snapshots-off) project identical figures and that the warm phase warms
# zero instructions; pin the printed verdict too.
cargo build --release -q -p fgstp-bench --bin exp_e18_livepoints
./target/release/exp_e18_livepoints test > target/e18_smoke.txt
grep -q "figures identical: yes" target/e18_smoke.txt || {
  echo "E18 live-point phases disagree:"
  cat target/e18_smoke.txt
  exit 1
}
# CLI level: the same sampled config run twice must replay stored
# live-points on the second run (zero instructions warmed) and print
# bit-identical estimates.
cargo build --release -q -p fgstp-sim
rm -rf target/trace-cache
./target/release/fgstpsim run chase_long fgstp-small test --sample \
  > target/e18_cli_a.txt
./target/release/fgstpsim run chase_long fgstp-small test --sample \
  > target/e18_cli_b.txt
grep "live-points:" target/e18_cli_b.txt | grep -q "(replayed), 0 insts warmed" || {
  echo "second sampled CLI run did not replay live-points:"
  cat target/e18_cli_b.txt
  exit 1
}
if ! cmp -s <(grep -v "live-points:" target/e18_cli_a.txt) \
            <(grep -v "live-points:" target/e18_cli_b.txt); then
  echo "snapshot-warm CLI rerun changed the estimates:"
  diff target/e18_cli_a.txt target/e18_cli_b.txt || true
  exit 1
fi
# Traces are regenerated on every run, never stored: the cache directory
# holds live-points only.
fgtr_files=$(find target/trace-cache -name '*.fgtr' | wc -l)
if [ "$fgtr_files" -ne 0 ]; then
  echo "sampled runs left $fgtr_files trace files under target/trace-cache"
  exit 1
fi
# Live-points are content-sized: chase_long fills the whole L2, so this is
# the largest live-point set at test scale (2.36 MB). Encoded at a fixed
# width per cache line and table entry, the same set takes 9.35 MB.
fgss_bytes=$(find target/trace-cache -name '*.fgss' -printf '%s\n' |
  awk '{ s += $1 } END { print s + 0 }')
if [ "$fgss_bytes" -ge 4000000 ]; then
  echo "live-points for chase_long take $fgss_bytes bytes (limit: under 4 MB)"
  exit 1
fi

echo "== batch-service smoke (fgstpd round trip matches recorded E1 row)"
cargo build --release -q -p fgstp-service
rm -f target/fgstpd_smoke_port
./target/release/fgstpd --listen=127.0.0.1:0 --workers=2 \
  --port-file=target/fgstpd_smoke_port &
FGSTPD_PID=$!
for _ in $(seq 1 100); do
  [ -s target/fgstpd_smoke_port ] && break
  sleep 0.1
done
FGSTPD_ADDR="127.0.0.1:$(cat target/fgstpd_smoke_port)"
./target/release/fgstp submit "--addr=$FGSTPD_ADDR" small \
  --workloads=perl_hash --machines=small-cmp --wait --csv \
  > target/fgstpd_smoke.csv
# Same daemon, co-run spec: two programs on disjoint cores of one
# machine must come back as one row per program, and resubmitting the
# identical spec must dedup to byte-identical rows (co-runs are one
# deterministic job).
./target/release/fgstp submit "--addr=$FGSTPD_ADDR" test \
  --machines=fgstp-small --corun=perl_hash:2,mcf_pointer:2 --wait --csv \
  > target/fgstpd_corun.csv
./target/release/fgstp submit "--addr=$FGSTPD_ADDR" test \
  --machines=fgstp-small --corun=perl_hash:2,mcf_pointer:2 --wait --csv \
  > target/fgstpd_corun2.csv
cmp -s target/fgstpd_corun.csv target/fgstpd_corun2.csv || {
  echo "deduped co-run resubmission returned different rows:"
  diff target/fgstpd_corun.csv target/fgstpd_corun2.csv || true
  exit 1
}
awk -F, 'NR > 1 && $3 > 0 { rows++ } END { exit rows == 2 ? 0 : 1 }' \
  target/fgstpd_corun.csv || {
  echo "co-run job did not produce one row per program with cycles > 0:"
  cat target/fgstpd_corun.csv
  exit 1
}
# Same daemon, RV32-frontend workload: an rv:-prefixed spec must round
# trip through submit/wait exactly like a synthetic one, coming back as
# one comparison-triple row with real cycle counts.
./target/release/fgstp submit "--addr=$FGSTPD_ADDR" test \
  --workloads=rv:crc32 --machines=small-cmp --wait --csv \
  > target/fgstpd_rv.csv
awk -F, 'NR > 1 && $1 == "rv:crc32" && $2 > 0 && $3 > 0 { rows++ }
         END { exit rows == 1 ? 0 : 1 }' target/fgstpd_rv.csv || {
  echo "rv: workload did not round-trip through the daemon:"
  cat target/fgstpd_rv.csv
  exit 1
}
./target/release/fgstp shutdown "--addr=$FGSTPD_ADDR"
wait "$FGSTPD_PID"
# The daemon-served speedup row must reproduce the figures recorded in
# results/experiments_small.txt (first perl_hash row = E1).
expected=$(awk '$1 == "perl_hash" { print $1","$2","$3","$4","$5; exit }' \
  results/experiments_small.txt)
grep -qx "$expected" target/fgstpd_smoke.csv || {
  echo "daemon row does not match recorded E1 figures ($expected):"
  cat target/fgstpd_smoke.csv
  exit 1
}

echo "== co-run smoke (E16 at test scale, deterministic)"
# The binary itself asserts a rerun of one scenario is bit-identical;
# two full runs diffing clean pins the whole sweep, and the pressured
# table must show a real slowdown for the memory-bound foreground.
cargo build --release -q -p fgstp-bench --bin exp_e16_corun
./target/release/exp_e16_corun test \
  --workloads=perl_hash,mcf_pointer,libq_stream > target/e16_smoke_a.txt
./target/release/exp_e16_corun test \
  --workloads=perl_hash,mcf_pointer,libq_stream > target/e16_smoke_b.txt
cmp -s target/e16_smoke_a.txt target/e16_smoke_b.txt || {
  echo "E16 co-run sweep is not deterministic across reruns:"
  diff target/e16_smoke_a.txt target/e16_smoke_b.txt || true
  exit 1
}
awk '/capacity pressure/ { p = 1; next } /^====/ { p = 0 }
     p && $1 == "mcf_pointer" && $4 > 1.0 { found = 1 }
     END { exit found ? 0 : 1 }' target/e16_smoke_a.txt || {
  echo "E16 shows no co-run slowdown for mcf_pointer:"
  cat target/e16_smoke_a.txt
  exit 1
}

echo "== RV32-frontend smoke (E17 at test scale, deterministic)"
# The binary itself asserts an RV-fed Fg-STP rerun is bit-identical;
# two full runs diffing clean pin the sweep and the stream-mix table,
# and every RV program must show a real Fg-STP run (speedup > 0).
cargo build --release -q -p fgstp-bench --bin exp_e17_rv
./target/release/exp_e17_rv test > target/e17_smoke_a.txt
./target/release/exp_e17_rv test > target/e17_smoke_b.txt
cmp -s target/e17_smoke_a.txt target/e17_smoke_b.txt || {
  echo "E17 RV sweep is not deterministic across reruns:"
  diff target/e17_smoke_a.txt target/e17_smoke_b.txt || true
  exit 1
}
awk 'NF == 5 && $1 ~ /^rv:/ && $4 > 0 { rows++ }
     END { exit rows == 5 ? 0 : 1 }' target/e17_smoke_a.txt || {
  echo "E17 did not produce an Fg-STP figure for all 5 RV programs:"
  cat target/e17_smoke_a.txt
  exit 1
}

echo "== hot-loop bench smoke + report schema checks"
cargo build --release -q -p fgstp-bench --bin bench_hotloop
./target/release/bench_hotloop test --iters=1 --out=target/bench_hotloop_smoke.json
./target/release/bench_hotloop --schema-check=target/bench_hotloop_smoke.json
./target/release/bench_hotloop --schema-check=BENCH_hotloop.json

echo "== functional-interpreter bench smoke + report schema check"
# The measure run is itself a correctness smoke: it cross-checks the
# frozen baseline and the threaded engine for identical final state on
# all 18 kernels before timing anything. The checked-in report is held
# to the full 10x speedup floor; the single-iteration smoke report is
# not floor-checked here (one wall-clock sample under arbitrary load —
# the measured floor is enforced, with tolerance, by perf_gate.sh).
cargo build --release -q -p fgstp-bench --bin bench_functional
./target/release/bench_functional test --iters=1 \
  --out=target/bench_functional_smoke.json
./target/release/bench_functional --schema-check=BENCH_functional.json

echo "== end-to-end benchmark smoke (every workload at test scale)"
# One pass per workload; exits non-zero when any op fails its golden check.
cargo run --release -q --manifest-path bench_e2e/Cargo.toml -- --smoke

echo "== verify OK"

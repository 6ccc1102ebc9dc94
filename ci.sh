#!/bin/bash
# Tier-1 gate: build, test, property tests, and the deprecated-accessor
# allowlist. Run from anywhere; exits non-zero on the first failure.
set -eu
cd "$(dirname "$0")"

echo "== build (release) =="
cargo build --release

echo "== clippy =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== tests =="
cargo test -q
# The root package's tests alone leave out every member crate's unit and
# integration tests (engine, spline, EMD and frame bit-identity included).
cargo test -q --workspace

echo "== property tests =="
cargo test -q --features property-tests

echo "== benchmark build and unit tests (perfbench) =="
# perfbench/ is a workspace of its own, so neither the build nor the tests
# above compile it; this step surfaces a public-API change that breaks the
# benchmark before the benchmark is run.
cargo test --offline -q --manifest-path perfbench/Cargo.toml

echo "== fault-injection tests (ficsum-serve) =="
# Supervision, quarantine, checkpoint-restore and deadline behaviour under
# deterministic injected faults (DESIGN.md "Fault tolerance & recovery").
# The feature is off in release artifacts; this gate compiles the serve
# crate with the fail-point hooks and runs the serve_faults harness.
cargo test -q -p ficsum-serve --features fault-injection
# The workspace clippy step above builds without the feature, so lint the
# fail-point code here too.
cargo clippy -p ficsum-serve --features fault-injection --all-targets -- -D warnings

echo "== no deprecated API surface =="
# Every scheduled deprecation has been removed (DESIGN.md "Deprecation
# schedule"): the 0.4.0 post-build `set_*` shims and the legacy eval
# `evaluate` shim are gone, so the tree must compile with `-D deprecated`
# and contain no `allow(deprecated)` escape hatches at all.
RUSTFLAGS="-D deprecated" cargo check -q --workspace --all-targets
offenders=$(grep -rlE 'allow\(deprecated\)' --include='*.rs' ./src ./crates ./tests ./examples || true)
if [ -n "$offenders" ]; then
  echo "allow(deprecated) found; the workspace carries no deprecated API:" >&2
  echo "$offenders" >&2
  exit 1
fi
echo "no deprecated items, no allowances"

echo "== perf smoke (stream_throughput vs committed baseline) =="
# Release-mode end-to-end throughput on the default synthetic stream,
# compared against the committed BENCH_stream.json (DESIGN.md "Hot path &
# allocation budget"). Fails when steps/sec drops >20% below the baseline.
if [ ! -f BENCH_stream.json ]; then
  echo "BENCH_stream.json missing; record both modes with:" >&2
  echo "  cargo run --release -p ficsum-bench --features alloc-count \\" >&2
  echo "    --bin stream_throughput -- --repeat 5 --out BENCH_stream.json" >&2
  echo "  cargo run --release -p ficsum-bench --features alloc-count \\" >&2
  echo "    --bin stream_throughput -- --repeat 5 --incremental --emd-stride 4 \\" >&2
  echo "    --append BENCH_stream.json" >&2
  exit 1
fi
cargo run --release -q -p ficsum-bench --bin stream_throughput -- \
  --repeat 3 --check BENCH_stream.json --min-ratio 0.8
# Same gate for the incremental-statistics mode: --check matches this
# run against the baseline line with "mode":"incremental".
cargo run --release -q -p ficsum-bench --bin stream_throughput -- \
  --repeat 3 --incremental --emd-stride 4 --check BENCH_stream.json --min-ratio 0.8

echo "== perf smoke (extraction_throughput vs committed baseline) =="
# Steady-state fingerprint extraction: the engine path and the
# incremental-statistics streaming path against the committed
# BENCH_extract.json (DESIGN.md "Incremental statistics"), failing when
# either drops >20% below baseline. --assert-zero-alloc additionally
# fails if the incremental steady state allocates at all (the counting
# allocator is compiled in via the alloc-count feature).
if [ ! -f BENCH_extract.json ]; then
  echo "BENCH_extract.json missing; record it with:" >&2
  echo "  cargo run --release -p ficsum-bench --features alloc-count \\" >&2
  echo "    --bin extraction_throughput -- --assert-zero-alloc --out BENCH_extract.json" >&2
  exit 1
fi
cargo run --release -q -p ficsum-bench --features alloc-count \
  --bin extraction_throughput -- \
  --secs 0.15 --reps 4 --assert-zero-alloc --check BENCH_extract.json --min-ratio 0.8

echo "== perf smoke (serve_throughput vs committed baseline) =="
# Aggregate multi-session serving throughput (sessions x shards) against
# the committed BENCH_serve.json (DESIGN.md "Serving & sharding"). The
# baseline's `cores` field records the machine it was taken on; the gate
# regresses same-machine throughput, failing on a >20% drop.
if [ ! -f BENCH_serve.json ]; then
  echo "BENCH_serve.json missing; record it with:" >&2
  echo "  cargo run --release -p ficsum-bench --bin serve_throughput -- \\" >&2
  echo "    --repeat 5 --out BENCH_serve.json" >&2
  exit 1
fi
cargo run --release -q -p ficsum-bench --bin serve_throughput -- \
  --repeat 3 --check BENCH_serve.json --min-ratio 0.8

echo "== perf smoke (net_throughput vs committed baseline) =="
# End-to-end throughput through the wire protocol: client encode →
# loopback TCP → frame decode → shard queues → reply → client decode
# (DESIGN.md "Network serving & wire protocol"). Fails when steps/sec
# drops >20% below the committed BENCH_net.json on the same machine.
if [ ! -f BENCH_net.json ]; then
  echo "BENCH_net.json missing; record it with:" >&2
  echo "  cargo run --release -p ficsum-bench --bin net_throughput -- \\" >&2
  echo "    --repeat 5 --out BENCH_net.json" >&2
  exit 1
fi
cargo run --release -q -p ficsum-bench --bin net_throughput -- \
  --repeat 3 --check BENCH_net.json --min-ratio 0.8

echo "ci.sh: all gates passed"

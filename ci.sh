#!/bin/bash
# Tier-1 gate: build, lint (feature-gated code included), docs, tests,
# property tests, the benchmark's own checks, fault injection, bans on
# deprecated API and environment reads, and the perf smokes. Run from
# anywhere; exits non-zero on the first failure.
set -eu
cd "$(dirname "$0")"

echo "== build (release) =="
cargo build --release

echo "== clippy =="
cargo clippy --workspace --all-targets -- -D warnings
# The workspace pass compiles no feature-gated target: tests/proptests.rs,
# benches/micro.rs and the alloc-count paths need their features on.
cargo clippy --all-targets --features property-tests -- -D warnings
cargo clippy -p ficsum-bench --all-targets --features property-tests,alloc-count -- -D warnings

echo "== docs =="
# Broken intra-doc links and unescaped brackets surface as rustdoc
# warnings; the workspace documents cleanly, and this keeps it so.
RUSTDOCFLAGS="-D warnings" cargo doc -q --workspace --no-deps

echo "== tests =="
cargo test -q
# The root package's tests alone leave out every member crate's unit and
# integration tests (engine, spline, EMD and frame bit-identity included).
cargo test -q --workspace

echo "== property tests =="
cargo test -q --features property-tests

echo "== examples (each run once, release) =="
# Clippy compiles examples/ but nothing above runs them, and they drive the
# public API end to end (quickstart builds through FicsumBuilder). Each
# must exit 0; together they take a few seconds on 2 cores.
for example in examples/*.rs; do
  name=$(basename "$example" .rs)
  cargo run --release -q --example "$name" > /dev/null
  echo "$name: exit 0"
done

echo "== benchmark build and unit tests (perfbench) =="
# perfbench/ is a workspace of its own, so neither the build nor the tests
# above compile it; this step surfaces a public-API change that breaks the
# benchmark before the benchmark is run.
cargo test --offline -q --manifest-path perfbench/Cargo.toml

echo "== benchmark checks (perfbench, one traced pass per workload) =="
# A one-second traced run of each workload in BENCHMARK.json still runs
# every check the benchmark makes: per-stream digests repeat, kappa matches
# KappaEvaluator, the traced calls account for the wall time, and served
# sessions match standalone replays. The last line must report them met.
# The workload names are read from BENCHMARK.json (one per line with a
# "why"), so a renamed or added workload is checked without editing this.
workloads=$(grep '"why"' BENCHMARK.json | sed -E 's/.*"name": *"([^"]+)".*/\1/')
if [ -z "$workloads" ]; then
  echo "no workloads found in BENCHMARK.json" >&2
  exit 1
fi
for workload in $workloads; do
  last=$(cargo run --offline --release --quiet --manifest-path perfbench/Cargo.toml -- \
    --workload "$workload" --seed 1 --seconds 1 --trace 1 | tail -n 1)
  case "$last" in
    '{"correct": true,'*) echo "$workload: all checks met" ;;
    *)
      echo "perfbench $workload failed a check: $last" >&2
      exit 1
      ;;
  esac
done

echo "== quality gate (EMD stride default vs stride 1, quick) =="
# The paper's metrics at the default EMD stride against the exact stride
# 1 (DESIGN.md deviation 11): the quality bench in quick mode
# (12k-observation streams) on STAGGER and RTREE-U, seeds 1-3. Fails if
# the default's seed-mean kappa or C-F1 on either dataset falls below
# stride 1's by more than stride 1's max-min seed spread, as recorded for
# this subset in BENCH_quality.json.
if [ ! -f BENCH_quality.json ]; then
  echo "BENCH_quality.json missing; record it with:" >&2
  echo "  cargo run --release -p ficsum-bench --bin quality -- --seeds 5 --out BENCH_quality.json" >&2
  echo "  cargo run --release -p ficsum-bench --bin quality -- --quick --seeds 3 \\" >&2
  echo "    --only STAGGER,RTREE-U --strides 1,2 --append BENCH_quality.json" >&2
  exit 1
fi
cargo run --release -q -p ficsum-bench --bin quality -- \
  --quick --seeds 3 --only STAGGER,RTREE-U --check BENCH_quality.json

echo "== experiment smoke (the other paper-metric binaries) =="
# Every paper-metric binary is a spec over the evaluation grid
# (ficsum_bench::harness::Grid); the quality gate above runs one of them.
# This runs the other six once at their smallest settings (12k-observation
# streams, one seed, one or two datasets where the spec has many), so a
# spec or a table that panics fails here. Table IV runs two datasets, which
# exercises its Friedman/Nemenyi line. Stdout is discarded; together they
# take about half a minute on 2 cores.
smoke() {
  cargo run --release -q -p ficsum-bench --bin "$1" -- --quick --seeds 1 "${@:2}" > /dev/null
  echo "$1: exit 0"
}
smoke table3_discrimination --only STAGGER
smoke table4_performance --only STAGGER,CMC
smoke table5_meta_functions
smoke table6_frameworks --only STAGGER
smoke ablations
smoke fig3_sensitivity

echo "== Table II freshness (table2_datasets vs results/table2.txt) =="
# Table II lists the dataset specs and is deterministic (a few ms), so the
# committed table must equal a fresh run: a change to a dataset spec has to
# re-record it with run_experiments.sh.
if ! cargo run --release -q -p ficsum-bench --bin table2_datasets 2> /dev/null \
  | cmp -s - results/table2.txt; then
  echo "results/table2.txt is stale; re-record it with:" >&2
  echo "  cargo run --release -p ficsum-bench --bin table2_datasets > results/table2.txt" >&2
  exit 1
fi
echo "results/table2.txt matches table2_datasets"

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

echo "== no environment reads in library crates =="
# Library behaviour is set through builders and configs, and diagnostics
# go through the recorder, so no library crate reads an environment
# variable. The bench binaries (crates/bench) and tests/ are exempt.
offenders=$(grep -rnE 'env::var' --include='*.rs' ./src ./crates/*/src | grep -v '^\./crates/bench/' || true)
if [ -n "$offenders" ]; then
  echo "environment read in a library crate:" >&2
  echo "$offenders" >&2
  exit 1
fi
echo "no environment reads"

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

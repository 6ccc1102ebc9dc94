#!/bin/bash
# Regenerates every table and figure of the paper, and the EMD-stride
# quality record. Results land in results/. The binaries are built once up
# front, so each results/*.log holds only its run's own progress lines.
set -u
cd "$(dirname "$0")"
SEEDS="${SEEDS:-1}"
cargo build --release -q -p ficsum-bench --bins || exit 1
bin="${CARGO_TARGET_DIR:-target}/release"
$bin/table2_datasets > results/table2.txt 2>/dev/null
echo "table2 done"
$bin/table3_discrimination --seeds "$SEEDS" > results/table3.txt 2>results/table3.log
echo "table3 done"
$bin/table4_performance --seeds "$SEEDS" > results/table4.txt 2>results/table4.log
echo "table4 done"
$bin/table5_meta_functions --seeds "$SEEDS" > results/table5.txt 2>results/table5.log
echo "table5 done"
$bin/table6_frameworks --seeds "$SEEDS" > results/table6.txt 2>results/table6.log
echo "table6 done"
$bin/fig3_sensitivity --seeds "$SEEDS" --quick > results/fig3.txt 2>results/fig3.log
echo "fig3 done"
$bin/ablations --seeds "$SEEDS" --quick > results/ablations.txt 2>results/ablations.log
echo "ablations done"
# The quality harness keeps its own seed floor of 5 (the stride decision
# rests on seed spreads); SEEDS raises it.
QSEEDS=$(( SEEDS > 5 ? SEEDS : 5 ))
$bin/quality --seeds "$QSEEDS" > results/quality.txt 2>results/quality.log
echo "quality done"

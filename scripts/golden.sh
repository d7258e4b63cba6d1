#!/bin/sh
# Golden check: regenerate all 16 results/*.csv with the release figure
# binaries and `cmp` each against the committed copy, compare the stdout
# of `chaos_soak --smoke --arch k40,a100` (the fault paths: transient
# sweeps and permanent-loss demotions) with results/chaos_smoke.txt, then
# run the repo benchmark's smoke pass and compare its five `exact:` lines
# (virtual time, events, delivered bytes and failures per op) with
# results/benchmark_exact_smoke.txt. Virtual time is a pure function of
# the code, so any byte of difference is a behaviour change that a PR
# must declare (regenerate and commit the file) or fix — a wall-clock
# PR most of all: this is its "the model did not move".
#
#   scripts/golden.sh [BIN_DIR] [OUT_DIR]
#
# BIN_DIR defaults to target/release (build first:
# `cargo build --release -p bench`); OUT_DIR to a fresh temp directory.
# The benchmark is a package of its own and is built here.
set -eu

root=$(cd "$(dirname "$0")/.." && pwd)
bin=${1:-"$root/target/release"}
out=${2:-$(mktemp -d)}
mkdir -p "$out"

# Compare one regenerated file with the committed copy.
status=0
check() {
    if cmp -s "$root/results/$1" "$out/$1"; then
        echo "ok    $1"
    else
        echo "DIFF  $1  (diff results/$1 $out/$1)"
        status=1
    fi
}

# <binary>:<csv stem>[:<extra args>] — names as in the README table.
# Read line by line: the extra-args field holds spaces.
while IFS=: read -r binary stem args; do
    # shellcheck disable=SC2086  # args is a deliberate word list
    "$bin/$binary" $args > "$out/$stem.csv"
    check "$stem.csv"
done <<EOF
fig6_kernel_bandwidth:fig6
fig7_pack_unpack:fig7
fig8_vs_memcpy2d:fig8
fig9_pcie_bw:fig9
fig10_pingpong:fig10
fig11_vec_contig:fig11
fig12_transpose:fig12
exp13_resources:exp13
exp14_contention:exp14
ablation_engines:ablation_engines
ablation_optimizer:ablation_optimizer
ablation_pipeline:ablation_pipeline
ablation_unit_size:ablation_unit_size
latency_sweep:latency_sweep
offload_frontier:offload_frontier:--arch k40,p100,v100,a100
model_residuals:model_residuals
EOF

"$bin/chaos_soak" --smoke --arch k40,a100 > "$out/chaos_smoke.txt"
check chaos_smoke.txt

stem=benchmark_exact_smoke
cargo run --release --quiet --offline --manifest-path "$root/benchmark/Cargo.toml" -- --smoke \
    | grep '^exact:' > "$out/$stem.txt" || true
check "$stem.txt"

if [ "$status" -ne 0 ]; then
    echo "golden: results/ differ from the regenerated files in $out" >&2
    exit 1
fi
echo "golden: all 16 CSVs, the chaos smoke and the benchmark's exact: lines byte-identical"

#!/usr/bin/env bash
# Regenerate every figure, table and ablation reported in EXPERIMENTS.md.
# Results land in results/*.json; the printed tables are the paper's rows.
#
# With --check, nothing under results/ is written: every bin writes into a
# temp dir (through ITB_RESULTS_DIR) and each file it wrote is compared
# byte for byte with its committed copy in results/. Exits non-zero when
# any differs, naming it. Every artifact here is sim-time data, so a fresh
# run must reproduce the committed files exactly.
set -euo pipefail
cd "$(dirname "$0")/.."

check=0
case "${1:-}" in
    --check) check=1 ;;
    "") ;;
    *)
        echo "usage: $0 [--check]" >&2
        exit 2
        ;;
esac

if [ "$check" = 1 ]; then
    out=$(mktemp -d)
    trap 'rm -rf "$out"' EXIT
    export ITB_RESULTS_DIR="$out"
fi

run() {
    if [ "$check" = 1 ]; then
        echo "   $*"
        cargo run --release -q -p itb-bench --bin "$@" > /dev/null
        return
    fi
    echo
    echo "======================================================================"
    echo "== $*"
    echo "======================================================================"
    cargo run --release -p itb-bench --bin "$@"
}

cargo build --release -p itb-bench

run fig7                      # Figure 7: MCP support overhead
run fig8                      # Figure 8: per-ITB latency
run motivation_throughput 16 1
run motivation_throughput 32 1
run motivation_balance        # route-quality vs network size
run ablation_itb_count        # latency vs number of ITBs
run ablation_pool             # §4 circular receive pool
run ablation_root             # spanning-tree root placement
run ablation_policies         # arbitration + ITB host selection
run bandwidth                 # one-way bandwidth, both MCPs
run app_exchange 16 1         # application phases (§6 future work)
run latency_breakdown         # where the microseconds go

if [ "$check" = 0 ]; then
    echo
    echo "All experiment artifacts regenerated under results/."
    exit 0
fi

stale=0
count=0
for f in "$out"/*; do
    name=$(basename "$f")
    count=$((count + 1))
    if ! cmp -s "$f" "results/$name"; then
        echo "stale: results/$name differs from a fresh run" >&2
        stale=1
    fi
done
if [ "$stale" = 1 ]; then
    echo "regenerate with scripts/regenerate.sh and explain the moved numbers" >&2
    exit 1
fi
echo "all $count regenerated artifacts equal results/"

#!/usr/bin/env bash
# Offline CI gate: build, test, lint, format. Run from the workspace root.
# Everything here works without network access — all external dependencies
# are vendored under vendor/.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo build --release =="
cargo build --release

echo "== cargo test (tier-1: root package) =="
cargo test -q

echo "== cargo test --workspace =="
cargo test --workspace -q

echo "== detlint v2 (determinism & soundness analyzer, hard gate) =="
# Zero-dependency lex -> parse -> call-graph -> rules pipeline: default-hasher
# maps, wall-clock/entropy/environment reads in sim code, float event-time
# arithmetic, library unwrap/expect/panic without a stated invariant,
# narrowing `as` casts, missing #![deny(unsafe_code)], plus the cross-crate
# taint rules (T001 transitive nondeterminism reach, T002 unordered-iteration
# sinks, T003 state-digest completeness). Exits nonzero on any unallowed
# finding; the JSON report is the audit trail. The soft wall-time budget
# keeps the gate honest about its own cost (self-benchmark in the report).
cargo run --release -q -p itb-lint --bin detlint -- --budget-ms 15000
echo "   report: results/detlint.json"

echo "== cargo clippy (deny warnings, incl. perf lints) =="
cargo clippy --workspace --all-targets -- -D warnings -D clippy::perf

echo "== cargo clippy --lib (strict: truncating casts, unwraps) =="
# Library code only: tests and benches keep unwrap ergonomics via
# clippy.toml (allow-unwrap-in-tests) and #[cfg(test)] scoping.
cargo clippy --lib \
  -p itb-sim -p itb-topo -p itb-routing -p itb-obs -p itb-net \
  -p itb-nic -p itb-gm -p itb-core -p itb-bench -p itb-lint -p itb-check \
  -- -D warnings -D clippy::cast_possible_truncation -D clippy::unwrap_used

echo "== cargo fmt --check =="
cargo fmt --check

echo "== cargo doc (deny warnings: broken, ambiguous and private doc links) =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "== chaos smoke (seeded faults, exactly-once) =="
chaos_a=$(mktemp -d)
chaos_b=$(mktemp -d)
par_a=$(mktemp -d)
par_b=$(mktemp -d)
stall_a=$(mktemp -d)
stall_b=$(mktemp -d)
mc_a=$(mktemp -d)
mc_b=$(mktemp -d)
dl_a=$(mktemp -d)
dl_b=$(mktemp -d)
trap 'rm -rf "$chaos_a" "$chaos_b" "$par_a" "$par_b" "$stall_a" "$stall_b" "$mc_a" "$mc_b" "$dl_a" "$dl_b"' EXIT
# --strict-health makes the run a health gate: the fault schedule must stay
# clean under the stall watchdog, buffer-leak audit and counter checks.
ITB_RESULTS_DIR="$chaos_a" cargo run --release -q -p itb-bench --bin chaos_soak -- --smoke --strict-health
echo "== chaos determinism (same seed twice, byte-identical artifacts) =="
ITB_RESULTS_DIR="$chaos_b" cargo run --release -q -p itb-bench --bin chaos_soak -- --smoke --strict-health
cmp "$chaos_a/chaos_soak.json" "$chaos_b/chaos_soak.json"
# The observability artifacts are pure sim-time facts — same determinism
# contract as the main artifact. (Profiler sidecars with barrier wall-ns
# are deliberately NOT compared anywhere.)
cmp "$chaos_a/chaos_timeline.jsonl" "$chaos_b/chaos_timeline.jsonl"
cmp "$chaos_a/health_report.json" "$chaos_b/health_report.json"

echo "== health stall self-test (watchdog must flag an unroutable fabric) =="
ITB_RESULTS_DIR="$stall_a" cargo run --release -q -p itb-bench --bin health_stall
echo "== health stall determinism (same run twice, byte-identical artifacts) =="
# The only CI run where the watchdog fires: its timeline and report (with
# the blocked set) are sim-time facts and must reproduce byte for byte.
ITB_RESULTS_DIR="$stall_b" cargo run --release -q -p itb-bench --bin health_stall
cmp "$stall_a/health_stall_timeline.jsonl" "$stall_b/health_stall_timeline.jsonl"
cmp "$stall_a/health_report.json" "$stall_b/health_report.json"

echo "== ledger correctness (every workload matches its committed digest) =="
# One short untraced ledger run per workload at seed 1. Each must report
# "correct": true (its event, route and delivery digest equals the one in
# ledger/results/digests.txt) and "failed": 0. The cluster's check that
# every NIC holding outputs was drained is a debug assertion, so this is
# the release-build guard on the same event order.
for w in pingpong_fig6_itb poisson_128sw_itb stream_64sw_updown_4k hybrid_32sw_updown flows_1024sw; do
  out=$(cargo run --release -q --offline --manifest-path ledger/Cargo.toml -- \
    --workload "$w" --seed 1 --seconds 1 --trace 0 2>/dev/null | tail -n 1)
  case "$out" in
    *'"correct": true'*'"failed": 0,'*) echo "   $w: correct" ;;
    *) echo "ledger $w: not correct: $out" >&2; exit 1 ;;
  esac
done

echo "== ledger unit tests (catalog vs BENCHMARK.json, traced vs untraced) =="
# The benchmark's own tests: its workload catalog matches BENCHMARK.json,
# a traced run reaches the same digest as an untraced one, and the record
# and statistics code behaves.
cargo test --release -q --offline --manifest-path ledger/Cargo.toml

echo "== model check smoke (exhaustive interleavings, zero violations) =="
# Depth-bounded exhaustive BFS over delivery/fault interleavings on the
# two-host configs; any invariant violation (duplicate / reordered
# delivery, buffer leak, silent deadlock) exits nonzero with a minimized
# reproduction schedule. The binary itself asserts zero depth truncation,
# so coverage at the stated fault budget is exhaustive, and the report
# must be byte-identical across a double run.
ITB_RESULTS_DIR="$mc_a" cargo run --release -q -p itb-bench --bin model_check -- --smoke
ITB_RESULTS_DIR="$mc_b" cargo run --release -q -p itb-bench --bin model_check -- --smoke
cmp "$mc_a/model_check.json" "$mc_b/model_check.json"

echo "== static deadlock-freedom audit (CDG acyclicity, byte-identical) =="
# Dally & Seitz: a route set is deadlock-free iff its channel dependency
# graph is acyclic. Every shipped route set (fig6, gauntlet presets,
# irregular64, a fresh 1024-switch fabric) must be acyclic; the cyclic
# all-clockwise ring control must be flagged with its witness cycle. The
# audit is the static complement of the model checker above.
ITB_RESULTS_DIR="$dl_a" cargo run --release -q -p itb-bench --bin deadlock_audit > /dev/null
ITB_RESULTS_DIR="$dl_b" cargo run --release -q -p itb-bench --bin deadlock_audit > /dev/null
cmp "$dl_a/deadlock_audit.json" "$dl_b/deadlock_audit.json"

echo "== parallel determinism (ITB_THREADS=1 vs 4, byte-identical digest) =="
# The sharded conservative-PDES engine must reproduce the sequential event
# order exactly on the pdes_smoke load scenarios: the sequential reference
# vs 4 shards, digest byte-compare. This gate runs on ANY core count — the
# workers synchronize on barriers, so a 4-shard run on fewer than 4 cores
# is merely slow (the smoke workloads are tiny), never incorrect; skipping
# here on small boxes previously left the cross-process contract unchecked
# on the very machines producing committed results.
ITB_RESULTS_DIR="$par_a" ITB_THREADS=1 cargo run --release -q -p itb-bench --bin pdes_smoke
ITB_RESULTS_DIR="$par_b" ITB_THREADS=4 cargo run --release -q -p itb-bench --bin pdes_smoke
cmp "$par_a/pdes_smoke_digest.json" "$par_b/pdes_smoke_digest.json"

echo "CI OK"

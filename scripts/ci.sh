#!/usr/bin/env bash
# Offline CI gate: build, test, lint, format. Run from the workspace root.
# Everything here works without network access — all external dependencies
# are vendored under vendor/.
set -euo pipefail
cd "$(dirname "$0")/.."

# One temp root for every step's outputs, one subdirectory per run (each
# bin creates its ITB_RESULTS_DIR on first write), so a clean run leaves
# the working tree unchanged.
work=$(mktemp -d)
# The ledger's committed lock still lists a dependency the workspace has
# dropped, so cargo re-resolves it on every ledger build. Put the committed
# copy back on exit; the re-resolved lock lands with the next benchmark
# change (ROADMAP item 7).
cp ledger/Cargo.lock "$work/ledger-Cargo.lock"
trap 'cp "$work/ledger-Cargo.lock" ledger/Cargo.lock; rm -rf "$work"' EXIT

# Each step opens with an "== name ==" header and closes with its wall time
# in whole seconds (bash's SECONDS), so a step that got slower shows.
step_name=
step_start=$SECONDS
step() {
  if [ -n "$step_name" ]; then
    echo "   ($step_name: $((SECONDS - step_start)) s)"
  fi
  step_name=$1
  step_start=$SECONDS
  [ -z "$1" ] || echo "== $1 =="
}

step "dead dependencies (every manifest dependency is named in its sources)"
# Each key under [dependencies] and [dev-dependencies] of the root manifest
# and of every crates/*/Cargo.toml must appear as a word (`-` read as `_`)
# in that package's .rs files; an edge no source names is dead weight.
dead=0
for manifest in Cargo.toml crates/*/Cargo.toml; do
  if [ "$manifest" = Cargo.toml ]; then srcs="src tests examples"; else srcs=$(dirname "$manifest"); fi
  for dep in $(awk '/^\[/ { on = ($0 == "[dependencies]" || $0 == "[dev-dependencies]"); next }
                   on && /^[A-Za-z0-9_-]+[ .=]/ { sub(/[ .=].*/, ""); print }' "$manifest"); do
    if ! grep -rqw --include='*.rs' -e "${dep//-/_}" $srcs; then
      echo "dead dependency: $manifest: $dep" >&2
      dead=1
    fi
  done
done
[ "$dead" = 0 ] || exit 1

step "cargo build --release"
cargo build --release

step "cargo test (tier-1: root package)"
cargo test -q

step "cargo test --workspace (every other package)"
# The root package's tests ran in the tier-1 step above, in the same
# profile; running them again here would only repeat them.
cargo test --workspace --exclude itb-myrinet -q

step "flow solver resume at 1024 switches (release, ignored test included)"
# The flows_1024sw shape at full size: ~200 solves on irregular1024, most
# of them resumed from the one before, each checked bit for bit against a
# fresh FlowNet. Too slow for a debug build, so it is #[ignore]d.
cargo test --release -q -p itb-net --test flow_fresh_equivalence -- --include-ignored

step "detlint v2 (determinism & soundness analyzer, hard gate)"
# Zero-dependency lex -> parse -> call-graph -> rules pipeline: default-hasher
# maps, wall-clock/entropy/environment reads in sim code, float event-time
# arithmetic, library unwrap/expect/panic without a stated invariant,
# narrowing `as` casts, missing #![deny(unsafe_code)], plus the cross-crate
# taint rules (T001 transitive nondeterminism reach, T002 unordered-iteration
# sinks, T003 state-digest completeness). Exits nonzero on any unallowed
# finding; the JSON report is the audit trail. The soft wall-time budget
# keeps the gate honest about its own cost (the time is printed, not
# written to the report). The report holds no host reading, so a fresh
# one must equal the committed results/detlint.json byte for byte.
cargo run --release -q -p itb-lint --bin detlint -- --budget-ms 15000 --json "$work/detlint.json"
cmp "$work/detlint.json" results/detlint.json

step "cargo clippy (deny warnings, incl. perf lints)"
cargo clippy --workspace --all-targets -- -D warnings -D clippy::perf

step "cargo clippy --lib (strict: truncating casts, unwraps)"
# Library code only: tests and benches keep unwrap ergonomics via
# clippy.toml (allow-unwrap-in-tests) and #[cfg(test)] scoping.
cargo clippy --lib \
  -p itb-sim -p itb-topo -p itb-routing -p itb-obs -p itb-net \
  -p itb-nic -p itb-gm -p itb-core -p itb-bench -p itb-lint -p itb-check \
  -- -D warnings -D clippy::cast_possible_truncation -D clippy::unwrap_used

step "cargo fmt --check"
cargo fmt --check

step "cargo doc (deny warnings: broken, ambiguous and private doc links)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

step "chaos smoke (seeded faults, exactly-once)"
# --strict-health makes the run a health gate: the fault schedule must stay
# clean under the stall watchdog, buffer-leak audit and counter checks.
ITB_RESULTS_DIR="$work/chaos_a" cargo run --release -q -p itb-bench --bin chaos_soak -- --smoke --strict-health
step "chaos determinism (same seed twice, byte-identical artifacts)"
ITB_RESULTS_DIR="$work/chaos_b" cargo run --release -q -p itb-bench --bin chaos_soak -- --smoke --strict-health
cmp "$work/chaos_a/chaos_soak.json" "$work/chaos_b/chaos_soak.json"
# The observability artifacts are pure sim-time facts — same determinism
# contract as the main artifact. (Profiler sidecars with barrier wall-ns
# are deliberately NOT compared anywhere.)
cmp "$work/chaos_a/chaos_timeline.jsonl" "$work/chaos_b/chaos_timeline.jsonl"
cmp "$work/chaos_a/health_report.json" "$work/chaos_b/health_report.json"

step "health stall self-test (watchdog must flag an unroutable fabric)"
ITB_RESULTS_DIR="$work/stall_a" cargo run --release -q -p itb-bench --bin health_stall
step "health stall determinism (same run twice, byte-identical artifacts)"
# The only CI run where the watchdog fires: its timeline and report (with
# the blocked set) are sim-time facts and must reproduce byte for byte.
ITB_RESULTS_DIR="$work/stall_b" cargo run --release -q -p itb-bench --bin health_stall
cmp "$work/stall_a/health_stall_timeline.jsonl" "$work/stall_b/health_stall_timeline.jsonl"
cmp "$work/stall_a/health_report.json" "$work/stall_b/health_report.json"

step "ledger correctness (every workload matches its committed digest)"
# One short untraced ledger run per workload at seed 1. Each must report
# "correct": true (its event, route and delivery digest equals the one in
# ledger/results/digests.txt) and "failed": 0. The cluster's check that
# every NIC holding outputs was drained is a debug assertion, so this is
# the release-build guard on the same event order.
# The ledger's stderr is kept in $work and printed on failure: it names the
# digest that differed from the committed one, or the panic.
for w in pingpong_fig6_itb poisson_128sw_itb stream_64sw_updown_4k hybrid_32sw_updown flows_1024sw; do
  err="$work/ledger_$w.err"
  out=$(cargo run --release -q --offline --manifest-path ledger/Cargo.toml -- \
    --workload "$w" --seed 1 --seconds 1 --trace 0 2>"$err" | tail -n 1) ||
    { echo "ledger $w: exited non-zero" >&2; cat "$err" >&2; exit 1; }
  case "$out" in
    *'"correct": true'*'"failed": 0,'*) echo "   $w: correct" ;;
    *) echo "ledger $w: not correct: $out" >&2; cat "$err" >&2; exit 1 ;;
  esac
done

step "ledger unit tests (catalog vs BENCHMARK.json, traced vs untraced)"
# The benchmark's own tests: its workload catalog matches BENCHMARK.json,
# a traced run reaches the same digest as an untraced one, and the record
# and statistics code behaves.
cargo test --release -q --offline --manifest-path ledger/Cargo.toml

step "model check smoke (exhaustive interleavings, zero violations)"
# Depth-bounded exhaustive BFS over delivery/fault interleavings on the
# two-host configs; any invariant violation (duplicate / reordered
# delivery, buffer leak, silent deadlock) exits nonzero with a minimized
# reproduction schedule. The binary itself asserts zero depth truncation,
# so coverage at the stated fault budget is exhaustive, and the report
# must be byte-identical across a double run.
ITB_RESULTS_DIR="$work/mc_a" cargo run --release -q -p itb-bench --bin model_check -- --smoke
ITB_RESULTS_DIR="$work/mc_b" cargo run --release -q -p itb-bench --bin model_check -- --smoke
cmp "$work/mc_a/model_check.json" "$work/mc_b/model_check.json"

step "full model check (fresh run equals the committed file)"
# The full sweep (50,243 states) at its default fault budget; its report
# is fully deterministic, so a change to the GM, NIC or network state
# machines that moves one explored state shows up as a diff here.
ITB_RESULTS_DIR="$work/mc_full" cargo run --release -q -p itb-bench --bin model_check > /dev/null
cmp "$work/mc_full/model_check.json" results/model_check.json

step "static deadlock-freedom audit (CDG acyclicity, byte-identical)"
# Dally & Seitz: a route set is deadlock-free iff its channel dependency
# graph is acyclic. Every shipped route set (fig6, gauntlet presets,
# irregular64, a fresh 1024-switch fabric) must be acyclic; the cyclic
# all-clockwise ring control must be flagged with its witness cycle. The
# audit is the static complement of the model checker above.
ITB_RESULTS_DIR="$work/dl_a" cargo run --release -q -p itb-bench --bin deadlock_audit > /dev/null
ITB_RESULTS_DIR="$work/dl_b" cargo run --release -q -p itb-bench --bin deadlock_audit > /dev/null
cmp "$work/dl_a/deadlock_audit.json" "$work/dl_b/deadlock_audit.json"

step "route-dependent audit (fresh run equals the committed file)"
# The audit reads every route of its tables; a change to route
# computation, encoding or decoding that moves one route shows up here as
# a diff against results/.
cmp "$work/dl_a/deadlock_audit.json" results/deadlock_audit.json

step "experiment artifacts (every regenerated file equals results/)"
# scripts/regenerate.sh --check runs every experiment bin -- fig7/fig8 at
# their default 100 iterations with traces, metrics and attribution, the
# motivation, ablation, bandwidth, app-exchange and latency-breakdown
# runs -- into a temp dir and cmps each file written with its committed
# copy. All of it is sim-time data, so one moved event, route or float
# sum fails here, and the committed results cannot go stale.
scripts/regenerate.sh --check

step "parallel determinism (ITB_THREADS=1 vs 4, byte-identical digest)"
# The sharded conservative-PDES engine must reproduce the sequential event
# order exactly on the pdes_smoke load scenarios: the sequential reference
# vs 4 shards, digest byte-compare. This gate runs on ANY core count — the
# workers synchronize on barriers, so a 4-shard run on fewer than 4 cores
# is merely slow (the smoke workloads are tiny), never incorrect; skipping
# here on small boxes previously left the cross-process contract unchecked
# on the very machines producing committed results.
ITB_RESULTS_DIR="$work/par_a" ITB_THREADS=1 cargo run --release -q -p itb-bench --bin pdes_smoke
ITB_RESULTS_DIR="$work/par_b" ITB_THREADS=4 cargo run --release -q -p itb-bench --bin pdes_smoke
cmp "$work/par_a/pdes_smoke_digest.json" "$work/par_b/pdes_smoke_digest.json"
cmp "$work/par_a/pdes_smoke_digest.json" results/pdes_smoke_digest.json

step ""
echo "   (total: $SECONDS s)"
echo "CI OK"

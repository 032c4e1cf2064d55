//! PDES smoke: the sharded engine's cross-process determinism gate.
//!
//! Two Poisson-load scenarios, `irregular(32, 1)` and `irregular(64, 1)`
//! under ITB routing, every host sending 512 B with a 40 µs mean gap, each
//! for 300 µs of simulated time. `ITB_THREADS` (default 1) picks the
//! engine: with one thread each scenario runs on a plain sequential
//! `Cluster`, the reference; with more it runs on the profiled sharded
//! engine. The bin takes no arguments and writes:
//!
//! * `results/pdes_smoke_digest.json` — events, sim time, deliveries and
//!   injections per scenario. Sim-side facts only, so a 1-thread and a
//!   4-thread run must serialize byte-identically; CI `cmp`s the two.
//! * `results/pdes_smoke_par.json` — per scenario the shards, edge cut,
//!   windows, cross-shard ties, per-shard events and wall time, plus the
//!   host's `available_parallelism`. Wall-clock data, never byte-compared.
//!   A thread sweep is a shell loop over `ITB_THREADS`; speedup is the
//!   ratio of two sidecars' `wall_s`.
//! * sharded runs only: `results/pdes_smoke_profile.json` and
//!   `results/pdes_smoke_windows_trace.json` — the 64-switch run's
//!   per-(shard, window) profile and its Chrome trace gantt, one lane per
//!   shard. Barrier wall-ns is host-clock data, never byte-compared.
//!
//! `ITB_THREADS=4 cargo run --release -p itb-bench --bin pdes_smoke`

#![deny(unsafe_code)]

use itb_core::ClusterSpec;
use itb_gm::AppBehavior;
use itb_obs::export::{write_par_windows_chrome_trace, ParTraceMeta};
use itb_routing::RoutingPolicy;
use itb_sim::par::{ParProfile, WindowRecord};
use itb_sim::{run_until, EventQueue, SimDuration, SimTime};
use serde::Serialize;

/// Simulated window of every scenario.
const WINDOW_US: u64 = 300;

/// Detailed-record cap for the profiler sidecar: the point of the sidecar
/// is barrier / utilization *shape*, not an unbounded dump. Truncation is
/// never silent — the artifact records both counts and the run log says
/// what was dropped.
const PROFILE_RECORD_CAP: usize = 2000;

/// The deterministic per-scenario facts: a pure function of the spec, the
/// same on every engine and thread count.
#[derive(Debug, Serialize)]
struct ScenarioDigest {
    name: &'static str,
    events: u64,
    sim_us: f64,
    delivered: u64,
    injected: u64,
}

/// How one scenario ran: partition shape and wall time. A sequential run
/// reports one shard, no cut and no windows.
#[derive(Debug, Serialize)]
struct ParRun {
    name: &'static str,
    shards: usize,
    edge_cut: usize,
    windows: u64,
    /// Cross-shard rank ties over all shard queues; 0 proves the run
    /// followed the sequential event order exactly (see `itb_sim::par`).
    cross_shard_ties: u64,
    per_shard_events: Vec<u64>,
    wall_s: f64,
}

#[derive(Debug, Serialize)]
struct ParSidecar {
    itb_threads: u32,
    available_parallelism: usize,
    runs: Vec<ParRun>,
}

/// The profiler sidecar: the 64-switch run's per-(shard, window) records,
/// capped at [`PROFILE_RECORD_CAP`].
#[derive(Debug, Serialize)]
struct ProfileArtifact {
    scenario: &'static str,
    threads: u32,
    shards: usize,
    records_total: usize,
    records_written: usize,
    truncated: bool,
    records: Vec<WindowRecord>,
}

/// Worker threads requested via `ITB_THREADS`: a trimmed integer, minimum
/// 1, default 1. The vendored rayon shim parses the variable the same way
/// but only as a cap; unset, it uses `available_parallelism`.
fn itb_threads() -> u32 {
    std::env::var("ITB_THREADS")
        .ok()
        .and_then(|s| s.trim().parse::<u32>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(1)
}

/// Run `f`, returning its result and its wall time in seconds.
fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    // detlint::allow(D002, the sidecar reports wall-clock time by design; sim facts go in the digest)
    let t0 = std::time::Instant::now();
    let r = f();
    (r, t0.elapsed().as_secs_f64())
}

fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Run one load scenario on `threads` threads. Set-up (spec build,
/// partitioning, replicas) stays outside the timed section.
fn run_scenario(
    name: &'static str,
    switches: usize,
    threads: u32,
) -> (ScenarioDigest, ParRun, Option<ParProfile>) {
    let spec = ClusterSpec::irregular(switches, 1).with_routing(RoutingPolicy::Itb);
    let behaviors = vec![
        AppBehavior::Poisson {
            size: 512,
            mean_gap: SimDuration::from_us(40),
            limit: 0,
        };
        spec.num_hosts()
    ];
    let horizon = SimTime::ZERO + SimDuration::from_us(WINDOW_US);
    if threads == 1 {
        let mut cluster = spec.build(behaviors);
        let mut q = EventQueue::new();
        cluster.start(&mut q);
        let (_, wall_s) = timed(|| run_until(&mut cluster, &mut q, horizon));
        let events = q.events_dispatched();
        let digest = ScenarioDigest {
            name,
            events,
            sim_us: q.now().as_us_f64(),
            delivered: cluster.delivered_count() as u64,
            injected: cluster.net.stats().injected,
        };
        let run = ParRun {
            name,
            shards: 1,
            edge_cut: 0,
            windows: 0,
            cross_shard_ties: 0,
            per_shard_events: vec![events],
            wall_s,
        };
        return (digest, run, None);
    }
    let part = itb_topo::partition(spec.topology(), threads as usize, spec.seed);
    let replicas = (0..part.shards)
        .map(|_| spec.build(behaviors.clone()))
        .collect();
    let ((_worlds, report, profile), wall_s) =
        timed(|| itb_gm::run_cluster_shards_profiled(replicas, &part, horizon));
    let digest = ScenarioDigest {
        name,
        events: report.events,
        sim_us: report.sim_time.as_us_f64(),
        delivered: report.delivered,
        injected: report.injected,
    };
    let run = ParRun {
        name,
        shards: report.per_shard_events.len(),
        edge_cut: report.edge_cut,
        windows: report.windows,
        cross_shard_ties: report.cross_shard_ties,
        per_shard_events: report.per_shard_events,
        wall_s,
    };
    (digest, run, Some(profile))
}

/// Write the profiler sidecars for one sharded run: the JSON record dump
/// and the Chrome `trace_event` window gantt (one lane per shard; load it
/// in Perfetto / `chrome://tracing` to see window utilization).
fn dump_profile(threads: u32, run: &ParRun, mut profile: ParProfile) {
    let shards = run.per_shard_events.len();
    let records_total = profile.records.len();
    let truncated = records_total > PROFILE_RECORD_CAP;
    if truncated {
        // Keep a *time prefix*, not a record prefix: records sort by
        // (shard, window), so a plain truncate would keep only shard 0 and
        // the gantt would lose every other lane. Capping the window ordinal
        // keeps the same leading stretch of the run on all shards.
        let windows_keep = (PROFILE_RECORD_CAP / shards.max(1)) as u64;
        profile.records.retain(|r| r.window < windows_keep);
        eprintln!(
            "  profiler: keeping the first {windows_keep} windows on every shard — {} of \
             {records_total} records ({} dropped from the sidecar and gantt)",
            profile.records.len(),
            records_total - profile.records.len()
        );
    }
    let meta = ParTraceMeta {
        cross_shard_ties: run.cross_shard_ties,
        per_shard_events: run.per_shard_events.clone(),
        available_parallelism: available_parallelism() as u64,
        threads,
    };
    itb_bench::dump_stream("pdes_smoke_windows_trace.json", |w| {
        write_par_windows_chrome_trace(&profile.records, &meta, w)
    });
    let artifact = ProfileArtifact {
        scenario: run.name,
        threads,
        shards,
        records_total,
        records_written: profile.records.len(),
        truncated,
        records: profile.records,
    };
    itb_bench::dump_json("pdes_smoke_profile", &artifact);
}

fn main() {
    let threads = itb_threads();
    eprintln!("running pdes smoke (ITB_THREADS={threads})...");
    let (d32, r32, _) = run_scenario("load_32sw", 32, threads);
    let (d64, r64, profile64) = run_scenario("load_64sw", 64, threads);

    for (d, r) in [(&d32, &r32), (&d64, &r64)] {
        println!(
            "{}: events={} sim_us={:.1} delivered={} injected={} shards={} cut={} windows={} \
             ties={} wall={:.3}s",
            d.name,
            d.events,
            d.sim_us,
            d.delivered,
            d.injected,
            r.shards,
            r.edge_cut,
            r.windows,
            r.cross_shard_ties,
            r.wall_s
        );
    }

    itb_bench::dump_json("pdes_smoke_digest", &[&d32, &d64]);
    if let Some(profile) = profile64 {
        dump_profile(threads, &r64, profile);
    }
    let sidecar = ParSidecar {
        itb_threads: threads,
        available_parallelism: available_parallelism(),
        runs: vec![r32, r64],
    };
    itb_bench::dump_json("pdes_smoke_par", &sidecar);
}

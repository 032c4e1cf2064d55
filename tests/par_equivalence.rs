//! Parallel/sequential equivalence: the sharded conservative-PDES engine
//! must reproduce the sequential run exactly, for any shard count, on every
//! workload that reports zero cross-shard rank ties. Beyond the aggregate
//! totals the `pdes_smoke` digest records (and `scripts/ci.sh`
//! byte-compares), the checks here are order-sensitive: the per-shard
//! application delivery logs must equal the sequential delivery log
//! attributed to each receiver's owner shard, and the full per-message
//! records (sender, receiver, length, send and delivery timestamps) must
//! match per owning shard.
//!
//! The one documented limitation — same-picosecond cross-shard arrivals
//! with identical producer times, which the parallel engine orders by shard
//! id instead of global schedule order — is pinned down by two scenarios at
//! the bottom:
//!
//! * the tie-heavy synchronized-stream workload, where ties *do* reorder
//!   the delivery log relative to sequential: the tie detector must flag
//!   it, the reordering must actually occur (the counter is not crying
//!   wolf), and the run must still be reproducible;
//! * the 32-switch Poisson workload, where ties occur at scale yet every
//!   order-sensitive observable still matches sequential — the empirical
//!   fact the CI digest gate relies on for the `pdes_smoke` load scenarios.

use itb_myrinet::core::{ClusterSpec, RoutingPolicy};
use itb_myrinet::gm::{run_cluster_shards, AppBehavior, Cluster, ParRunReport, ShardCluster};
use itb_myrinet::sim::{run_until, EventQueue, SimDuration, SimTime};
use itb_myrinet::topo::{partition, Partition};

/// Aggregate digest of one run: everything the `pdes_smoke` digest records
/// about a load scenario.
#[derive(Debug, PartialEq, Eq)]
struct Digest {
    events: u64,
    sim_ps: u64,
    delivered: u64,
    injected: u64,
}

/// Order-sensitive observables of a sequential run, kept for per-shard
/// attribution: the delivery log as `(from, to)` pairs (message ids are
/// allocated per shard in parallel runs, so only the endpoints are
/// comparable) and every message record as
/// `(src, dst, len, sent_at, delivered_at)`.
struct SeqObservables {
    digest: Digest,
    delivery_log: Vec<(u16, u16)>,
    records: Vec<Rec>,
}

/// One message record row: `(src, dst, len, sent_at, delivered_at)`.
type Rec = (u16, u16, u32, u64, Option<u64>);

/// Per-shard `(expected, got)` views of the order-sensitive observables:
/// the delivery log restricted to receivers the shard owns, and the message
/// records restricted to senders the shard owns.
struct ShardView {
    expect_log: Vec<(u16, u16)>,
    got_log: Vec<(u16, u16)>,
    expect_recs: Vec<Rec>,
    got_recs: Vec<Rec>,
}

fn shard_views(seq: &SeqObservables, part: &Partition, worlds: &[ShardCluster]) -> Vec<ShardView> {
    worlds
        .iter()
        .enumerate()
        .map(|(s, world)| ShardView {
            expect_log: seq
                .delivery_log
                .iter()
                .copied()
                .filter(|&(_, to)| part.shard_of_host[to as usize] as usize == s)
                .collect(),
            got_log: world
                .cluster
                .delivery_log()
                .iter()
                .map(|&(from, to, _)| (from.0, to.0))
                .collect(),
            expect_recs: seq
                .records
                .iter()
                .copied()
                .filter(|&(src, ..)| part.shard_of_host[src as usize] as usize == s)
                .collect(),
            got_recs: record_rows(&world.cluster),
        })
        .collect()
}

fn record_rows(cluster: &Cluster) -> Vec<Rec> {
    let mut rows: Vec<_> = cluster
        .messages()
        .iter()
        .map(|r| {
            (
                r.src.0,
                r.dst.0,
                r.len,
                r.sent_at.as_ps(),
                r.delivered_at.map(|t| t.as_ps()),
            )
        })
        .collect();
    rows.sort_unstable();
    rows
}

fn sequential_run(
    spec: &ClusterSpec,
    behaviors: &[AppBehavior],
    horizon: SimTime,
) -> SeqObservables {
    let mut cluster = spec.build(behaviors.to_vec());
    let mut q = EventQueue::new();
    cluster.start(&mut q);
    run_until(&mut cluster, &mut q, horizon);
    SeqObservables {
        digest: Digest {
            events: q.events_dispatched(),
            sim_ps: q.now().as_ps(),
            delivered: cluster.delivered_count() as u64,
            injected: cluster.net.stats().injected,
        },
        delivery_log: cluster
            .delivery_log()
            .iter()
            .map(|&(from, to, _)| (from.0, to.0))
            .collect(),
        records: record_rows(&cluster),
    }
}

fn parallel_run(
    spec: &ClusterSpec,
    behaviors: &[AppBehavior],
    threads: u32,
    horizon: SimTime,
) -> (Partition, Vec<ShardCluster>, ParRunReport) {
    let part = partition(spec.topology(), threads as usize, spec.seed);
    let replicas: Vec<Cluster> = (0..part.shards)
        .map(|_| spec.build(behaviors.to_vec()))
        .collect();
    let (worlds, report) = run_cluster_shards(replicas, &part, horizon);
    (part, worlds, report)
}

fn digest_of(report: &ParRunReport) -> Digest {
    Digest {
        events: report.events,
        sim_ps: report.sim_time.as_ps(),
        delivered: report.delivered,
        injected: report.injected,
    }
}

/// Full equivalence check of one parallel run against sequential
/// observables: aggregate digest, per-shard delivery-log order, and
/// per-shard message records.
fn assert_equivalent(
    seq: &SeqObservables,
    spec: &ClusterSpec,
    behaviors: &[AppBehavior],
    threads: u32,
    horizon: SimTime,
) {
    let (part, worlds, report) = parallel_run(spec, behaviors, threads, horizon);
    assert_eq!(
        report.cross_shard_ties, 0,
        "{threads}-shard run must be tie-free for the equivalence proof to apply"
    );
    assert_eq!(
        digest_of(&report),
        seq.digest,
        "{threads}-shard digest diverged"
    );

    for (s, v) in shard_views(seq, &part, &worlds).into_iter().enumerate() {
        // Delivery order: the shard's log must equal the sequential log
        // restricted to receivers this shard owns, in the same order.
        assert_eq!(
            v.got_log, v.expect_log,
            "shard {s} delivery log diverged (t={threads})"
        );
        // Message records: senders owned by this shard, with exact send and
        // delivery timestamps.
        assert_eq!(
            v.got_recs, v.expect_recs,
            "shard {s} message records diverged (t={threads})"
        );
    }
}

fn load_spec(switches: usize) -> (ClusterSpec, Vec<AppBehavior>) {
    let spec = ClusterSpec::irregular(switches, 1).with_routing(RoutingPolicy::Itb);
    let n = spec.num_hosts();
    let behaviors = vec![
        AppBehavior::Poisson {
            size: 512,
            mean_gap: SimDuration::from_us(40),
            limit: 0,
        };
        n
    ];
    (spec, behaviors)
}

#[test]
fn sharded_run_matches_sequential_order_sensitively() {
    let (spec, behaviors) = load_spec(8);
    let horizon = SimTime::ZERO + SimDuration::from_us(150);
    let seq = sequential_run(&spec, &behaviors, horizon);
    // A trivially empty run would make the equivalence vacuous.
    assert!(seq.digest.delivered > 0, "scenario must deliver traffic");
    assert!(seq.digest.injected > 0);
    assert!(!seq.delivery_log.is_empty());

    for threads in [1u32, 2, 4] {
        assert_equivalent(&seq, &spec, &behaviors, threads, horizon);
    }
}

#[test]
fn sharded_run_is_reproducible() {
    let (spec, behaviors) = load_spec(8);
    let horizon = SimTime::ZERO + SimDuration::from_us(100);
    let (_, _, a) = parallel_run(&spec, &behaviors, 4, horizon);
    let (_, _, b) = parallel_run(&spec, &behaviors, 4, horizon);
    assert_eq!(
        digest_of(&a),
        digest_of(&b),
        "same seed, same shard count must reproduce exactly"
    );
    assert_eq!(a.cross_shard_ties, b.cross_shard_ties);
}

#[test]
fn shard_count_clamps_to_topology() {
    // More requested shards than switches: the partitioner clamps, the run
    // still matches sequential.
    let (spec, behaviors) = load_spec(4);
    let horizon = SimTime::ZERO + SimDuration::from_us(80);
    let seq = sequential_run(&spec, &behaviors, horizon);
    assert_equivalent(&seq, &spec, &behaviors, 16, horizon);
}

/// The documented limitation, made concrete: a permutation stream where
/// every host starts sending at t = 0 over uniform link latencies. Flits
/// from different shards arrive at shared switches in the same picosecond
/// with identical producer times, so the parallel tie-break (shard id)
/// deviates from the sequential one (global schedule order). Three things
/// must hold for such runs: the tie counter flags them, the deviation is
/// *real* — some shard's delivery log is genuinely reordered relative to
/// sequential, so the counter is not crying wolf — and the run is still
/// reproducible for a fixed shard count. Byte-identity with sequential is
/// only promised for tie-free runs.
#[test]
fn tie_heavy_synchronized_streams_are_flagged_and_reproducible() {
    let spec = ClusterSpec::irregular(8, 1).with_routing(RoutingPolicy::Itb);
    let n = spec.num_hosts();
    let behaviors: Vec<AppBehavior> = (0..n)
        .map(|i| AppBehavior::Stream {
            dst: itb_myrinet::topo::HostId(((i + n / 2) % n) as u16),
            size: 512,
            count: 6,
        })
        .collect();
    let horizon = SimTime::ZERO + SimDuration::from_us(150);

    let seq = sequential_run(&spec, &behaviors, horizon);
    assert!(seq.digest.delivered > 0, "streams must deliver traffic");

    let (part, worlds, a) = parallel_run(&spec, &behaviors, 4, horizon);
    let (_, _, b) = parallel_run(&spec, &behaviors, 4, horizon);
    assert_eq!(digest_of(&a), digest_of(&b), "tied runs must reproduce");
    assert_eq!(a.cross_shard_ties, b.cross_shard_ties);
    assert!(
        a.cross_shard_ties > 0,
        "synchronized identical senders over uniform latencies must produce \
         cross-shard rank ties; if this starts failing the workload no longer \
         exercises the documented limitation"
    );
    // The tie-break difference must actually reorder an observable — this
    // is what makes the ties == 0 proof obligation meaningful. (Aggregate
    // totals still agree: the same messages are delivered, in a different
    // interleaving.)
    assert_eq!(digest_of(&a), seq.digest, "totals still match sequential");
    let reordered = shard_views(&seq, &part, &worlds)
        .iter()
        .any(|v| v.got_log != v.expect_log);
    assert!(
        reordered,
        "expected at least one shard's delivery log to deviate from the \
         sequential order under {} cross-shard ties",
        a.cross_shard_ties
    );
}

/// Ties at scale, the other way round: the 32-switch Poisson load — the
/// same family as the `pdes_smoke` load scenarios — produces hundreds of
/// cross-shard rank ties (302 for this seed/horizon), yet every
/// order-sensitive observable still matches sequential: the tied events
/// commute in effect (distinct flits meeting at a switch in the same
/// picosecond from different input ports, arbitrated identically either
/// way). This is an empirical property of the workload, not a theorem —
/// which is exactly why this test and the CI 1-vs-4 digest byte-compare
/// exist: they re-verify it on every change instead of assuming it.
#[test]
fn poisson_at_scale_ties_yet_matches_sequential_order_sensitively() {
    let (spec, behaviors) = load_spec(32);
    let horizon = SimTime::ZERO + SimDuration::from_us(300);
    let seq = sequential_run(&spec, &behaviors, horizon);
    let (part, worlds, report) = parallel_run(&spec, &behaviors, 4, horizon);
    assert!(
        report.cross_shard_ties > 0,
        "32sw Poisson must exercise the tied-but-benign regime; if it went \
         tie-free, move this scenario under assert_equivalent instead"
    );
    assert_eq!(digest_of(&report), seq.digest, "digest diverged");
    for (s, v) in shard_views(&seq, &part, &worlds).into_iter().enumerate() {
        assert_eq!(v.got_log, v.expect_log, "shard {s} delivery log diverged");
        assert_eq!(v.got_recs, v.expect_recs, "shard {s} records diverged");
    }
}

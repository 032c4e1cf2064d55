//! Hybrid flow/packet engine fidelity: the flow-level model must never
//! change *what* the cluster delivers, only how cheaply it simulates the
//! uncongested stretches.
//!
//! Three contracts, in escalating strength:
//!
//! * **All-packet plans are inert.** A `RegionPlan::all_packet` hybrid run
//!   schedules zero flow events, so every observable the `par_equivalence`
//!   suite extracts — dispatched event count, final sim time, the ordered
//!   delivery log, the metric counters — is byte-identical to a plain
//!   sequential run. (The state digest itself gains a flow-mode section by
//!   design, so the comparison is over the observables, which is what the
//!   CI artifact gates byte-compare.)
//! * **Mixed-fidelity runs preserve the delivery contract.** Messages
//!   riding the flow model arrive with the same `(src, dst, msg_id)` set
//!   and the same per-pair FIFO order as the full packet model; only the
//!   timing differs (that is the approximation being bought).
//! * **Escalation is safe.** A deliberately contended Flow region trips
//!   the [`ESCALATE_CONTENTION`] trigger, hands its flows back to the
//!   packet path mid-flight, and still delivers everything exactly once,
//!   deterministically.
//!
//! The health watchdog must see flow-engine progress too: a run carried
//! entirely by flows moves no packet bytes, yet it is not stalled.

use itb_myrinet::core::{ClusterSpec, RoutingPolicy};
use itb_myrinet::gm::{AppBehavior, Cluster, ClusterEvent, ESCALATE_CONTENTION};
use itb_myrinet::sim::{run_while, Digest, EventQueue, SimDuration, SimTime};
use itb_myrinet::topo::{partition, HostId, RegionFidelity, RegionPlan};

const REGIONS: usize = 4;
const FLOW_ROUND: SimDuration = SimDuration::from_us(50);

/// Run a prepared cluster until `expected` messages are delivered (the
/// queue draining early would fail the count assert).
fn drain(cluster: &mut Cluster, q: &mut EventQueue<ClusterEvent>, expected: usize) {
    cluster.start(q);
    run_while(cluster, q, |c| c.delivered_count() < expected);
    assert_eq!(cluster.delivered_count(), expected, "run must drain fully");
}

fn digest_of(cluster: &Cluster) -> u64 {
    let mut d = Digest::new();
    cluster.state_digest(&mut d);
    d.finish()
}

/// The delivery log as an order-insensitive set (sorted triples): hybrid
/// runs may interleave pairs differently, but the set must be identical.
fn delivered_set(cluster: &Cluster) -> Vec<(u16, u16, u32)> {
    let mut v: Vec<(u16, u16, u32)> = cluster
        .delivery_log()
        .iter()
        .map(|&(from, to, id)| (from.0, to.0, id))
        .collect();
    v.sort_unstable();
    v
}

/// Per-(src, dst) delivery order: the sequence of message ids each pair's
/// receiver saw, in delivery order.
fn pair_orders(cluster: &Cluster) -> std::collections::BTreeMap<(u16, u16), Vec<u32>> {
    let mut m: std::collections::BTreeMap<(u16, u16), Vec<u32>> = Default::default();
    for &(from, to, id) in cluster.delivery_log() {
        m.entry((from.0, to.0)).or_default().push(id);
    }
    m
}

#[test]
fn all_packet_plan_is_byte_identical_to_sequential() {
    let spec = ClusterSpec::irregular(16, 1).with_routing(RoutingPolicy::Itb);
    let n = spec.num_hosts();
    let behaviors: Vec<AppBehavior> = (0..n)
        .map(|i| AppBehavior::Stream {
            dst: HostId(((i + n / 2) % n) as u16),
            size: 512,
            count: 3,
        })
        .collect();
    let expected = n * 3;

    let mut plain = spec.build(behaviors.clone());
    let mut q_plain = EventQueue::new();
    drain(&mut plain, &mut q_plain, expected);

    let mut hybrid = spec.build(behaviors);
    let plan = RegionPlan::all_packet(partition(spec.topology(), REGIONS, spec.seed));
    hybrid.enable_flow_regions(plan, FLOW_ROUND);
    let mut q_hybrid = EventQueue::new();
    drain(&mut hybrid, &mut q_hybrid, expected);

    // Same event stream, same clock, same ordered delivery log: the flow
    // machinery scheduled nothing.
    assert_eq!(q_hybrid.events_dispatched(), q_plain.events_dispatched());
    assert_eq!(q_hybrid.now(), q_plain.now());
    assert_eq!(hybrid.delivery_log(), plain.delivery_log());
    assert_eq!(
        hybrid.flow_messages(),
        0,
        "no message may ride the flow path"
    );

    // Metric counters: identical once the flow-mode-only keys (all zero)
    // are set aside — packet-only artifacts keep their exact legacy set.
    let snap_p = plain.metrics_snapshot(q_plain.now());
    let snap_h = hybrid.metrics_snapshot(q_hybrid.now());
    for (k, v) in &snap_h.counters {
        match k.strip_prefix("flow.") {
            Some(_) => assert_eq!(*v, 0, "inert flow counter {k}"),
            None => assert_eq!(Some(v), snap_p.counters.get(k), "counter {k}"),
        }
    }
    assert_eq!(
        snap_h
            .counters
            .iter()
            .filter(|(k, _)| !k.starts_with("flow."))
            .count(),
        snap_p.counters.len()
    );
}

#[test]
fn mixed_regions_preserve_delivery_set_and_pair_order() {
    // Up*/down* routing: no in-transit hops, so paths inside Flow regions
    // are flow-eligible. Region 0 is demoted to Packet up front — messages
    // crossing it take the packet path, the rest ride the flow model.
    let spec = ClusterSpec::irregular(16, 1).with_routing(RoutingPolicy::UpDown);
    let n = spec.num_hosts();
    // A light permutation load (3 messages per host, all opened at t=0)
    // stays under the contention trigger on every channel.
    let behaviors: Vec<AppBehavior> = (0..n)
        .map(|i| AppBehavior::Stream {
            dst: HostId(((i + n / 2) % n) as u16),
            size: 1_024,
            count: 3,
        })
        .collect();
    let expected = n * 3;

    let mut plain = spec.build(behaviors.clone());
    let mut q_plain = EventQueue::new();
    drain(&mut plain, &mut q_plain, expected);

    let mut hybrid = spec.build(behaviors);
    let mut plan = RegionPlan::all_flow(partition(spec.topology(), REGIONS, spec.seed));
    plan.escalate(0);
    hybrid.enable_flow_regions(plan, FLOW_ROUND);
    let mut q_hybrid = EventQueue::new();
    drain(&mut hybrid, &mut q_hybrid, expected);

    assert!(
        hybrid.flow_messages() > 0,
        "the mixed plan must divert some messages to the flow engine"
    );
    assert!(
        hybrid.flow_messages() < expected as u64,
        "region 0 must keep some messages on the packet path"
    );
    // Same delivered set, same per-pair FIFO order, same end-to-end GM
    // counters; only inter-pair timing may differ.
    assert_eq!(delivered_set(&hybrid), delivered_set(&plain));
    assert_eq!(pair_orders(&hybrid), pair_orders(&plain));
    let snap_p = plain.metrics_snapshot(q_plain.now());
    let snap_h = hybrid.metrics_snapshot(q_hybrid.now());
    assert_eq!(
        snap_h.counters.get("gm.app_deliveries"),
        snap_p.counters.get("gm.app_deliveries")
    );
    assert_eq!(snap_h.counters.get("gm.retransmissions"), Some(&0));
    // Every message record closed out in both runs.
    for (id, rec) in hybrid.messages() {
        assert!(rec.delivered_at.is_some(), "message {id} delivered");
    }
}

#[test]
fn contended_flow_region_escalates_and_still_delivers_exactly_once() {
    let spec = ClusterSpec::irregular(16, 1).with_routing(RoutingPolicy::UpDown);
    let n = spec.num_hosts();
    // Incast: enough senders stream at one destination host to push its
    // downlink occupancy past the trigger on the first solve.
    let senders = (ESCALATE_CONTENTION + 2) as usize;
    let dst = HostId((n - 1) as u16);
    let mut behaviors = vec![AppBehavior::Sink; n];
    let mut expected = 0;
    for (i, b) in behaviors.iter_mut().enumerate().take(senders) {
        assert!(i != dst.0 as usize);
        *b = AppBehavior::Stream {
            dst,
            size: 2_048,
            count: 2,
        };
        expected += 2;
    }

    let mut plain = spec.build(behaviors.clone());
    let mut q_plain = EventQueue::new();
    drain(&mut plain, &mut q_plain, expected);

    let run_hybrid = || {
        let mut hybrid = spec.build(behaviors.clone());
        let plan = RegionPlan::all_flow(partition(spec.topology(), REGIONS, spec.seed));
        hybrid.enable_flow_regions(plan, FLOW_ROUND);
        let mut q = EventQueue::new();
        drain(&mut hybrid, &mut q, expected);
        (
            digest_of(&hybrid),
            delivered_set(&hybrid),
            pair_orders(&hybrid),
            {
                let fid = hybrid.region_fidelity().expect("flow mode on").to_vec();
                (fid, hybrid.flow_messages())
            },
        )
    };
    let (digest_a, set_a, orders_a, (fidelity, flow_msgs)) = run_hybrid();

    assert!(flow_msgs > 0, "the incast must start on the flow path");
    assert!(
        fidelity.contains(&RegionFidelity::Packet),
        "the contended region must have escalated: {fidelity:?}"
    );
    // Escalation handed the flows back mid-flight, yet the delivery
    // contract holds against the pure packet run.
    assert_eq!(set_a, delivered_set(&plain));
    assert_eq!(orders_a, pair_orders(&plain));

    // And the whole escalating run is reproducible, digest included.
    let (digest_b, set_b, orders_b, _) = run_hybrid();
    assert_eq!(digest_a, digest_b);
    assert_eq!(set_a, set_b);
    assert_eq!(orders_a, orders_b);
}

#[test]
fn flow_only_run_does_not_trip_the_stall_watchdog() {
    let spec = ClusterSpec::irregular(16, 1).with_routing(RoutingPolicy::UpDown);
    let n = spec.num_hosts();
    // A few large messages: each flow lives for many rounds, far longer
    // than the stall budget, and the load stays under the contention
    // trigger, so no region escalates and no packet ever moves.
    let senders = 4;
    let mut behaviors = vec![AppBehavior::Sink; n];
    for (i, b) in behaviors.iter_mut().enumerate().take(senders) {
        *b = AppBehavior::Stream {
            dst: HostId((i + n / 2) as u16),
            size: 65_536,
            count: 1,
        };
    }

    let mut hybrid = spec.build(behaviors);
    let plan = RegionPlan::all_flow(partition(spec.topology(), REGIONS, spec.seed));
    hybrid.enable_flow_regions(plan, FLOW_ROUND);
    hybrid.enable_health(FLOW_ROUND, FLOW_ROUND * 4);
    let mut q = EventQueue::new();
    drain(&mut hybrid, &mut q, senders);

    assert_eq!(hybrid.flow_messages(), senders as u64);
    assert!(
        q.now() > SimTime::ZERO + FLOW_ROUND * 8,
        "the flows must outlive the stall budget"
    );
    let snap = hybrid.metrics_snapshot(q.now());
    assert_eq!(snap.counters["net.delivered"], 0, "no packet may move");
    let report = hybrid.health_report(q.now()).expect("health was enabled");
    assert!(
        report.healthy,
        "flow progress flagged: {:?}",
        report.violations
    );
}

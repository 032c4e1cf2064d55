//! Failure injection across the stack: receive-pool exhaustion (flushes),
//! ITB-host starvation, seeded fault plans (probabilistic drops, link-down
//! windows, NIC crashes), and recovery through the GM reliability layer.

use itb_myrinet::core::{ClusterSpec, McpFlavor};
use itb_myrinet::gm::AppBehavior;
use itb_myrinet::net::{FaultPlan, LinkFault};
use itb_myrinet::routing::figures;
use itb_myrinet::sim::{run_until, EventQueue, SimTime};
use itb_myrinet::topo::builders::fig6_testbed;

#[test]
fn starved_receiver_recovers_all_messages() {
    // One receive buffer at every NIC + a 20-message burst: flushes are
    // guaranteed, go-back-N must deliver everything exactly once anyway.
    let tb = fig6_testbed();
    let spec = ClusterSpec::fig6_testbed()
        .with_mcp(McpFlavor::Original)
        .with_recv_buffers(1)
        .with_flush_on_overflow(true);
    let behaviors = vec![
        AppBehavior::Stream {
            dst: tb.host2,
            size: 3000,
            count: 20,
        },
        AppBehavior::Sink,
        AppBehavior::Sink,
    ];
    let mut c = spec.build(behaviors);
    let mut q = EventQueue::new();
    c.start(&mut q);
    run_until(&mut c, &mut q, SimTime::from_ms(400));
    assert_eq!(c.delivered_count(), 20);
    assert!(
        c.nic(tb.host2).stats().flushed > 0,
        "injection must trigger"
    );
    assert!(
        c.host(tb.host1).conn_tx(tb.host2).unwrap().retransmissions > 0,
        "recovery must go through retransmission"
    );
    // Exactly-once at the app level is already asserted by delivered_count;
    // any duplicate arrivals (go-back-N resends overlapping in-flight
    // packets) must have been discarded, not re-delivered.
    assert_eq!(c.messages().len(), 20);
}

#[test]
fn starved_in_transit_host_recovers_itb_traffic() {
    // The ITB host has a single receive buffer; bursty ITB-routed traffic
    // through it gets flushed mid-path and must still arrive via
    // retransmission — the §4 scenario ("this packet will be flushed. The
    // GM software has mechanisms to retransmit missing packets").
    let tb = fig6_testbed();
    let spec = ClusterSpec::fig6_testbed()
        .with_mcp(McpFlavor::Itb)
        .with_recv_buffers(1)
        .with_flush_on_overflow(true)
        .with_route_override(figures::fig8_itb_route(&tb))
        .with_route_override(figures::fig8_return_route(&tb));
    let behaviors = vec![
        AppBehavior::Stream {
            dst: tb.host2,
            size: 3000,
            count: 15,
        },
        AppBehavior::Sink,
        AppBehavior::Sink,
    ];
    let mut c = spec.build(behaviors);
    let mut q = EventQueue::new();
    c.start(&mut q);
    run_until(&mut c, &mut q, SimTime::from_ms(400));
    assert_eq!(
        c.delivered_count(),
        15,
        "all messages despite mid-path drops"
    );
    let itb_nic = c.nic(tb.itb_host);
    assert!(
        itb_nic.stats().itb_forwards > 0,
        "some packets did take the in-transit path"
    );
    // Either the ITB host or the final receiver flushed something.
    let drops = itb_nic.stats().flushed + c.nic(tb.host2).stats().flushed;
    assert!(
        drops > 0,
        "starvation must have dropped at least one packet"
    );
}

#[test]
fn crc_corruption_recovers_via_retransmission() {
    // A quarter of the packets (data or ack) entering any link have their
    // CRC damaged; the receiving NIC drops them at the tail check and
    // go-back-N must still deliver every message exactly once.
    let tb = fig6_testbed();
    let spec = ClusterSpec::fig6_testbed()
        .with_mcp(McpFlavor::Original)
        .with_faults(FaultPlan::seeded(1).with_corrupt_prob(0.25));
    let behaviors = vec![
        AppBehavior::Stream {
            dst: tb.host2,
            size: 2000,
            count: 12,
        },
        AppBehavior::Sink,
        AppBehavior::Sink,
    ];
    let mut c = spec.build(behaviors);
    let mut q = EventQueue::new();
    c.start(&mut q);
    run_until(&mut c, &mut q, SimTime::from_ms(400));
    assert_eq!(c.delivered_count(), 12);
    let drops: u64 = [tb.host1, tb.itb_host, tb.host2]
        .iter()
        .map(|&h| c.nic(h).stats().crc_drops)
        .sum();
    assert!(drops > 0, "corruption must have dropped packets");
    assert!(
        c.host(tb.host1).conn_tx(tb.host2).unwrap().retransmissions > 0,
        "recovery via retransmission"
    );
}

#[test]
fn corrupted_itb_packet_dropped_at_destination_and_recovered() {
    // A corrupted packet on the ITB route is forwarded unverified (cut-
    // through cannot check the CRC before re-injecting) and dropped at the
    // final destination's tail check. Only the sender's own cable corrupts,
    // so every damaged data packet is damaged before the in-transit host.
    let tb = fig6_testbed();
    let spec = ClusterSpec::fig6_testbed()
        .with_mcp(McpFlavor::Itb)
        .with_faults(FaultPlan::seeded(1).with_link_override(LinkFault {
            link: tb.topo.host_link(tb.host1),
            drop_prob: 0.0,
            corrupt_prob: 0.33,
        }))
        .with_route_override(figures::fig8_itb_route(&tb))
        .with_route_override(figures::fig8_return_route(&tb));
    let behaviors = vec![
        AppBehavior::Stream {
            dst: tb.host2,
            size: 1500,
            count: 10,
        },
        AppBehavior::Sink,
        AppBehavior::Sink,
    ];
    let mut c = spec.build(behaviors);
    let mut q = EventQueue::new();
    c.start(&mut q);
    run_until(&mut c, &mut q, SimTime::from_ms(400));
    assert_eq!(c.delivered_count(), 10);
    assert!(c.nic(tb.host2).stats().crc_drops > 0 || c.nic(tb.host1).stats().crc_drops > 0);
    // The in-transit host never drops on CRC: it forwards without checking.
    assert_eq!(c.nic(tb.itb_host).stats().crc_drops, 0);
    assert!(c.nic(tb.itb_host).stats().itb_forwards > 0);
}

#[test]
fn no_reliability_means_losses_stay_lost() {
    // Sanity check of the control: with reliability off and a starved
    // receiver, some messages never arrive.
    let tb = fig6_testbed();
    let mut spec = ClusterSpec::fig6_testbed()
        .with_mcp(McpFlavor::Original)
        .with_recv_buffers(1)
        .with_flush_on_overflow(true);
    spec.calib.gm.reliability = false;
    let behaviors = vec![
        AppBehavior::Stream {
            dst: tb.host2,
            size: 3000,
            count: 20,
        },
        AppBehavior::Sink,
        AppBehavior::Sink,
    ];
    let mut c = spec.build(behaviors);
    let mut q = EventQueue::new();
    c.start(&mut q);
    run_until(&mut c, &mut q, SimTime::from_ms(400));
    assert!(
        c.delivered_count() < 20,
        "without retransmission flushes must be terminal"
    );
}

#[test]
fn retransmission_preserves_payload_sizes() {
    // Mixed sizes under starvation: every delivered record keeps its length.
    let tb = fig6_testbed();
    let spec = ClusterSpec::fig6_testbed()
        .with_mcp(McpFlavor::Original)
        .with_recv_buffers(1)
        .with_flush_on_overflow(true);
    let behaviors = vec![
        AppBehavior::Stream {
            dst: tb.host2,
            size: 9000, // 3 packets per message
            count: 8,
        },
        AppBehavior::Sink,
        AppBehavior::Sink,
    ];
    let mut c = spec.build(behaviors);
    let mut q = EventQueue::new();
    c.start(&mut q);
    run_until(&mut c, &mut q, SimTime::from_ms(400));
    assert_eq!(c.delivered_count(), 8);
    for rec in c.messages() {
        assert_eq!(rec.len, 9000);
        assert!(rec.delivered_at.is_some());
    }
}

#[test]
fn probabilistic_drops_recover_exactly_once() {
    // Seeded per-link drop/corrupt noise on every link: the reliability
    // layer must still deliver every message exactly once.
    let tb = fig6_testbed();
    let spec = ClusterSpec::fig6_testbed()
        .with_mcp(McpFlavor::Original)
        .with_faults(
            FaultPlan::seeded(11)
                .with_drop_prob(0.03)
                .with_corrupt_prob(0.01),
        );
    let behaviors = vec![
        AppBehavior::Stream {
            dst: tb.host2,
            size: 2048,
            count: 25,
        },
        AppBehavior::Sink,
        AppBehavior::Sink,
    ];
    let mut c = spec.build(behaviors);
    let mut q = EventQueue::new();
    c.start(&mut q);
    run_until(&mut c, &mut q, SimTime::from_ms(400));
    assert_eq!(c.delivered_count(), 25);
    let stats = c.net.stats();
    assert!(
        stats.fault_drops + stats.fault_corrupts > 0,
        "the plan must actually inject faults"
    );
    assert!(
        c.host(tb.host1).conn_tx(tb.host2).unwrap().retransmissions > 0,
        "losses recover via retransmission"
    );
}

#[test]
fn link_down_window_recovers() {
    // The first inter-switch cable goes dark for 200 us while a stream is
    // crossing it; every head that arrives during the outage is lost and
    // must be retransmitted after it ends.
    let tb = fig6_testbed();
    let spec = ClusterSpec::fig6_testbed()
        .with_mcp(McpFlavor::Original)
        .with_faults(FaultPlan::seeded(3).with_down_window(
            tb.cable_a,
            SimTime::from_us(20),
            SimTime::from_us(220),
        ));
    let behaviors = vec![
        AppBehavior::Stream {
            dst: tb.host2,
            size: 4096,
            count: 20,
        },
        AppBehavior::Sink,
        AppBehavior::Sink,
    ];
    let mut c = spec.build(behaviors);
    let mut q = EventQueue::new();
    c.start(&mut q);
    run_until(&mut c, &mut q, SimTime::from_ms(400));
    assert_eq!(c.delivered_count(), 20, "traffic resumes after the outage");
    assert!(
        c.net.stats().link_down_drops > 0,
        "the outage must have eaten packets"
    );
    assert!(c.host(tb.host1).conn_tx(tb.host2).unwrap().retransmissions > 0);
}

#[test]
fn itb_host_crash_flushes_in_transit_packets_and_recovers() {
    // The in-transit host's NIC crashes while ITB traffic flows through
    // it: buffered in-transit packets are flushed, arrivals during the
    // outage are discarded, and go-back-N still delivers everything.
    let tb = fig6_testbed();
    let spec = ClusterSpec::fig6_testbed()
        .with_mcp(McpFlavor::Itb)
        .with_route_override(figures::fig8_itb_route(&tb))
        .with_route_override(figures::fig8_return_route(&tb))
        .with_faults(FaultPlan::seeded(5).with_crash(
            tb.itb_host,
            SimTime::from_us(30),
            SimTime::from_us(400),
        ));
    let behaviors = vec![
        AppBehavior::Stream {
            dst: tb.host2,
            size: 2048,
            count: 20,
        },
        AppBehavior::Sink,
        AppBehavior::Sink,
    ];
    let mut c = spec.build(behaviors);
    let mut q = EventQueue::new();
    c.start(&mut q);
    run_until(&mut c, &mut q, SimTime::from_ms(400));
    assert_eq!(c.delivered_count(), 20, "all messages despite the crash");
    let itb_stats = c.nic(tb.itb_host).stats();
    assert!(
        itb_stats.crash_flushes > 0,
        "the crash must have flushed or discarded packets"
    );
    assert!(
        itb_stats.itb_forwards > 0,
        "forwarding resumed after recovery"
    );
    assert!(!c.nic(tb.itb_host).is_crashed(), "NIC recovered");
    let snap = c.metrics_snapshot(SimTime::from_ms(400));
    assert_eq!(snap.counters["gm.crashes_injected"], 1);
    assert!(snap.counters["gm.drops_observed"] > 0);
}

#[test]
fn retry_cap_surfaces_connection_failure() {
    // A black-hole link (100% drop) with a small retry budget: instead of
    // resending forever, the sender must declare the connection failed and
    // surface it.
    let tb = fig6_testbed();
    let mut spec = ClusterSpec::fig6_testbed()
        .with_mcp(McpFlavor::Original)
        .with_faults(FaultPlan::seeded(1).with_drop_prob(1.0));
    spec.calib.gm.max_retries = 2;
    let behaviors = vec![
        AppBehavior::Stream {
            dst: tb.host2,
            size: 1024,
            count: 3,
        },
        AppBehavior::Sink,
        AppBehavior::Sink,
    ];
    let mut c = spec.build(behaviors);
    let mut q = EventQueue::new();
    c.start(&mut q);
    run_until(&mut c, &mut q, SimTime::from_ms(400));
    assert_eq!(c.delivered_count(), 0, "nothing can get through");
    assert_eq!(
        c.connection_failures(),
        &[(tb.host1, tb.host2)],
        "the failure must be surfaced, once"
    );
    assert!(c.host(tb.host1).conn_failed(tb.host2));
    let snap = c.metrics_snapshot(SimTime::from_ms(400));
    assert_eq!(snap.counters["gm.connections_failed"], 1);
    assert!(snap.counters["gm.packets_abandoned"] > 0);
    // Sends after the failure are refused quietly, not queued forever.
    assert!(!c.host(tb.host1).has_unacked(tb.host2));
}

#[test]
fn same_seed_same_fault_schedule() {
    // Two runs of the identical spec must produce byte-identical metrics:
    // fault injection shares the simulator's determinism guarantees.
    let run = || {
        let tb = fig6_testbed();
        let spec = ClusterSpec::fig6_testbed()
            .with_mcp(McpFlavor::Original)
            .with_faults(
                FaultPlan::seeded(42)
                    .with_drop_prob(0.02)
                    .with_corrupt_prob(0.01)
                    .with_down_window(tb.cable_a, SimTime::from_us(50), SimTime::from_us(150)),
            );
        let behaviors = vec![
            AppBehavior::Stream {
                dst: tb.host2,
                size: 3000,
                count: 15,
            },
            AppBehavior::Sink,
            AppBehavior::Sink,
        ];
        let mut c = spec.build(behaviors);
        let mut q = EventQueue::new();
        c.start(&mut q);
        run_until(&mut c, &mut q, SimTime::from_ms(400));
        c.metrics_snapshot(SimTime::from_ms(400))
    };
    let a = run();
    let b = run();
    assert_eq!(
        a.counters, b.counters,
        "fault schedule must be deterministic"
    );
}

//! Full-stack cluster tests: GM hosts over NICs over the wormhole network.

use itb_gm::cluster::ClusterParams;
use itb_gm::{AppBehavior, Cluster, GmConfig};
use itb_net::{FaultPlan, NetConfig};
use itb_nic::{McpFlavor, McpTiming};
use itb_routing::{figures, RoutingPolicy};
use itb_sim::{run_until, run_while, EventQueue, SimDuration, SimTime};
use itb_topo::builders::{fig6_testbed, random_irregular, IrregularSpec};

fn fig6_params(flavor: McpFlavor, behaviors: Vec<AppBehavior>) -> ClusterParams {
    let tb = fig6_testbed();
    ClusterParams {
        topo: tb.topo.clone(),
        net: NetConfig::default(),
        mcp: McpTiming::lanai7(),
        flavor,
        routing: RoutingPolicy::UpDown,
        itb_selection: itb_routing::planner::ItbHostSelection::RoundRobin,
        gm: GmConfig::default(),
        behaviors,
        route_overrides: vec![],
        faults: FaultPlan::default(),
        seed: 1,
    }
}

#[test]
fn pingpong_on_testbed_completes() {
    let tb = fig6_testbed();
    let behaviors = vec![
        AppBehavior::PingPong {
            peer: tb.host2,
            sizes: vec![32, 256, 1024],
            iters: 5,
            warmup: 2,
        },
        AppBehavior::Sink, // in-transit host idle
        AppBehavior::Echo,
    ];
    let mut c = Cluster::new(fig6_params(McpFlavor::Original, behaviors));
    let mut q = EventQueue::new();
    c.start(&mut q);
    run_while(&mut c, &mut q, |c| !c.all_pingpongs_done());
    let st = c.ping_state(tb.host1);
    assert!(st.done);
    assert_eq!(st.samples.len(), 3 * 5);
    // Latencies grow with size.
    let mean = |sz: u32| {
        let v: Vec<f64> = st
            .samples
            .iter()
            .filter(|&&(s, _)| s == sz)
            .map(|&(_, d)| d.as_us_f64())
            .collect();
        v.iter().sum::<f64>() / v.len() as f64
    };
    assert!(mean(32) < mean(256));
    assert!(mean(256) < mean(1024));
    // Short-message half-RTT lands in the GM-era ballpark (≈5–20 us).
    let half = mean(32) / 2.0;
    assert!(
        (5.0..20.0).contains(&half),
        "short half-RTT {half} us out of band"
    );
}

#[test]
fn itb_route_override_forwards_through_host() {
    let tb = fig6_testbed();
    let behaviors = vec![
        AppBehavior::PingPong {
            peer: tb.host2,
            sizes: vec![64],
            iters: 3,
            warmup: 1,
        },
        AppBehavior::Sink,
        AppBehavior::Echo,
    ];
    let mut p = fig6_params(McpFlavor::Itb, behaviors);
    p.route_overrides = vec![
        figures::fig8_itb_route(&tb),
        figures::fig8_return_route(&tb),
    ];
    let mut c = Cluster::new(p);
    let mut q = EventQueue::new();
    c.start(&mut q);
    run_while(&mut c, &mut q, |c| !c.all_pingpongs_done());
    assert!(c.ping_state(tb.host1).done);
    // Every ping crossed the in-transit host (4 = 1 warmup + 3 iters), and
    // host1's ACKs of the echoes ride the same overridden h1->h2 route, so
    // up to 8 forwards happen (the final ACK may still be in flight when the
    // sweep finishes).
    let itb_nic = c.nic(tb.itb_host);
    assert!(
        (4..=8).contains(&itb_nic.stats().itb_forwards),
        "forwards: {}",
        itb_nic.stats().itb_forwards
    );
    assert_eq!(itb_nic.stats().recvs, 0);
}

#[test]
fn fig8_udvsitb_difference_at_cluster_level() {
    // Full-stack version of the paper's Figure 8 measurement.
    let tb = fig6_testbed();
    let run = |overrides: Vec<itb_routing::SourceRoute>| {
        let behaviors = vec![
            AppBehavior::PingPong {
                peer: tb.host2,
                sizes: vec![128],
                iters: 10,
                warmup: 3,
            },
            AppBehavior::Sink,
            AppBehavior::Echo,
        ];
        let mut p = fig6_params(McpFlavor::Itb, behaviors);
        p.route_overrides = overrides;
        let mut c = Cluster::new(p);
        let mut q = EventQueue::new();
        c.start(&mut q);
        run_while(&mut c, &mut q, |c| !c.all_pingpongs_done());
        let st = c.ping_state(tb.host1);
        let mean_rtt: f64 =
            st.samples.iter().map(|&(_, d)| d.as_us_f64()).sum::<f64>() / st.samples.len() as f64;
        mean_rtt / 2.0
    };
    let ud = run(vec![
        figures::fig8_ud_route(&tb),
        figures::fig8_return_route(&tb),
    ]);
    let itb = run(vec![
        figures::fig8_itb_route(&tb),
        figures::fig8_return_route(&tb),
    ]);
    // Only the h1->h2 direction carries the ITB, so — exactly as the paper
    // does — the per-ITB overhead is twice the half-round-trip difference.
    let overhead = (itb - ud) * 2.0;
    assert!(
        (0.9..=1.7).contains(&overhead),
        "per-ITB overhead {overhead} us (paper: ≈1.3 us)"
    );
}

#[test]
fn multi_packet_message_reassembles() {
    let tb = fig6_testbed();
    let behaviors = vec![
        AppBehavior::Stream {
            dst: tb.host2,
            size: 20_000, // 5 packets at MTU 4096
            count: 3,
        },
        AppBehavior::Sink,
        AppBehavior::Sink,
    ];
    let mut c = Cluster::new(fig6_params(McpFlavor::Original, behaviors));
    let mut q = EventQueue::new();
    c.start(&mut q);
    run_until(&mut c, &mut q, SimTime::from_ms(50));
    assert_eq!(c.delivered_count(), 3);
    for rec in c.messages() {
        assert_eq!(rec.len, 20_000);
        assert!(rec.delivered_at.is_some());
    }
}

#[test]
fn flushed_packets_recover_via_retransmission() {
    // Tiny receive pool at host2 + a burst of messages → some packets are
    // flushed; go-back-N must still deliver every message exactly once.
    let tb = fig6_testbed();
    let behaviors = vec![
        AppBehavior::Stream {
            dst: tb.host2,
            size: 4_000,
            count: 10,
        },
        AppBehavior::Sink,
        AppBehavior::Sink,
    ];
    let mut p = fig6_params(McpFlavor::Original, behaviors);
    p.mcp.recv_buffers = 1; // starve the receiver
    p.mcp.flush_on_overflow = true;
    let mut c = Cluster::new(p);
    let mut q = EventQueue::new();
    c.start(&mut q);
    run_until(&mut c, &mut q, SimTime::from_ms(200));
    assert_eq!(c.delivered_count(), 10, "reliability must recover flushes");
    let flushed = c.nic(tb.host2).stats().flushed;
    assert!(
        flushed > 0,
        "the starved pool should have flushed something"
    );
    let retrans = c.host(tb.host1).conn_tx(tb.host2).unwrap().retransmissions;
    assert!(retrans > 0, "recovery must have used retransmissions");
}

#[test]
fn poisson_traffic_on_irregular_network_delivers_exactly_once() {
    let topo = random_irregular(&IrregularSpec::evaluation_default(8, 42));
    let n = topo.num_hosts();
    let behaviors = vec![
        AppBehavior::Poisson {
            size: 512,
            mean_gap: SimDuration::from_us(50),
            limit: 20,
        };
        n
    ];
    let params = ClusterParams {
        topo,
        net: NetConfig::default(),
        mcp: McpTiming::lanai7(),
        flavor: McpFlavor::Itb,
        routing: RoutingPolicy::Itb,
        itb_selection: itb_routing::planner::ItbHostSelection::RoundRobin,
        gm: GmConfig::default(),
        behaviors,
        route_overrides: vec![],
        faults: FaultPlan::default(),
        seed: 7,
    };
    let mut c = Cluster::new(params);
    let mut q = EventQueue::new();
    c.start(&mut q);
    run_until(&mut c, &mut q, SimTime::from_ms(100));
    let total = c.messages().len();
    assert_eq!(total, n * 20);
    let delivered = c.delivered_count();
    assert_eq!(delivered, total, "every message delivered exactly once");
    // Latency sanity: all records have delivery after send.
    for rec in c.messages() {
        assert!(rec.delivered_at.unwrap() > rec.sent_at);
    }
}

#[test]
fn updown_and_itb_routing_both_work_loaded() {
    for policy in [RoutingPolicy::UpDown, RoutingPolicy::Itb] {
        let topo = random_irregular(&IrregularSpec::evaluation_default(8, 3));
        let n = topo.num_hosts();
        let behaviors = vec![
            AppBehavior::Poisson {
                size: 256,
                mean_gap: SimDuration::from_us(30),
                limit: 10,
            };
            n
        ];
        let params = ClusterParams {
            topo,
            net: NetConfig::default(),
            mcp: McpTiming::lanai7(),
            flavor: McpFlavor::Itb,
            routing: policy,
            itb_selection: itb_routing::planner::ItbHostSelection::RoundRobin,
            gm: GmConfig::default(),
            behaviors,
            route_overrides: vec![],
            faults: FaultPlan::default(),
            seed: 9,
        };
        let mut c = Cluster::new(params);
        let mut q = EventQueue::new();
        c.start(&mut q);
        run_until(&mut c, &mut q, SimTime::from_ms(100));
        assert_eq!(c.delivered_count(), n * 10, "policy {policy:?}");
    }
}

#[test]
fn determinism_same_seed_same_results() {
    let run = || {
        let topo = random_irregular(&IrregularSpec::evaluation_default(6, 5));
        let n = topo.num_hosts();
        let behaviors = vec![
            AppBehavior::Poisson {
                size: 128,
                mean_gap: SimDuration::from_us(40),
                limit: 5,
            };
            n
        ];
        let params = ClusterParams {
            topo,
            net: NetConfig::default(),
            mcp: McpTiming::lanai7(),
            flavor: McpFlavor::Itb,
            routing: RoutingPolicy::Itb,
            itb_selection: itb_routing::planner::ItbHostSelection::RoundRobin,
            gm: GmConfig::default(),
            behaviors,
            route_overrides: vec![],
            faults: FaultPlan::default(),
            seed: 11,
        };
        let mut c = Cluster::new(params);
        let mut q = EventQueue::new();
        c.start(&mut q);
        run_until(&mut c, &mut q, SimTime::from_ms(50));
        let mut v: Vec<_> = c
            .messages()
            .iter()
            .enumerate()
            .map(|(id, r)| (id, r.sent_at, r.delivered_at))
            .collect();
        v.sort();
        v
    };
    assert_eq!(run(), run());
}

#[test]
#[should_panic(expected = "ITB routes require the ITB-enabled MCP")]
fn itb_routing_on_original_mcp_is_rejected() {
    let tb = fig6_testbed();
    let params = ClusterParams {
        topo: tb.topo.clone(),
        net: NetConfig::default(),
        mcp: McpTiming::lanai7(),
        flavor: McpFlavor::Original,
        routing: RoutingPolicy::Itb,
        itb_selection: itb_routing::planner::ItbHostSelection::RoundRobin,
        gm: GmConfig::default(),
        behaviors: vec![AppBehavior::Sink; 3],
        route_overrides: vec![],
        faults: FaultPlan::default(),
        seed: 0,
    };
    let _ = Cluster::new(params);
}

#[test]
fn zero_length_message_works() {
    let tb = fig6_testbed();
    let behaviors = vec![
        AppBehavior::Stream {
            dst: tb.host2,
            size: 0,
            count: 1,
        },
        AppBehavior::Sink,
        AppBehavior::Sink,
    ];
    let mut c = Cluster::new(fig6_params(McpFlavor::Original, behaviors));
    let mut q = EventQueue::new();
    c.start(&mut q);
    run_until(&mut c, &mut q, SimTime::from_ms(5));
    assert_eq!(c.delivered_count(), 1);
}

#[test]
fn all_to_all_exchange_completes_exactly() {
    let topo = random_irregular(&IrregularSpec::evaluation_default(4, 6));
    let n = topo.num_hosts();
    let behaviors = vec![
        AppBehavior::AllToAll {
            size: 256,
            gap: SimDuration::from_us(20),
        };
        n
    ];
    let params = ClusterParams {
        topo,
        net: NetConfig::default(),
        mcp: McpTiming::lanai7(),
        flavor: McpFlavor::Itb,
        routing: RoutingPolicy::Itb,
        itb_selection: itb_routing::planner::ItbHostSelection::RoundRobin,
        gm: GmConfig {
            retrans_timeout: SimDuration::from_ms(20),
            ..GmConfig::default()
        },
        behaviors,
        route_overrides: vec![],
        faults: FaultPlan::default(),
        seed: 3,
    };
    let mut c = Cluster::new(params);
    let mut q = EventQueue::new();
    c.start(&mut q);
    run_until(&mut c, &mut q, SimTime::from_ms(100));
    // Every ordered pair exchanged exactly one message.
    assert_eq!(c.messages().len(), n * (n - 1));
    assert_eq!(c.delivered_count(), n * (n - 1));
    let mut pairs: Vec<(u16, u16)> = c.messages().iter().map(|r| (r.src.0, r.dst.0)).collect();
    pairs.sort_unstable();
    pairs.dedup();
    assert_eq!(pairs.len(), n * (n - 1), "no duplicate pair traffic");
}

#[test]
fn send_window_prevents_spurious_retransmissions() {
    // A long back-to-back stream through a healthy network must complete
    // with ZERO retransmissions: the window keeps the timer honest.
    let tb = fig6_testbed();
    let behaviors = vec![
        AppBehavior::Stream {
            dst: tb.host2,
            size: 4096,
            count: 40,
        },
        AppBehavior::Sink,
        AppBehavior::Sink,
    ];
    let mut c = Cluster::new(fig6_params(McpFlavor::Original, behaviors));
    let mut q = EventQueue::new();
    c.start(&mut q);
    run_until(&mut c, &mut q, SimTime::from_ms(100));
    assert_eq!(c.delivered_count(), 40);
    assert_eq!(
        c.host(tb.host1).conn_tx(tb.host2).unwrap().retransmissions,
        0,
        "healthy network must not retransmit"
    );
}

#[test]
fn receive_backpressure_stalls_instead_of_dropping() {
    // Stock overflow policy (no flush): a starved receiver stalls the wire;
    // everything still arrives, with zero flushes and zero retransmissions.
    let tb = fig6_testbed();
    let behaviors = vec![
        AppBehavior::Stream {
            dst: tb.host2,
            size: 2000,
            count: 15,
        },
        AppBehavior::Sink,
        AppBehavior::Sink,
    ];
    let mut p = fig6_params(McpFlavor::Original, behaviors);
    p.mcp.recv_buffers = 1; // starve, but with backpressure (default policy)
    let mut c = Cluster::new(p);
    let mut q = EventQueue::new();
    c.start(&mut q);
    run_until(&mut c, &mut q, SimTime::from_ms(100));
    assert_eq!(c.delivered_count(), 15);
    assert_eq!(c.nic(tb.host2).stats().flushed, 0);
    assert!(c.nic(tb.host2).stats().rx_stalls > 0, "stalls must occur");
    assert_eq!(
        c.host(tb.host1).conn_tx(tb.host2).unwrap().retransmissions,
        0
    );
}

//! End-to-end tests of the wormhole network model: cut-through latency
//! composition, blocking, Stop&Go backpressure, and an *observed* wormhole
//! deadlock that ITB-style segmentation would prevent.

use itb_net::{NetConfig, NetEvent, Network, PacketDesc};
use itb_routing::path::{Hop, SourceRoute};
use itb_routing::wire::{Header, TYPE_GM};
use itb_sim::{EventQueue, SimDuration, SimTime};
use itb_topo::builders::{chain, fig6_testbed, ring};
use itb_topo::{HostId, PortKind, SwitchId};

/// Drive the network until the event queue drains or `limit` events fire.
fn run(net: &mut Network, q: &mut EventQueue<NetEvent>, limit: u64) -> u64 {
    let mut n = 0;
    while let Some((t, ev)) = q.pop() {
        net.handle(t, ev, q);
        n += 1;
        if n >= limit {
            break;
        }
    }
    n
}

fn desc_for(route: &SourceRoute, payload: u32, tag: u64) -> PacketDesc {
    PacketDesc {
        header: Header::encode(route),
        payload_len: payload,
        tag,
        src: route.src,
    }
}

/// Collect (host, packet, kind) deliveries from indications.
#[derive(Default)]
struct Deliveries {
    heads: Vec<(HostId, itb_net::PacketId, SimTime)>,
    completes: Vec<(HostId, itb_net::PacketId, u32, SimTime)>,
    inds: Vec<itb_net::HostIndication>,
}

fn drain(net: &mut Network, now: SimTime, d: &mut Deliveries) {
    net.drain_indications_into(&mut d.inds);
    for &ind in &d.inds {
        match ind {
            itb_net::HostIndication::HeadArrived { host, packet } => {
                d.heads.push((host, packet, now))
            }
            itb_net::HostIndication::PacketComplete {
                host,
                packet,
                received,
            } => d.completes.push((host, packet, received, now)),
            _ => {}
        }
    }
}

/// Per-link `[fwd_bytes, rev_bytes, fwd_blocked_ns, rev_blocked_ns]`, read
/// through the same path the metrics sampler uses.
fn link_loads(net: &Network) -> Vec<[u64; 4]> {
    let mut loads = Vec::new();
    net.fill_link_loads(&mut loads);
    loads
}

/// Nanoseconds all channels spent STOP-paused, summed.
fn blocked_ns(net: &Network) -> u64 {
    link_loads(net).iter().map(|l| l[2] + l[3]).sum()
}

/// Run to completion, draining indications after every event so timestamps
/// are exact.
fn run_collect(net: &mut Network, q: &mut EventQueue<NetEvent>, limit: u64) -> Deliveries {
    let mut d = Deliveries::default();
    let mut n = 0;
    while let Some((t, ev)) = q.pop() {
        net.handle(t, ev, q);
        drain(net, t, &mut d);
        n += 1;
        if n >= limit {
            break;
        }
    }
    d
}

#[test]
fn single_hop_delivery_and_latency_composition() {
    // chain(2,1): h0 at sw0, h1 at sw1.
    let topo = chain(2, 1);
    let cfg = NetConfig::default();
    let mut net = Network::new(topo, cfg);
    let mut q = EventQueue::new();

    let route = SourceRoute::direct(
        HostId(0),
        HostId(1),
        vec![Hop::new(SwitchId(0), 1), Hop::new(SwitchId(1), 2)],
    );
    let payload = 64;
    let desc = desc_for(&route, payload, 0xAB);
    let wire0 = desc.header.len() as u32 + payload + 1;
    let id = net.inject(HostId(0), desc, wire0, SimTime::ZERO, &mut q);

    let d = run_collect(&mut net, &mut q, 100_000);
    assert_eq!(d.completes.len(), 1);
    let (host, pkt, received, t_done) = d.completes[0];
    assert_eq!(host, HostId(1));
    assert_eq!(pkt, id);
    // Two switches each strip one route byte.
    assert_eq!(received, wire0 - 2);
    // Destination NIC sees the GM type in front.
    assert_eq!(net.packet_type(id), Some(TYPE_GM));
    let st = net.retire(id);
    assert_eq!(st.desc.tag, 0xAB);

    // Latency sanity: must exceed pure serialization (wire0 bytes at link
    // rate) and be well under 2x that plus overheads.
    let ser = cfg.link_bw.transfer_time(u64::from(wire0));
    let total = t_done - SimTime::ZERO;
    assert!(total > ser, "total {total} vs serialization {ser}");
    assert!(
        total < ser * 2 + SimDuration::from_us(2),
        "latency implausibly large: {total}"
    );
}

#[test]
fn head_arrives_before_tail_cut_through() {
    // Long payload: head indication must arrive much earlier than complete.
    let topo = chain(2, 1);
    let mut net = Network::new(topo, NetConfig::default());
    let mut q = EventQueue::new();
    let route = SourceRoute::direct(
        HostId(0),
        HostId(1),
        vec![Hop::new(SwitchId(0), 1), Hop::new(SwitchId(1), 2)],
    );
    let payload = 4096;
    let desc = desc_for(&route, payload, 1);
    let wire = desc.header.len() as u32 + payload + 1;
    net.inject(HostId(0), desc, wire, SimTime::ZERO, &mut q);
    let d = run_collect(&mut net, &mut q, 1_000_000);
    assert_eq!(d.heads.len(), 1);
    assert_eq!(d.completes.len(), 1);
    let head_t = d.heads[0].2;
    let done_t = d.completes[0].3;
    let stream = done_t - head_t;
    // The remaining bytes stream at link rate after the head: ≈ wire * 6.25ns.
    let expect = NetConfig::default()
        .link_bw
        .transfer_time(u64::from(payload));
    assert!(
        stream > expect / 2 && stream < expect * 2,
        "stream time {stream} vs expected ≈{expect}"
    );
}

#[test]
fn two_packets_same_path_are_serialized() {
    let topo = chain(2, 1);
    let mut net = Network::new(topo, NetConfig::default());
    let mut q = EventQueue::new();
    let route = SourceRoute::direct(
        HostId(0),
        HostId(1),
        vec![Hop::new(SwitchId(0), 1), Hop::new(SwitchId(1), 2)],
    );
    for tag in 0..2 {
        let desc = desc_for(&route, 256, tag);
        let wire = desc.header.len() as u32 + 256 + 1;
        net.inject(HostId(0), desc, wire, SimTime::ZERO, &mut q);
    }
    let d = run_collect(&mut net, &mut q, 1_000_000);
    assert_eq!(d.completes.len(), 2);
    // In order, no interleaving: first complete precedes second head? No —
    // cut-through pipelining lets packet 2 start injecting after packet 1's
    // tail leaves the host, so completes are ordered and distinct.
    assert!(d.completes[0].3 <= d.completes[1].3);
    let p0 = net.retire(d.completes[0].1);
    let p1 = net.retire(d.completes[1].1);
    assert_eq!(p0.desc.tag, 0);
    assert_eq!(p1.desc.tag, 1);
}

#[test]
fn crossing_worms_contend_for_output_port() {
    // chain(3,2): two hosts per switch. Hosts at sw0 (h0, h1) both send to
    // hosts at sw2 (h4, h5): the sw0->sw1 link serializes them.
    let topo = chain(3, 2);
    let mut net = Network::new(topo, NetConfig::default());
    let mut q = EventQueue::new();
    // chain ports: 0 = left, 1 = right, 2..3 hosts.
    let r0 = SourceRoute::direct(
        HostId(0),
        HostId(4),
        vec![
            Hop::new(SwitchId(0), 1),
            Hop::new(SwitchId(1), 1),
            Hop::new(SwitchId(2), 2),
        ],
    );
    let r1 = SourceRoute::direct(
        HostId(1),
        HostId(5),
        vec![
            Hop::new(SwitchId(0), 1),
            Hop::new(SwitchId(1), 1),
            Hop::new(SwitchId(2), 3),
        ],
    );
    assert!(r0.is_well_formed(net.topology()));
    assert!(r1.is_well_formed(net.topology()));
    let payload = 2048;
    let d0 = desc_for(&r0, payload, 0);
    let w0 = d0.header.len() as u32 + payload + 1;
    let d1 = desc_for(&r1, payload, 1);
    let w1 = d1.header.len() as u32 + payload + 1;
    net.inject(HostId(0), d0, w0, SimTime::ZERO, &mut q);
    net.inject(HostId(1), d1, w1, SimTime::ZERO, &mut q);
    let d = run_collect(&mut net, &mut q, 10_000_000);
    assert_eq!(d.completes.len(), 2, "both worms eventually deliver");
    // The second delivery is roughly one serialization later than the first
    // (they share the sw0->sw1 and sw1->sw2 channels).
    let gap = d.completes[1].3 - d.completes[0].3;
    let ser = NetConfig::default()
        .link_bw
        .transfer_time(u64::from(payload));
    assert!(
        gap > ser / 2,
        "second worm should be delayed by contention (gap {gap}, ser {ser})"
    );
    assert!(blocked_ns(&net) > 0, "Stop&Go must engage");
}

#[test]
fn blocked_worm_backpressures_via_stop_and_go() {
    // Same contention scenario but verify slack buffers never exceed the
    // configured capacity (the debug_assert in on_rx_flit also guards this).
    let topo = chain(3, 2);
    let cfg = NetConfig::default();
    let mut net = Network::new(topo, cfg);
    let mut q = EventQueue::new();
    let mk = |src: u16, dst_port: u8, dst: u16| {
        SourceRoute::direct(
            HostId(src),
            HostId(dst),
            vec![
                Hop::new(SwitchId(0), 1),
                Hop::new(SwitchId(1), 1),
                Hop::new(SwitchId(2), dst_port),
            ],
        )
    };
    // Both aim at the SAME destination host so the final link serializes:
    // the later worm blocks mid-network and must hold in slack buffers.
    let r0 = mk(0, 2, 4);
    let r1 = mk(1, 2, 4);
    for (r, tag) in [(&r0, 0u64), (&r1, 1)] {
        let d = desc_for(r, 8192, tag);
        let w = d.header.len() as u32 + 8192 + 1;
        net.inject(HostId(tag as u16), d, w, SimTime::ZERO, &mut q);
    }
    let d = run_collect(&mut net, &mut q, 50_000_000);
    assert_eq!(d.completes.len(), 2);
    assert!(blocked_ns(&net) > 10_000);
}

#[test]
fn wormhole_deadlock_is_observable_with_cyclic_routes() {
    // The classic 4-ring cycle: each host sends two hops clockwise. With
    // long packets every worm holds its first link while waiting for the
    // next, and the network wedges — exactly the deadlock up*/down* (and
    // ITB segmentation) exists to prevent.
    let topo = ring(4, 1);
    let mut net = Network::new(topo, NetConfig::default());
    let mut q = EventQueue::new();
    let mk = |a: u16| {
        let b = (a + 2) % 4;
        let mut hops = Vec::new();
        let mut s = a;
        while s != b {
            hops.push(Hop::new(SwitchId(s), 1));
            s = (s + 1) % 4;
        }
        hops.push(Hop::new(SwitchId(b), 2));
        SourceRoute::direct(HostId(a), HostId(b), hops)
    };
    for a in 0..4u16 {
        let r = mk(a);
        assert!(r.is_well_formed(net.topology()));
        let d = desc_for(&r, 16384, u64::from(a));
        let w = d.header.len() as u32 + 16384 + 1;
        net.inject(HostId(a), d, w, SimTime::ZERO, &mut q);
    }
    let d = run_collect(&mut net, &mut q, 100_000_000);
    // The queue drained (no livelock) but nothing was delivered: deadlock.
    assert!(q.is_empty(), "event queue should drain on deadlock");
    assert_eq!(d.completes.len(), 0, "cyclic worms must deadlock");
    assert_eq!(net.parked_packets().len(), 4);
}

#[test]
fn fig6_ud_five_crossing_route_delivers() {
    let tb = fig6_testbed();
    let route = itb_routing::figures::fig8_ud_route(&tb);
    let mut net = Network::new(tb.topo.clone(), NetConfig::default());
    let mut q = EventQueue::new();
    let desc = desc_for(&route, 128, 9);
    let w = desc.header.len() as u32 + 128 + 1;
    net.inject(tb.host1, desc, w, SimTime::ZERO, &mut q);
    let d = run_collect(&mut net, &mut q, 10_000_000);
    assert_eq!(d.completes.len(), 1);
    assert_eq!(d.completes[0].0, tb.host2);
    assert_eq!(d.completes[0].2, w - 5, "five switch crossings");
}

#[test]
fn streaming_injection_waits_for_availability() {
    // Inject with zero available bytes; nothing moves until extended.
    let topo = chain(2, 1);
    let mut net = Network::new(topo, NetConfig::default());
    let mut q = EventQueue::new();
    let route = SourceRoute::direct(
        HostId(0),
        HostId(1),
        vec![Hop::new(SwitchId(0), 1), Hop::new(SwitchId(1), 2)],
    );
    let desc = desc_for(&route, 100, 3);
    let w = desc.header.len() as u32 + 100 + 1;
    let id = net.inject(HostId(0), desc, 0, SimTime::ZERO, &mut q);
    assert!(q.is_empty(), "no bytes available, no events");
    // Release everything at t = 1us.
    net.extend_available(HostId(0), id, w, SimTime::from_us(1), &mut q);
    // Manually bump queue clock by scheduling from t=1us — extend_available
    // already scheduled TxDone events at >= 1us.
    let d = run_collect(&mut net, &mut q, 1_000_000);
    assert_eq!(d.completes.len(), 1);
    assert!(d.completes[0].3 >= SimTime::from_us(1));
}

#[test]
fn lan_ports_cost_more_fall_through() {
    // Same 2-crossing shape through SAN-SAN vs LAN-involved ports on the
    // fig6 testbed: host1 (LAN NIC) -> host2 (SAN) vs itb_host (LAN) path.
    // Simpler: compare fig6 h1->h2 (LAN in, SAN exits) against a pure-SAN
    // chain of the same crossing count and cable delays; the LAN path must
    // be slower.
    let tb = fig6_testbed();
    let route = itb_routing::figures::fig7_route(&tb);
    let mut net = Network::new(tb.topo.clone(), NetConfig::default());
    let mut q = EventQueue::new();
    let desc = desc_for(&route, 32, 1);
    let w = desc.header.len() as u32 + 32 + 1;
    net.inject(tb.host1, desc, w, SimTime::ZERO, &mut q);
    let d = run_collect(&mut net, &mut q, 100_000);
    let lan_t = d.completes[0].3;

    let topo2 = chain(2, 1); // all-SAN, same 2 crossings
    let mut net2 = Network::new(topo2, NetConfig::default());
    let mut q2 = EventQueue::new();
    let route2 = SourceRoute::direct(
        HostId(0),
        HostId(1),
        vec![Hop::new(SwitchId(0), 1), Hop::new(SwitchId(1), 2)],
    );
    let desc2 = desc_for(&route2, 32, 1);
    let w2 = desc2.header.len() as u32 + 32 + 1;
    net2.inject(HostId(0), desc2, w2, SimTime::ZERO, &mut q2);
    let d2 = run_collect(&mut net2, &mut q2, 100_000);
    let san_t = d2.completes[0].3;
    assert!(
        lan_t > san_t,
        "LAN-involved path ({lan_t}) should exceed all-SAN path ({san_t})"
    );
}

#[test]
fn injection_complete_indication_fires() {
    let topo = chain(2, 1);
    let mut net = Network::new(topo, NetConfig::default());
    let mut q = EventQueue::new();
    let route = SourceRoute::direct(
        HostId(0),
        HostId(1),
        vec![Hop::new(SwitchId(0), 1), Hop::new(SwitchId(1), 2)],
    );
    let desc = desc_for(&route, 64, 5);
    let w = desc.header.len() as u32 + 64 + 1;
    let id = net.inject(HostId(0), desc, w, SimTime::ZERO, &mut q);
    assert!(net.host_tx_busy(HostId(0)));
    let mut saw_injection_complete = false;
    let mut inds = Vec::new();
    while let Some((t, ev)) = q.pop() {
        net.handle(t, ev, &mut q);
        net.drain_indications_into(&mut inds);
        for &ind in &inds {
            if let itb_net::HostIndication::InjectionComplete { host, packet } = ind {
                assert_eq!(host, HostId(0));
                assert_eq!(packet, id);
                saw_injection_complete = true;
                assert!(!net.host_tx_busy(HostId(0)));
            }
        }
    }
    assert!(saw_injection_complete);
}

#[test]
fn deterministic_under_identical_seeds() {
    // Two identical runs produce identical delivery timestamps.
    let mk_run = || {
        let topo = chain(3, 2);
        let mut net = Network::new(topo, NetConfig::default());
        let mut q = EventQueue::new();
        for (src, dst, port) in [(0u16, 4u16, 2u8), (1, 5, 3), (2, 0, 2)] {
            let hops = if src < 2 {
                vec![
                    Hop::new(SwitchId(0), 1),
                    Hop::new(SwitchId(1), 1),
                    Hop::new(SwitchId(2), port),
                ]
            } else {
                vec![Hop::new(SwitchId(1), 0), Hop::new(SwitchId(0), 2)]
            };
            let r = SourceRoute::direct(HostId(src), HostId(dst), hops);
            let d = desc_for(&r, 512, u64::from(src));
            let w = d.header.len() as u32 + 512 + 1;
            net.inject(HostId(src), d, w, SimTime::ZERO, &mut q);
        }
        run_collect(&mut net, &mut q, 10_000_000)
            .completes
            .iter()
            .map(|&(h, p, r, t)| (h, p, r, t))
            .collect::<Vec<_>>()
    };
    assert_eq!(mk_run(), mk_run());
}

#[test]
fn self_loop_cable_roundtrip() {
    // Route through the fig6 loop cable: out port 4 of sw1, back in port 5.
    let tb = fig6_testbed();
    let (_, h2_port) = tb.topo.host_attachment(tb.host2);
    let route = SourceRoute::direct(
        tb.host1,
        tb.host2,
        vec![
            Hop::new(tb.sw0, 0), // cable A to sw1
            Hop {
                switch: tb.sw1,
                out_port: tb
                    .topo
                    .link(tb.loop_cable)
                    .a
                    .port
                    .min(tb.topo.link(tb.loop_cable).b.port),
            },
            Hop {
                switch: tb.sw1,
                out_port: h2_port,
            },
        ],
    );
    assert!(route.is_well_formed(&tb.topo));
    let mut net = Network::new(tb.topo.clone(), NetConfig::default());
    let mut q = EventQueue::new();
    let desc = desc_for(&route, 64, 7);
    let w = desc.header.len() as u32 + 64 + 1;
    net.inject(tb.host1, desc, w, SimTime::ZERO, &mut q);
    let d = run_collect(&mut net, &mut q, 1_000_000);
    assert_eq!(d.completes.len(), 1);
    assert_eq!(d.completes[0].2, w - 3, "three switch crossings");
}

#[test]
fn port_kind_symmetric_paths_have_equal_latency() {
    // The two fig8 paths must cost the same through switches/links alone
    // (no NIC model here): the ITB path parked at the in-transit host is
    // not comparable end to end, but the UD path run twice must be stable,
    // and the port-kind profile equality is asserted in itb-routing. Here
    // we simply pin the UD 5-crossing latency for regression.
    let tb = fig6_testbed();
    let route = itb_routing::figures::fig8_ud_route(&tb);
    let once = || {
        let mut net = Network::new(tb.topo.clone(), NetConfig::default());
        let mut q = EventQueue::new();
        let desc = desc_for(&route, 0, 1);
        let w = desc.header.len() as u32 + 1;
        net.inject(tb.host1, desc, w, SimTime::ZERO, &mut q);
        run_collect(&mut net, &mut q, 100_000).completes[0].3
    };
    assert_eq!(once(), once());
}

#[test]
fn port_kinds_exist_in_testbed() {
    let tb = fig6_testbed();
    assert_eq!(tb.topo.host_nic_kind(tb.host1), PortKind::Lan);
}

#[test]
fn round_robin_arbitration_delivers_all() {
    // Same contention scenario as the FIFO test, under round-robin: all
    // worms deliver, determinism preserved.
    let topo = chain(3, 2);
    let cfg = NetConfig {
        arbitration: itb_net::config::Arbitration::RoundRobin,
        ..NetConfig::default()
    };
    let run = |cfg: NetConfig| {
        let mut net = Network::new(chain(3, 2), cfg);
        let mut q = EventQueue::new();
        for (src, port, tag) in [(0u16, 2u8, 0u64), (1, 3, 1)] {
            let r = SourceRoute::direct(
                HostId(src),
                HostId(4 + src),
                vec![
                    Hop::new(SwitchId(0), 1),
                    Hop::new(SwitchId(1), 1),
                    Hop::new(SwitchId(2), port),
                ],
            );
            let d = desc_for(&r, 2048, tag);
            let w = d.header.len() as u32 + 2048 + 1;
            net.inject(HostId(src), d, w, SimTime::ZERO, &mut q);
        }
        run_collect(&mut net, &mut q, 10_000_000).completes.len()
    };
    let _ = topo;
    assert_eq!(run(cfg), 2);
    assert_eq!(run(cfg), 2, "deterministic under round-robin too");
}

#[test]
fn host_rx_pause_stalls_and_resumes_delivery() {
    // Pause the receiving host's channel mid-stream: the packet stalls
    // (backpressure absorbs in slack buffers), then resumes on unpause.
    let topo = chain(2, 1);
    let mut net = Network::new(topo, NetConfig::default());
    let mut q = EventQueue::new();
    let route = SourceRoute::direct(
        HostId(0),
        HostId(1),
        vec![Hop::new(SwitchId(0), 1), Hop::new(SwitchId(1), 2)],
    );
    let payload = 512;
    let desc = desc_for(&route, payload, 1);
    let w = desc.header.len() as u32 + payload + 1;
    net.inject(HostId(0), desc, w, SimTime::ZERO, &mut q);
    // Pause immediately; run 50 us; nothing may complete.
    net.set_host_rx_paused(HostId(1), true, SimTime::ZERO, &mut q);
    let mut d = Deliveries::default();
    while let Some(t) = q.peek_time() {
        if t > SimTime::from_us(50) {
            break;
        }
        let (now, ev) = q.pop().unwrap();
        net.handle(now, ev, &mut q);
        drain(&mut net, now, &mut d);
    }
    assert!(
        d.completes.is_empty(),
        "paused host must not complete reception"
    );
    // Resume; the packet lands.
    net.set_host_rx_paused(HostId(1), false, SimTime::from_us(50), &mut q);
    while let Some((now, ev)) = q.pop() {
        net.handle(now, ev, &mut q);
        drain(&mut net, now, &mut d);
    }
    assert_eq!(d.completes.len(), 1);
    assert!(d.completes[0].3 > SimTime::from_us(50));
}

#[test]
fn link_bytes_account_for_traffic() {
    let topo = chain(2, 1);
    let mut net = Network::new(topo, NetConfig::default());
    let mut q = EventQueue::new();
    let route = SourceRoute::direct(
        HostId(0),
        HostId(1),
        vec![Hop::new(SwitchId(0), 1), Hop::new(SwitchId(1), 2)],
    );
    let desc = desc_for(&route, 100, 1);
    let w = desc.header.len() as u32 + 100 + 1;
    net.inject(HostId(0), desc, w, SimTime::ZERO, &mut q);
    run(&mut net, &mut q, 1_000_000);
    let per_link = link_loads(&net);
    // chain(2,1): link0 = sw0-sw1, link1 = h0 uplink, link2 = h1 uplink.
    let total_fwd: u64 = per_link.iter().map(|l| l[0] + l[1]).sum();
    // Wire bytes shrink by one per switch: w + (w-1) + (w-2).
    assert_eq!(
        total_fwd,
        u64::from(w) + u64::from(w - 1) + u64::from(w - 2)
    );
}

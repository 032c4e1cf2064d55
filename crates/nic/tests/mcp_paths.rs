//! NIC + network integration: send path, receive path, and the ITB
//! ejection/re-injection path of the modified MCP.

use itb_net::{NetConfig, NetEvent, NetSched, Network, PacketDesc};
use itb_nic::{McpFlavor, McpTiming, Nic, NicEvent, NicOutput, NicSched};
use itb_routing::figures;
use itb_routing::wire::Header;
use itb_sim::{EventQueue, SimTime};
use itb_topo::builders::fig6_testbed;
use itb_topo::HostId;

/// Union event for this two-layer world.
#[derive(Debug, Clone, Copy)]
enum Ev {
    Net(NetEvent),
    Nic(NicEvent),
}

/// Queue adapter implementing both scheduling traits.
struct Sink<'a>(&'a mut EventQueue<Ev>);

impl NetSched for Sink<'_> {
    fn at(&mut self, t: SimTime, ev: NetEvent) {
        self.0.schedule(t, Ev::Net(ev));
    }
}
impl NicSched for Sink<'_> {
    fn nic_at(&mut self, t: SimTime, ev: NicEvent) {
        self.0.schedule(t, Ev::Nic(ev));
    }
}

struct World {
    net: Network,
    nics: Vec<Nic>,
    outputs: Vec<NicOutput>,
    output_times: Vec<SimTime>,
}

impl World {
    fn new(topo: itb_topo::Topology, flavor: McpFlavor) -> Self {
        let n = topo.num_hosts();
        let nics = (0..n as u16)
            .map(|h| Nic::new(HostId(h), flavor, McpTiming::lanai7()))
            .collect();
        World {
            net: Network::new(topo, NetConfig::default()),
            nics,
            outputs: Vec::new(),
            output_times: Vec::new(),
        }
    }

    fn drain_nic_outputs(&mut self, now: SimTime) {
        for nic in &mut self.nics {
            nic.drain_outputs_into(&mut self.outputs);
        }
        self.output_times.resize(self.outputs.len(), now);
    }

    fn pump_indications(&mut self, now: SimTime, q: &mut EventQueue<Ev>) {
        // Indications may cascade (a NIC action produces more indications),
        // so loop to a fixed point.
        let mut inds = Vec::new();
        loop {
            self.net.drain_indications_into(&mut inds);
            if inds.is_empty() {
                break;
            }
            for &ind in &inds {
                let host = match ind {
                    itb_net::HostIndication::HeadArrived { host, .. }
                    | itb_net::HostIndication::BytesArrived { host, .. }
                    | itb_net::HostIndication::PacketComplete { host, .. }
                    | itb_net::HostIndication::InjectionComplete { host, .. } => host,
                };
                let mut sink = Sink(q);
                self.nics[host.idx()].on_indication(ind, now, &mut self.net, &mut sink);
            }
        }
        self.drain_nic_outputs(now);
    }

    fn run(&mut self, q: &mut EventQueue<Ev>, limit: u64) {
        let mut n = 0;
        while let Some((t, ev)) = q.pop() {
            match ev {
                Ev::Net(e) => {
                    let mut sink = Sink(q);
                    self.net.handle(t, e, &mut sink);
                }
                Ev::Nic(e) => {
                    let host = match e {
                        NicEvent::Cpu { host, .. } | NicEvent::Dma { host, .. } => host,
                    };
                    let mut sink = Sink(q);
                    self.nics[host.idx()].handle(t, e, &mut self.net, &mut sink);
                }
            }
            self.pump_indications(t, q);
            n += 1;
            assert!(n < limit, "runaway simulation");
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn submit(
        &mut self,
        host: HostId,
        token: u64,
        route: &itb_routing::SourceRoute,
        payload: u32,
        tag: u64,
        now: SimTime,
        q: &mut EventQueue<Ev>,
    ) {
        let desc = PacketDesc {
            header: Header::encode(route),
            payload_len: payload,
            tag,
            src: route.src,
        };
        let mut sink = Sink(q);
        self.nics[host.idx()].submit_send(token, desc, now, &mut self.net, &mut sink);
    }
}

fn recv_completes(w: &World) -> Vec<(HostId, u64, u32, SimTime)> {
    w.outputs
        .iter()
        .zip(&w.output_times)
        .filter_map(|(o, &t)| match o {
            NicOutput::RecvComplete {
                host,
                desc,
                received,
                ..
            } => Some((*host, desc.tag, *received, t)),
            _ => None,
        })
        .collect()
}

#[test]
fn plain_send_receive_original_mcp() {
    let tb = fig6_testbed();
    let mut w = World::new(tb.topo.clone(), McpFlavor::Original);
    let mut q = EventQueue::new();
    let route = figures::fig7_route(&tb);
    w.submit(tb.host1, 1, &route, 256, 0xFEED, SimTime::ZERO, &mut q);
    w.run(&mut q, 1_000_000);

    let recvs = recv_completes(&w);
    assert_eq!(recvs.len(), 1);
    let (host, tag, received, _) = recvs[0];
    assert_eq!(host, tb.host2);
    assert_eq!(tag, 0xFEED);
    // Wire: 4-byte header (2 route + 2 type) + 256 + CRC − 2 route bytes.
    assert_eq!(received, 4 + 256 + 1 - 2);
    // Send completion fired too.
    assert!(w
        .outputs
        .iter()
        .any(|o| matches!(o, NicOutput::SendComplete { token: 1, .. })));
    assert_eq!(w.net.in_flight(), 0, "packet retired");
}

#[test]
fn itb_mcp_delivers_plain_packets_identically_but_slower_by_support_overhead() {
    let tb = fig6_testbed();
    let route = figures::fig7_route(&tb);
    let run = |flavor: McpFlavor| {
        let mut w = World::new(tb.topo.clone(), flavor);
        let mut q = EventQueue::new();
        w.submit(tb.host1, 1, &route, 512, 7, SimTime::ZERO, &mut q);
        w.run(&mut q, 1_000_000);
        recv_completes(&w)[0].3
    };
    let orig = run(McpFlavor::Original);
    let itb = run(McpFlavor::Itb);
    assert!(itb > orig, "ITB support code must cost something");
    let overhead = (itb - orig).as_ns_f64();
    // Figure 7: ≈125 ns average, ≤300 ns.
    assert!(
        (50.0..=350.0).contains(&overhead),
        "support overhead {overhead} ns out of the paper's band"
    );
}

#[test]
fn itb_forward_path_works_end_to_end() {
    let tb = fig6_testbed();
    let mut w = World::new(tb.topo.clone(), McpFlavor::Itb);
    let mut q = EventQueue::new();
    let route = figures::fig8_itb_route(&tb);
    w.submit(tb.host1, 1, &route, 1024, 0xCAFE, SimTime::ZERO, &mut q);
    w.run(&mut q, 10_000_000);

    let recvs = recv_completes(&w);
    assert_eq!(recvs.len(), 1, "outputs: {:?}", w.outputs);
    let (host, tag, _, _) = recvs[0];
    assert_eq!(host, tb.host2, "final destination, not the in-transit host");
    assert_eq!(tag, 0xCAFE);
    // The in-transit NIC detected and forwarded exactly one ITB packet.
    let itb_nic = &w.nics[tb.itb_host.idx()];
    assert_eq!(itb_nic.stats().itb_detects, 1);
    assert_eq!(itb_nic.stats().itb_forwards, 1);
    assert_eq!(itb_nic.stats().early_recv_events, 1);
    assert_eq!(itb_nic.stats().recvs, 0, "nothing delivered to its host");
    // The destination NIC saw an early-recv event but no ITB.
    let dst = &w.nics[tb.host2.idx()];
    assert_eq!(dst.stats().itb_detects, 0);
    assert_eq!(dst.stats().recvs, 1);
    assert_eq!(w.net.stats().reinjected, 1);
    assert_eq!(w.net.in_flight(), 0);
}

#[test]
fn fig8_itb_overhead_is_about_1_3_us() {
    // End-to-end latency difference between the two 5-crossing paths —
    // the quantity Figure 8 plots (per direction).
    let tb = fig6_testbed();
    let run = |route: &itb_routing::SourceRoute, payload: u32| {
        let mut w = World::new(tb.topo.clone(), McpFlavor::Itb);
        let mut q = EventQueue::new();
        w.submit(tb.host1, 1, route, payload, 1, SimTime::ZERO, &mut q);
        w.run(&mut q, 10_000_000);
        recv_completes(&w)[0].3
    };
    for payload in [8u32, 128, 1024, 4096] {
        let ud = run(&figures::fig8_ud_route(&tb), payload);
        let itb = run(&figures::fig8_itb_route(&tb), payload);
        let overhead_us = (itb - ud).as_us_f64();
        assert!(
            (0.9..=1.7).contains(&overhead_us),
            "payload {payload}: per-ITB overhead {overhead_us} us (paper: ≈1.3)"
        );
    }
}

#[test]
fn itb_pending_flag_defers_forward_until_send_frees() {
    // Make the in-transit host's send DMA busy with its own large send when
    // the ITB packet arrives; the forward must wait and still complete.
    let tb = fig6_testbed();
    let mut w = World::new(tb.topo.clone(), McpFlavor::Itb);
    let mut q = EventQueue::new();
    // The in-transit host sends a big message to host2 first (occupying its
    // send DMA for a long time). Route it over cable B so it does not block
    // the incoming ITB packet (whose first segment uses cable A).
    let (_, h2_port) = tb.topo.host_attachment(tb.host2);
    let own_route = itb_routing::SourceRoute::direct(
        tb.itb_host,
        tb.host2,
        vec![
            itb_routing::Hop {
                switch: tb.sw0,
                out_port: tb.topo.out_port(tb.sw0, tb.cable_b),
            },
            itb_routing::Hop {
                switch: tb.sw1,
                out_port: h2_port,
            },
        ],
    );
    assert!(own_route.is_well_formed(&tb.topo));
    w.submit(tb.itb_host, 1, &own_route, 60_000, 1, SimTime::ZERO, &mut q);
    // host1's ITB-routed packet must arrive while that send is *streaming*
    // (injection starts only after SDMA staging, ≈ 240 us for 60 KB, and
    // lasts ≈ 375 us at link rate), so submit it at 300 us.
    let route = figures::fig8_itb_route(&tb);
    w.submit(tb.host1, 2, &route, 64, 2, SimTime::from_us(300), &mut q);
    w.run(&mut q, 50_000_000);

    let recvs = recv_completes(&w);
    assert_eq!(recvs.len(), 2, "both messages delivered");
    let itb_nic = &w.nics[tb.itb_host.idx()];
    assert_eq!(itb_nic.stats().itb_detects, 1);
    assert_eq!(itb_nic.stats().itb_forwards, 1);
    assert_eq!(
        itb_nic.stats().itb_pending_serviced,
        1,
        "forward must have gone through the pending flag"
    );
}

#[test]
fn recv_buffer_exhaustion_flushes() {
    // Give the receiving NIC 1 recv buffer and stall its drain by sending
    // two packets back to back; with the tiny buffer pool the second head
    // arriving while the first still drains must be flushed.
    let tb = fig6_testbed();
    let mut timing = McpTiming::lanai7();
    timing.recv_buffers = 1;
    timing.flush_on_overflow = true;
    let mut w = World::new(tb.topo.clone(), McpFlavor::Itb);
    w.nics[tb.host2.idx()] = Nic::new(tb.host2, McpFlavor::Itb, timing);
    let mut q = EventQueue::new();
    let route = figures::fig7_route(&tb);
    // Two sizeable packets back to back.
    w.submit(tb.host1, 1, &route, 4096, 1, SimTime::ZERO, &mut q);
    w.submit(tb.host1, 2, &route, 4096, 2, SimTime::ZERO, &mut q);
    w.run(&mut q, 50_000_000);

    let flushed = w
        .outputs
        .iter()
        .filter(|o| matches!(o, NicOutput::Flushed { .. }))
        .count();
    let recvd = recv_completes(&w).len();
    assert_eq!(flushed + recvd, 2, "every packet accounted for");
    assert!(flushed >= 1, "one packet should have been flushed");
    // Flushed packets must not leak registry entries... the flushing NIC
    // discards silently; the registry entry is retired on flush completion.
}

#[test]
fn two_buffer_pool_suffices_for_pingpong_spacing() {
    // With stock 2 buffers, the same two-packet burst is NOT flushed.
    let tb = fig6_testbed();
    let mut w = World::new(tb.topo.clone(), McpFlavor::Itb);
    let mut q = EventQueue::new();
    let route = figures::fig7_route(&tb);
    w.submit(tb.host1, 1, &route, 4096, 1, SimTime::ZERO, &mut q);
    w.submit(tb.host1, 2, &route, 4096, 2, SimTime::ZERO, &mut q);
    w.run(&mut q, 50_000_000);
    assert_eq!(recv_completes(&w).len(), 2);
    assert_eq!(w.nics[tb.host2.idx()].stats().flushed, 0);
}

#[test]
fn cut_through_forward_starts_before_full_reception() {
    // For a large packet, the ITB path's end-to-end latency must be far
    // below store-and-forward (which would add a full serialization).
    let tb = fig6_testbed();
    let payload = 16_384u32;
    let run = |route: &itb_routing::SourceRoute| {
        let mut w = World::new(tb.topo.clone(), McpFlavor::Itb);
        let mut q = EventQueue::new();
        w.submit(tb.host1, 1, route, payload, 1, SimTime::ZERO, &mut q);
        w.run(&mut q, 50_000_000);
        recv_completes(&w)[0].3
    };
    let ud = run(&figures::fig8_ud_route(&tb));
    let itb = run(&figures::fig8_itb_route(&tb));
    let extra = (itb - ud).as_us_f64();
    // Store-and-forward would add ≈ payload * 6.25 ns ≈ 102 us; virtual
    // cut-through keeps it near the constant ≈1.3 us.
    assert!(
        extra < 10.0,
        "forward not cut-through: {extra} us extra for 16 KiB"
    );
}

#[test]
fn trace_records_causal_order_of_itb_forward() {
    // Enable the shared lifecycle tracer and verify the paper's event
    // sequence at the in-transit host: Early Recv fires, the ITB is
    // detected, the send DMA is reprogrammed (re-injection), and no normal
    // recv-finish ever runs there for the forwarded packet.
    use itb_obs::Stage;
    let tb = fig6_testbed();
    let mut w = World::new(tb.topo.clone(), McpFlavor::Itb);
    w.net.tracer_mut().enable();
    let mut q = EventQueue::new();
    let route = figures::fig8_itb_route(&tb);
    w.submit(tb.host1, 1, &route, 512, 1, SimTime::ZERO, &mut q);
    w.run(&mut q, 10_000_000);

    let trace = w.net.tracer();
    let at_itb = |stage: Stage| {
        trace
            .events()
            .iter()
            .find(|e| e.stage == stage && e.node == u32::from(tb.itb_host.0))
            .copied()
    };
    let early = at_itb(Stage::McpEarlyRecv).expect("early recv traced");
    let detect = at_itb(Stage::McpItbDetect).expect("detect traced");
    let forward = at_itb(Stage::McpItbForward).expect("forward traced");
    let reinject = at_itb(Stage::NetReinject).expect("reinject traced");
    assert!(early.t <= detect.t, "early recv precedes detection");
    assert!(detect.t < forward.t, "detection precedes DMA reprogramming");
    assert!(
        forward.t < reinject.t,
        "reprogramming precedes re-injection"
    );
    // Detection-to-reinjection = program + dma_start.
    let t = McpTiming::lanai7();
    let gap = reinject.t.saturating_since(detect.t).as_ns_f64();
    let expect = t.cycles(t.itb_program_cycles).as_ns_f64() + t.dma_start.as_ns_f64();
    assert!(
        (gap - expect).abs() < 1.0,
        "forward gap {gap} ns vs calibrated {expect} ns"
    );
    assert!(
        at_itb(Stage::McpRecvFinish).is_none(),
        "forwarded packets must not take the normal receive path"
    );
    // The destination host, by contrast, does run the receive path.
    assert!(trace
        .events()
        .iter()
        .any(|e| e.stage == Stage::McpRecvFinish && e.node == u32::from(tb.host2.0)));
}

#[test]
fn trace_disabled_by_default_and_costs_nothing() {
    let tb = fig6_testbed();
    let mut w = World::new(tb.topo.clone(), McpFlavor::Itb);
    let mut q = EventQueue::new();
    w.submit(
        tb.host1,
        1,
        &figures::fig7_route(&tb),
        64,
        1,
        SimTime::ZERO,
        &mut q,
    );
    w.run(&mut q, 1_000_000);
    assert!(!w.net.tracer().is_enabled());
    assert!(w.net.tracer().events().is_empty());
    assert_eq!(w.net.tracer().dropped(), 0);
}

#[test]
fn sram_contention_slows_handlers_during_dma() {
    // With heavy SRAM contention modelled, the receive path (whose
    // completion handler runs while RDMA chunks move) slows measurably.
    let tb = fig6_testbed();
    // A single message's handlers never overlap its own DMA (the state
    // machines serialize them), so pipeline several messages: packet k's
    // completion handlers then run while packet k+1's chunks are moving.
    let run = |pct: u32| {
        let mut timing = McpTiming::lanai7();
        timing.sram_contention_pct = pct;
        let mut w = World::new(tb.topo.clone(), McpFlavor::Original);
        for h in 0..3u16 {
            w.nics[h as usize] = Nic::new(HostId(h), McpFlavor::Original, timing);
        }
        let mut q = EventQueue::new();
        for i in 0..4u64 {
            w.submit(
                tb.host1,
                i,
                &figures::fig7_route(&tb),
                4096,
                i,
                SimTime::ZERO,
                &mut q,
            );
        }
        w.run(&mut q, 10_000_000);
        let recvs = recv_completes(&w);
        assert_eq!(recvs.len(), 4);
        recvs.last().unwrap().3
    };
    let clean = run(0);
    let contended = run(400);
    assert!(
        contended > clean,
        "contention must add latency: {clean} vs {contended}"
    );
    // The effect is bounded: only handler cycles stretch, not DMA time.
    assert!((contended - clean).as_us_f64() < 20.0);
}

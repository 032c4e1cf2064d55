//! Collective-pattern integration tests, including the regression test for
//! the in-transit forwarding order race.

use itb_myrinet::core::experiments::permutation_exchange;
use itb_myrinet::core::{ClusterSpec, RoutingPolicy};
use itb_myrinet::topo::HostId;

#[test]
fn itb_forwarding_preserves_flow_order_under_load() {
    // Regression: a newly detected in-transit packet must queue behind
    // packets already on the ITB-pending flag. Before the fix, a packet
    // arriving in the window where the send DMA was idle but a pending
    // packet's reprogramming handler was still on the CPU would jump the
    // queue, reordering a flow and forcing go-back-N timeouts: this
    // permutation exchange took 2 full retransmission timeouts (> 2 s
    // simulated) instead of < 1 ms.
    let spec = ClusterSpec::irregular(16, 1).with_routing(RoutingPolicy::Itb);
    let result = permutation_exchange(&spec, 512, 16, 1_000);
    assert_eq!(result.messages, 64 * 16);
    assert!(
        result.makespan_us < 5_000.0,
        "exchange should finish in ~0.6 ms, took {} us (reordering regression?)",
        result.makespan_us
    );
}

#[test]
fn permutation_exchange_has_no_retransmissions() {
    // Same scenario, checked at the protocol level: a loss-free fabric must
    // complete the exchange without a single retransmission.
    let spec = ClusterSpec::irregular(16, 2).with_routing(RoutingPolicy::Itb);
    let mut spec2 = spec.clone();
    spec2.calib.gm.reliability = true;
    spec2.calib.gm.retrans_timeout = itb_myrinet::sim::SimDuration::from_ms(250);
    let n = spec2.num_hosts();
    let behaviors: Vec<_> = (0..n)
        .map(|i| itb_myrinet::gm::AppBehavior::Stream {
            dst: HostId(((i + n / 2) % n) as u16),
            size: 512,
            count: 12,
        })
        .collect();
    let mut cluster = spec2.build(behaviors);
    let mut q = itb_myrinet::sim::EventQueue::new();
    cluster.start(&mut q);
    itb_myrinet::sim::run_while(&mut cluster, &mut q, |c| c.delivered_count() < n * 12);
    assert_eq!(cluster.delivered_count(), n * 12);
    let retrans: u64 = (0..n as u16)
        .map(|h| {
            cluster
                .host(HostId(h))
                .tx
                .iter()
                .map(|t| t.retransmissions)
                .sum::<u64>()
        })
        .sum();
    assert_eq!(retrans, 0, "loss-free fabric must not retransmit");
    // In-order delivery at every receiver: no duplicates recorded.
    for h in 0..n as u16 {
        for conn in &cluster.host(HostId(h)).rx {
            assert_eq!(conn.duplicates, 0);
        }
    }
}

/// Every host streams `count` messages of `size` bytes back to back to its
/// transpose partner; returns the cluster once the queue drains.
fn transpose_streams(
    spec: &ClusterSpec,
    size: u32,
    count: u32,
) -> (itb_myrinet::gm::Cluster, usize) {
    let n = spec.num_hosts();
    let behaviors: Vec<_> = (0..n)
        .map(|i| itb_myrinet::gm::AppBehavior::Stream {
            dst: HostId(((i + n / 2) % n) as u16),
            size,
            count,
        })
        .collect();
    let mut cluster = spec.build(behaviors);
    let mut q = itb_myrinet::sim::EventQueue::new();
    cluster.start(&mut q);
    itb_myrinet::sim::run_while(&mut cluster, &mut q, |_| true);
    (cluster, n)
}

#[test]
fn back_to_back_multi_packet_messages_keep_sequence_order() {
    // Regression: GM staggered the packets of each release from the
    // release time, restarting at every message, so two 8 KiB messages
    // posted at the same instant interleaved their submissions (seq 0, 2,
    // 1, 3) and the receiver dropped the out-of-order packets. Without
    // reliability half of the messages were lost.
    let mut spec = ClusterSpec::irregular(16, 1);
    spec.calib.gm.reliability = false;
    let (cluster, n) = transpose_streams(&spec, 8192, 2);
    assert_eq!(n, 64);
    assert_eq!(cluster.delivered_count(), 2 * n, "every message arrives");

    // With reliability the same load must not need go-back-N at all. The
    // timeout is raised because this congested transpose takes longer
    // than the default 1 ms to drain on a loss-free fabric.
    let mut spec = ClusterSpec::irregular(16, 1);
    spec.calib.gm.reliability = true;
    spec.calib.gm.retrans_timeout = itb_myrinet::sim::SimDuration::from_ms(50);
    let (cluster, n) = transpose_streams(&spec, 8192, 2);
    assert_eq!(cluster.delivered_count(), 2 * n);
    let retrans: u64 = (0..n as u16)
        .flat_map(|h| cluster.host(HostId(h)).tx.iter().map(|t| t.retransmissions))
        .sum();
    assert_eq!(retrans, 0, "loss-free fabric must not retransmit");
}

#[test]
fn go_back_n_resends_keep_connection_submission_order() {
    // Regression: go-back-N resends were staggered from the retransmission
    // check and bypassed the connection's submit clock, so an ACK-driven
    // window refill could be scheduled between two resends and reach the
    // NIC ahead of them, where the receiver dropped it as out of order. A
    // timeout shorter than one window's round trip makes the sender resend
    // while ACKs for the originals are still arriving.
    use itb_myrinet::gm::cluster::{ClusterEvent, HostEvent};
    use itb_myrinet::sim::{EventQueue, SimDuration, World};

    let mut spec = ClusterSpec::irregular(8, 1);
    spec.calib.gm.reliability = true;
    spec.calib.gm.retrans_timeout = SimDuration::from_us(20);
    let (src, dst) = (HostId(0), HostId(1));
    let mut behaviors = vec![itb_myrinet::gm::AppBehavior::Sink; spec.num_hosts()];
    behaviors[src.idx()] = itb_myrinet::gm::AppBehavior::Stream {
        dst,
        size: 4096,
        count: 32,
    };
    let mut cluster = spec.build(behaviors);
    let mut q = EventQueue::new();
    cluster.start(&mut q);
    // Drive the loop by hand to see each submission as it fires. The
    // sender only submits data to `dst` (ACKs go out as `SendAck`), and
    // tokens are drawn in scheduling order.
    let mut fired = Vec::new();
    while let Some((now, ev)) = q.pop() {
        if let ClusterEvent::Host(HostEvent::SubmitPacket { host, token, .. }) = ev {
            if host == src {
                fired.push(token);
            }
        }
        cluster.handle(now, ev, &mut q);
    }
    assert_eq!(cluster.delivered_count(), 32);
    let retrans: u64 = cluster.host(src).tx.iter().map(|t| t.retransmissions).sum();
    assert!(retrans > 0, "the short timeout must trigger go-back-N");
    let out_of_order: Vec<_> = fired.windows(2).filter(|w| w[0] > w[1]).collect();
    assert!(
        out_of_order.is_empty(),
        "submissions fired out of scheduling order: {out_of_order:?}"
    );
}

#[test]
fn hosts_hold_connections_only_for_the_peers_they_use() {
    // Connection state opens on first use: a transpose stream pairs every
    // host with one partner (it sends to and receives from the same peer),
    // so each host holds exactly one connection; an all-to-all touches
    // every other host.
    let spec = ClusterSpec::irregular(16, 1);
    let (cluster, n) = transpose_streams(&spec, 512, 2);
    assert_eq!(cluster.delivered_count(), 2 * n);
    for h in 0..n as u16 {
        let host = cluster.host(HostId(h));
        assert_eq!(host.tx.len(), 1, "host {h}");
        assert_eq!(host.rx.len(), 1, "host {h}");
        let partner = HostId(((usize::from(h) + n / 2) % n) as u16);
        assert!(host.conn_tx(partner).is_some_and(|t| t.next_seq == 2));
    }

    let behaviors = vec![
        itb_myrinet::gm::AppBehavior::AllToAll {
            size: 64,
            gap: itb_myrinet::sim::SimDuration::from_us(1),
        };
        n
    ];
    let mut cluster = spec.build(behaviors);
    let mut q = itb_myrinet::sim::EventQueue::new();
    cluster.start(&mut q);
    itb_myrinet::sim::run_while(&mut cluster, &mut q, |_| true);
    assert_eq!(cluster.delivered_count(), n * (n - 1));
    for h in 0..n as u16 {
        assert_eq!(cluster.host(HostId(h)).tx.len(), n - 1, "host {h}");
    }
}

//! Experiment drivers: the measurement procedures of the paper's §5 plus
//! the motivation/ablation studies.

use crate::results::{Fig7Result, Fig8Result, LatencyPoint, LatencyReport, LoadPoint};
use crate::spec::ClusterSpec;
use itb_gm::{AppBehavior, Cluster};
use itb_nic::McpFlavor;
use itb_routing::{figures, RoutingPolicy, SourceRoute};
use itb_sim::stats::Accum;
use itb_sim::{narrow, run_until, run_while, EventQueue, SimDuration, SimTime};
use itb_topo::HostId;
use rayon::prelude::*;

/// Run a `gm_allsize`-style ping-pong between `src` and `dst` and report
/// half-round-trip latency per size (the measurement procedure of §5:
/// averaged iterations per message size).
pub fn ping_pong(
    spec: &ClusterSpec,
    src: HostId,
    dst: HostId,
    sizes: &[u32],
    iters: u32,
    warmup: u32,
) -> LatencyReport {
    let n = spec.num_hosts();
    let mut behaviors = vec![AppBehavior::Sink; n];
    behaviors[src.idx()] = AppBehavior::PingPong {
        peer: dst,
        sizes: sizes.to_vec(),
        iters,
        warmup,
    };
    behaviors[dst.idx()] = AppBehavior::Echo;
    let mut cluster = spec.build(behaviors);
    let mut q = EventQueue::new();
    cluster.start(&mut q);
    run_while(&mut cluster, &mut q, |c| !c.all_pingpongs_done());
    assert!(
        cluster.ping_state(src).done,
        "ping-pong did not finish; network stuck?"
    );
    let mut points: Vec<LatencyPoint> = sizes
        .iter()
        .map(|&s| LatencyPoint {
            size: s,
            half_rtt_ns: Accum::new(),
        })
        .collect();
    for &(size, rtt) in &cluster.ping_state(src).samples {
        let p = points
            .iter_mut()
            .find(|p| p.size == size)
            // detlint::allow(S001, the sweep builder sets a sample size on every spec)
            .expect("sample size was requested");
        // Half round trip, in nanoseconds.
        p.half_rtt_ns.add(rtt.as_ns_f64() / 2.0);
    }
    LatencyReport {
        label: format!("{:?}/{:?}", spec.flavor, spec.routing),
        points,
    }
}

/// The standard size ladder used by the figure reproductions (bytes).
pub fn allsize_ladder() -> Vec<u32> {
    vec![8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096]
}

/// Reproduce **Figure 7**: half-round-trip latency of the original versus
/// ITB-enabled MCP between hosts 1 and 2 of the testbed, over the plain
/// up\*/down\* route. The two runs are independent simulations (as in the
/// paper, where the firmware was swapped).
pub fn fig7(iters: u32) -> Fig7Result {
    let sizes = allsize_ladder();
    let run = |flavor: McpFlavor| {
        let spec = ClusterSpec::fig6_testbed()
            .with_mcp(flavor)
            .with_routing(RoutingPolicy::UpDown);
        // detlint::allow(S001, fig7 specs always carry a testbed)
        let tb = spec.testbed.clone().expect("testbed spec");
        let mut report = ping_pong(&spec, tb.host1, tb.host2, &sizes, iters, 2);
        report.label = match flavor {
            McpFlavor::Original => "Original MCP code".into(),
            McpFlavor::Itb => "Modified MCP code".into(),
        };
        report
    };
    Fig7Result {
        original: run(McpFlavor::Original),
        modified: run(McpFlavor::Itb),
    }
}

/// Reproduce **Figure 8**: half-round-trip latency over the two 5-crossing
/// testbed paths — plain up\*/down\* (loop cable) versus one in-transit
/// buffer — both under the ITB-enabled MCP.
pub fn fig8(iters: u32) -> Fig8Result {
    let sizes = allsize_ladder();
    let run = |route: fn(&itb_topo::builders::Fig6Testbed) -> SourceRoute, label: &str| {
        let base = ClusterSpec::fig6_testbed().with_mcp(McpFlavor::Itb);
        // detlint::allow(S001, fig8 specs always carry a testbed)
        let tb = base.testbed.clone().expect("testbed spec");
        let spec = base
            .with_route_override(route(&tb))
            .with_route_override(figures::fig8_return_route(&tb));
        let mut report = ping_pong(&spec, tb.host1, tb.host2, &sizes, iters, 2);
        report.label = label.into();
        report
    };
    Fig8Result {
        ud: run(figures::fig8_ud_route, "UD"),
        itb: run(figures::fig8_itb_route, "UD-ITB"),
    }
}

/// Latency versus number of in-transit buffers (ablation A-ITBS): on a
/// chain of `k + 1` switch stages, route a message from the first host to
/// the last through `k` in-transit hosts, and compare with the direct
/// route. Returns `(k, mean half-RTT µs)` per requested `k`.
pub fn itb_count_sweep(ks: &[usize], size: u32, iters: u32) -> Vec<(usize, f64)> {
    // detlint::allow(S001, ks is a non-empty constant list)
    let max_k = *ks.iter().max().expect("non-empty ks");
    // Chain long enough for the largest k: one in-transit host per
    // intermediate switch.
    let switches = max_k + 2;
    ks.iter()
        .map(|&k| {
            let spec = ClusterSpec::chain(switches, 1).with_mcp(McpFlavor::Itb);
            let topo = spec.topology().clone();
            let src = HostId(0);
            let dst = HostId(narrow(switches - 1));
            // Build the multi-ITB route by hand: pass through hosts at
            // switches 1..=k.
            let mut segments = Vec::new();
            let mut from = src;
            let mut from_sw = 0u16;
            for i in 1..=k {
                let mid = HostId(narrow(i));
                segments.push(chain_segment(from, from_sw, mid, narrow(i)));
                from = mid;
                from_sw = narrow(i);
            }
            segments.push(chain_segment(from, from_sw, dst, narrow(switches - 1)));
            let route = SourceRoute { src, dst, segments };
            assert!(route.is_well_formed(&topo));
            assert_eq!(route.itb_count(), k);
            let spec = spec.with_route_override(route);
            let report = ping_pong(&spec, src, dst, &[size], iters, 2);
            (k, report.points[0].half_rtt_ns.mean() / 1000.0)
        })
        .collect()
}

/// One up\*/down\*-legal chain segment from the host at `from_sw` to the
/// host at `to_sw` (chain wiring: port 0 = left, 1 = right, 2 = host).
fn chain_segment(from: HostId, from_sw: u16, to: HostId, to_sw: u16) -> itb_routing::Segment {
    use itb_routing::Hop;
    use itb_topo::SwitchId;
    assert!(from_sw < to_sw);
    let mut hops = Vec::new();
    for s in from_sw..to_sw {
        hops.push(Hop::new(SwitchId(s), 1));
    }
    hops.push(Hop::new(SwitchId(to_sw), 2));
    itb_routing::Segment { from, to, hops }
}

/// One stage of a packet's end-to-end latency.
#[derive(Debug, Clone, serde::Serialize)]
pub struct BreakdownStage {
    /// Stage label.
    pub stage: String,
    /// Duration of the stage, ns.
    pub ns: f64,
}

/// Decompose one `size`-byte message's one-way latency on the testbed's
/// plain up\*/down\* route into stages, read off the payload packet's
/// lifecycle trace ([`traced_one_way`]): host send processing, SDMA
/// staging + send programming, wire time to the head, streaming to the
/// tail, receive completion + RDMA, and host delivery processing.
pub fn latency_breakdown(size: u32) -> Vec<BreakdownStage> {
    use itb_obs::Stage;
    let run = traced_one_way(size, false);
    let events = run.tracer.for_packet(run.packet);
    let at = |stage: Stage| {
        events
            .iter()
            .find(|e| e.stage == stage)
            // detlint::allow(S001, the fixed testbed path records every lifecycle stage)
            .unwrap_or_else(|| panic!("stage {stage:?} missing: {events:?}"))
            .t
    };
    let inject = at(Stage::NetInject);
    let head = at(Stage::NetHead);
    let tail = at(Stage::NetTail);
    let recv_finish = at(Stage::McpRecvFinish);
    let deliver = at(Stage::NicDeliver);
    let stages = [
        (
            "host send + SDMA staging + send program",
            run.sent_at,
            inject,
        ),
        ("wire: inject to head at destination", inject, head),
        ("wire: head to tail (streaming)", head, tail),
        ("recv finish (CPU)", tail, recv_finish),
        ("RDMA to host memory", recv_finish, deliver),
        ("host delivery processing", deliver, run.delivered_at),
    ];
    stages
        .iter()
        .map(|(label, a, b)| BreakdownStage {
            stage: (*label).to_string(),
            ns: b.saturating_since(*a).as_ns_f64(),
        })
        .collect()
}

/// One traced one-way message: the complete lifecycle event stream plus
/// which packet carried the payload, from [`traced_one_way`].
#[derive(Debug)]
pub struct TracedRun {
    /// Lifecycle events for every packet of the run (payload and protocol).
    pub tracer: itb_obs::PacketTracer,
    /// Id of the payload packet (host inject → host delivery).
    pub packet: u64,
    /// Closing metrics snapshot of the run's cluster.
    pub snapshot: itb_obs::Snapshot,
    /// When the application sent the message.
    pub sent_at: SimTime,
    /// When the message reached the receiving application.
    pub delivered_at: SimTime,
}

impl TracedRun {
    /// The payload packet's consecutive lifecycle spans.
    pub fn spans(&self) -> Vec<itb_obs::Span> {
        itb_obs::spans(&self.tracer.for_packet(self.packet))
    }

    /// The payload packet's half-RTT decomposed into the four attribution
    /// categories (always all four, zeros included).
    pub fn attribution(&self) -> Vec<(itb_obs::Attribution, f64)> {
        itb_obs::attribute(&self.spans())
    }
}

/// Send one `size`-byte message from the testbed's host 1 to host 2 with
/// the packet-lifecycle tracer enabled and return the full trace. With
/// `via_itb` the message takes the Figure 8 one-ITB route (and the trace
/// must show the in-transit hop); otherwise the plain up\*/down\* route of
/// Figure 7. Both runs use the ITB-enabled MCP, as in the paper.
pub fn traced_one_way(size: u32, via_itb: bool) -> TracedRun {
    let base = ClusterSpec::fig6_testbed().with_mcp(McpFlavor::Itb);
    // detlint::allow(S001, latency specs always carry a testbed)
    let tb = base.testbed.clone().expect("testbed spec");
    let spec = if via_itb {
        base.with_route_override(figures::fig8_itb_route(&tb))
            .with_route_override(figures::fig8_return_route(&tb))
    } else {
        base.with_routing(RoutingPolicy::UpDown)
    };
    let n = spec.num_hosts();
    let mut behaviors = vec![AppBehavior::Sink; n];
    behaviors[tb.host1.idx()] = AppBehavior::Stream {
        dst: tb.host2,
        size,
        count: 1,
    };
    let mut cluster = spec.build(behaviors);
    cluster.net.tracer_mut().enable();
    let mut q = EventQueue::new();
    cluster.start(&mut q);
    run_while(&mut cluster, &mut q, |c| c.delivered_count() < 1);
    let snapshot = cluster.metrics_snapshot(q.now());
    // The run sends exactly one message, id 0.
    let msg = cluster.messages()[0];
    let tracer = std::mem::take(cluster.net.tracer_mut());
    // The payload packet is the one that went host-to-host; protocol
    // packets never reach `host.deliver`.
    let packet = tracer
        .packets()
        .into_iter()
        .find(|&p| {
            let evs = tracer.for_packet(p);
            evs.iter().any(|e| e.stage == itb_obs::Stage::HostInject)
                && evs.iter().any(|e| e.stage == itb_obs::Stage::HostDeliver)
        })
        // detlint::allow(S001, the payload packet is traced end to end by construction)
        .expect("payload packet traced end to end");
    if via_itb {
        assert!(
            tracer
                .for_packet(packet)
                .iter()
                .any(|e| e.stage == itb_obs::Stage::McpItbDetect),
            "ITB route must show an in-transit hop in the trace"
        );
    }
    TracedRun {
        tracer,
        packet,
        snapshot,
        sent_at: msg.sent_at,
        // detlint::allow(S001, the run stops only after the delivery)
        delivered_at: msg.delivered_at.expect("delivered"),
    }
}

/// One point of a one-way streaming bandwidth sweep.
#[derive(Debug, Clone, Copy, serde::Serialize)]
pub struct BandwidthPoint {
    /// Message size in bytes.
    pub size: u32,
    /// Sustained one-way bandwidth, MB/s.
    pub mb_per_s: f64,
}

/// Measure sustained one-way bandwidth between two hosts per message size —
/// the bandwidth half of `gm_allsize`'s report. `count` back-to-back
/// messages per size; bandwidth = payload bytes / (last delivery − first
/// send).
pub fn stream_bandwidth(
    spec: &ClusterSpec,
    src: HostId,
    dst: HostId,
    sizes: &[u32],
    count: u32,
) -> Vec<BandwidthPoint> {
    sizes
        .iter()
        .map(|&size| {
            let n = spec.num_hosts();
            let mut behaviors = vec![AppBehavior::Sink; n];
            behaviors[src.idx()] = AppBehavior::Stream { dst, size, count };
            let mut cluster = spec.build(behaviors);
            let mut q = EventQueue::new();
            cluster.start(&mut q);
            run_while(&mut cluster, &mut q, |c| {
                c.delivered_count() < count as usize
            });
            assert_eq!(cluster.delivered_count(), count as usize);
            let first_send = cluster
                .messages()
                .iter()
                .map(|r| r.sent_at)
                .min()
                // detlint::allow(S001, the run injects at least one message)
                .expect("messages exist");
            let last_delivery = cluster
                .messages()
                .iter()
                .filter_map(|r| r.delivered_at)
                .max()
                // detlint::allow(S001, run_until drains the queue so every message is delivered)
                .expect("all delivered");
            let secs = (last_delivery - first_send).as_ps() as f64 / 1e12;
            BandwidthPoint {
                size,
                mb_per_s: (u64::from(size) * u64::from(count)) as f64 / 1e6 / secs,
            }
        })
        .collect()
}

/// Result of a total-exchange run.
#[derive(Debug, Clone, Copy, serde::Serialize)]
pub struct ExchangeResult {
    /// Wall (simulated) time from first send to last delivery, µs.
    pub makespan_us: f64,
    /// Mean per-message latency, µs.
    pub mean_latency_us: f64,
    /// Messages exchanged (n·(n−1)).
    pub messages: usize,
}

/// Run a total exchange — every host sends one `size`-byte message to every
/// other host — and measure the completion time. This models the paper's
/// stated next step: "analyzing the impact of using ITBs in the execution
/// time of distributed applications". Reliability is forced on so the
/// exchange always completes (drops are retransmitted).
pub fn total_exchange(spec: &ClusterSpec, size: u32, horizon_ms: u64) -> ExchangeResult {
    let n = spec.num_hosts();
    let behaviors = vec![
        AppBehavior::AllToAll {
            size,
            gap: SimDuration::from_us(20),
        };
        n
    ];
    run_exchange(spec, behaviors, n * (n - 1), horizon_ms, "total exchange")
}

/// Run a permutation exchange: host *i* streams `count` messages of `size`
/// bytes to its transpose partner *(i + n/2) mod n*. Unlike the total
/// exchange (which is bound by the endpoint links), this pattern pushes all
/// traffic across the fabric core, so route quality dominates completion
/// time — the communication phase of a blocked matrix transpose.
pub fn permutation_exchange(
    spec: &ClusterSpec,
    size: u32,
    count: u32,
    horizon_ms: u64,
) -> ExchangeResult {
    let n = spec.num_hosts();
    let behaviors: Vec<AppBehavior> = (0..n)
        .map(|i| AppBehavior::Stream {
            dst: HostId(narrow((i + n / 2) % n)),
            size,
            count,
        })
        .collect();
    let expected = n * count as usize;
    run_exchange(
        spec,
        behaviors,
        expected,
        horizon_ms,
        "permutation exchange",
    )
}

/// Run `behaviors` on `spec` until all `expected` messages are delivered
/// and summarise the exchange. Panics, naming the exchange `what`, when the
/// run overruns `horizon_ms` or stops short.
fn run_exchange(
    spec: &ClusterSpec,
    behaviors: Vec<AppBehavior>,
    expected: usize,
    horizon_ms: u64,
    what: &str,
) -> ExchangeResult {
    let mut spec = spec.clone();
    // Reliability on so drops cannot lose messages, but with a timeout far
    // above the congested exchange makespan — otherwise go-back-N fires
    // spuriously on merely-queued packets and floods the network.
    spec.calib.gm.reliability = true;
    spec.calib.gm.retrans_timeout = SimDuration::from_ms(horizon_ms / 4);
    let mut cluster = spec.build(behaviors);
    let mut q = EventQueue::new();
    cluster.start(&mut q);
    run_while(&mut cluster, &mut q, |c| c.delivered_count() < expected);
    assert!(
        q.now() <= SimTime::ZERO + SimDuration::from_ms(horizon_ms),
        "{what} exceeded the {horizon_ms} ms horizon"
    );
    assert_eq!(
        cluster.delivered_count(),
        expected,
        "{what} did not complete"
    );
    let mut makespan = SimTime::ZERO;
    let mut lat = Accum::new();
    for rec in cluster.messages() {
        // detlint::allow(S001, a drained run implies delivery)
        let d = rec.delivered_at.expect("all delivered");
        makespan = makespan.max(d);
        lat.add((d - rec.sent_at).as_us_f64());
    }
    ExchangeResult {
        makespan_us: makespan.as_us_f64(),
        mean_latency_us: lat.mean(),
        messages: expected,
    }
}

/// Parameters of a loaded-network sweep.
#[derive(Debug, Clone)]
pub struct LoadSweep {
    /// Message size in bytes.
    pub size: u32,
    /// Offered load per host at each point, MB/s.
    pub offered_mb_s: Vec<f64>,
    /// Warm-up before the measurement window.
    pub warmup: SimDuration,
    /// Measurement window length.
    pub window: SimDuration,
    /// Extra drain time after the window to let in-flight messages land.
    pub drain: SimDuration,
}

impl Default for LoadSweep {
    fn default() -> Self {
        LoadSweep {
            size: 512,
            offered_mb_s: vec![2.0, 5.0, 10.0, 20.0, 35.0, 50.0, 70.0, 90.0],
            warmup: SimDuration::from_ms(2),
            window: SimDuration::from_ms(8),
            drain: SimDuration::from_ms(4),
        }
    }
}

/// Run a loaded-network sweep: Poisson uniform traffic from every host at
/// each offered load, measuring accepted throughput and mean latency —
/// the experiment style behind the paper's motivation claims. Points run
/// in parallel with rayon (each builds an independent cluster).
pub fn load_sweep(spec: &ClusterSpec, sweep: &LoadSweep) -> Vec<LoadPoint> {
    sweep
        .offered_mb_s
        .par_iter()
        .map(|&offered| run_load_point(spec, sweep, offered))
        .collect()
}

fn run_load_point(spec: &ClusterSpec, sweep: &LoadSweep, offered_mb_s: f64) -> LoadPoint {
    let n = spec.num_hosts();
    // Mean inter-send gap: size B at offered MB/s → size/offered µs.
    let mean_gap = SimDuration::from_us_f64(sweep.size as f64 / offered_mb_s);
    let behaviors = vec![
        AppBehavior::Poisson {
            size: sweep.size,
            mean_gap,
            limit: 0,
        };
        n
    ];
    let mut cluster = spec.build(behaviors);
    let mut q = EventQueue::new();
    cluster.start(&mut q);
    let w_start = SimTime::ZERO + sweep.warmup;
    let w_end = w_start + sweep.window;
    let horizon = w_end + sweep.drain;
    run_until(&mut cluster, &mut q, horizon);
    summarize_window(&cluster, w_start, w_end, sweep.window, offered_mb_s)
}

/// Aggregate a measurement window from a finished cluster.
pub fn summarize_window(
    cluster: &Cluster,
    w_start: SimTime,
    w_end: SimTime,
    window: SimDuration,
    offered_mb_s: f64,
) -> LoadPoint {
    let mut sent = 0u64;
    let mut delivered = 0u64;
    let mut bytes = 0u64;
    let mut lat = Accum::new();
    let mut lats = Vec::new();
    for rec in cluster.messages() {
        if rec.sent_at < w_start || rec.sent_at >= w_end {
            continue;
        }
        sent += 1;
        if let Some(d) = rec.delivered_at {
            delivered += 1;
            bytes += u64::from(rec.len);
            let us = (d - rec.sent_at).as_us_f64();
            lat.add(us);
            lats.push(us);
        }
    }
    let secs = window.as_ps() as f64 / 1e12;
    LoadPoint {
        offered_mb_s,
        accepted_mb_s: bytes as f64 / 1e6 / secs,
        avg_latency_us: lat.mean(),
        p99_latency_us: nearest_rank_p99(&mut lats),
        sent,
        delivered,
    }
}

/// Exact nearest-rank p99 of `samples` (sorted in place): the element at
/// 1-based rank ⌈0.99·n⌉, or NaN for no samples.
fn nearest_rank_p99(samples: &mut [f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    samples.sort_unstable_by(f64::total_cmp);
    samples[(samples.len() * 99).div_ceil(100) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_p99_picks_the_ceil_rank() {
        assert!(nearest_rank_p99(&mut []).is_nan());
        assert_eq!(nearest_rank_p99(&mut [7.0]), 7.0);
        // ⌈0.99·4⌉ = 4: the largest of four.
        assert_eq!(nearest_rank_p99(&mut [3.0, 1.0, 4.0, 2.0]), 4.0);
        let mut hundred: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(nearest_rank_p99(&mut hundred), 99.0);
        let mut hundred_one: Vec<f64> = (1..=101).map(f64::from).collect();
        hundred_one.swap(0, 100);
        assert_eq!(nearest_rank_p99(&mut hundred_one), 100.0);
    }

    #[test]
    fn ping_pong_reports_requested_sizes() {
        let spec = ClusterSpec::fig6_testbed().with_mcp(McpFlavor::Original);
        let tb = spec.testbed.clone().unwrap();
        let r = ping_pong(&spec, tb.host1, tb.host2, &[64, 512], 3, 1);
        assert_eq!(r.points.len(), 2);
        assert_eq!(r.points[0].half_rtt_ns.count(), 3);
        assert!(r.points[1].half_rtt_ns.mean() > r.points[0].half_rtt_ns.mean());
    }

    #[test]
    fn fig7_shows_small_constant_overhead() {
        let f = fig7(4);
        let (avg, max) = f.summary();
        assert!(
            (50.0..=300.0).contains(&avg),
            "avg overhead {avg} ns (paper: ≈125 ns)"
        );
        assert!(max <= 350.0, "max overhead {max} ns (paper: ≤300 ns)");
    }

    #[test]
    fn fig8_shows_per_itb_cost() {
        let f = fig8(4);
        let s = f.summary();
        assert!(
            (0.9..=1.7).contains(&s.mean_overhead_us),
            "per-ITB {} us (paper ≈1.3)",
            s.mean_overhead_us
        );
        assert!(
            s.relative_large_pct < s.relative_small_pct,
            "relative overhead must shrink with size"
        );
    }

    #[test]
    fn itb_count_scales_linearly() {
        let pts = itb_count_sweep(&[0, 1, 2, 3], 64, 4);
        // Each extra ITB adds roughly the same increment.
        let d1 = pts[1].1 - pts[0].1;
        let d2 = pts[2].1 - pts[1].1;
        let d3 = pts[3].1 - pts[2].1;
        for d in [d1, d2, d3] {
            assert!(
                (0.4..=1.4).contains(&d),
                "per-ITB increment {d} us out of band: {pts:?}"
            );
        }
        assert!((d1 - d3).abs() < 0.3, "increments should be ≈constant");
    }

    #[test]
    fn breakdown_stages_sum_to_total() {
        let stages = latency_breakdown(1024);
        assert_eq!(stages.len(), 6);
        for s in &stages {
            assert!(s.ns >= 0.0, "stage {} negative", s.stage);
        }
        let total: f64 = stages.iter().map(|s| s.ns).sum();
        // Total one-way latency for 1 KiB must sit near the Fig 7 curve
        // (≈ 23 µs half-RTT ⇒ ≈ 23 µs one way).
        assert!(
            (15_000.0..35_000.0).contains(&total),
            "one-way total {total} ns"
        );
        // The streaming stage dominates wire time for 1 KiB.
        assert!(stages[2].ns > stages[1].ns);
    }

    #[test]
    fn traced_attribution_sums_to_end_to_end() {
        let run = traced_one_way(256, true);
        let sp = run.spans();
        assert!(sp.len() >= 6, "expected a multi-stage lifecycle: {sp:?}");
        // Spans tile the packet's life: their sum IS the end-to-end latency.
        let e2e: f64 = sp.iter().map(|s| s.ns).sum();
        assert!(e2e > 0.0);
        let attr = run.attribution();
        assert_eq!(attr.len(), 4);
        let total: f64 = attr.iter().map(|&(_, ns)| ns).sum();
        assert!(
            (total - e2e).abs() < 1e-6,
            "attribution {total} ns != end-to-end {e2e} ns"
        );
        // The snapshot agrees a reinjection (= ITB forward) happened.
        assert!(run.snapshot.counter("net.reinjected") >= 1);
    }

    #[test]
    fn traced_itb_hop_cost_matches_paper_band() {
        let run = traced_one_way(64, true);
        let itb_us = run
            .attribution()
            .into_iter()
            .find(|&(a, _)| a == itb_obs::Attribution::ItbHop)
            .map(|(_, ns)| ns / 1000.0)
            .unwrap();
        assert!(
            (0.9..=1.7).contains(&itb_us),
            "ItbHop {itb_us} µs per hop (paper ≈1.3 µs)"
        );
        // A direct route spends nothing in ITB firmware.
        let direct = traced_one_way(64, false);
        let direct_itb = direct
            .attribution()
            .into_iter()
            .find(|&(a, _)| a == itb_obs::Attribution::ItbHop)
            .map(|(_, ns)| ns)
            .unwrap();
        assert_eq!(direct_itb, 0.0, "no ITB work on the plain UD route");
    }

    #[test]
    fn tiny_load_point_delivers() {
        let spec = ClusterSpec::irregular(4, 2).with_routing(RoutingPolicy::Itb);
        let sweep = LoadSweep {
            size: 256,
            offered_mb_s: vec![1.0],
            warmup: SimDuration::from_us(200),
            window: SimDuration::from_ms(1),
            drain: SimDuration::from_ms(1),
        };
        let pts = load_sweep(&spec, &sweep);
        assert_eq!(pts.len(), 1);
        assert!(pts[0].sent > 0);
        assert!(pts[0].delivered > 0);
        assert!(pts[0].accepted_mb_s > 0.0);
        assert!(pts[0].avg_latency_us > 0.0);
    }
}

//! Integration tests for the deep-observability subsystem: the sim-time
//! timeline sampler and the runtime health monitors, driven through the
//! same cluster API the bench binaries use.

use itb_myrinet::core::ClusterSpec;
use itb_myrinet::gm::AppBehavior;
use itb_myrinet::net::FaultPlan;
use itb_myrinet::nic::McpFlavor;
use itb_myrinet::routing::figures;
use itb_myrinet::sim::{run_until, EventQueue, SimDuration, SimTime};

/// A healthy streaming run: the timeline sampler records periodic deltas
/// whose counters sum back to the final snapshot, and the health report
/// comes back clean with the NIC receive pools audited.
#[test]
fn healthy_run_yields_timeline_samples_and_clean_health_report() {
    let spec = ClusterSpec::fig6_testbed().with_mcp(McpFlavor::Itb);
    let tb = spec.testbed.clone().expect("testbed spec");
    let mut behaviors = vec![AppBehavior::Sink; spec.num_hosts()];
    behaviors[tb.host1.idx()] = AppBehavior::Stream {
        dst: tb.host2,
        size: 256,
        count: 8,
    };
    let mut c = spec.build(behaviors);
    c.enable_timeline(SimDuration::from_us(50));
    c.enable_health(SimDuration::from_us(50), SimDuration::from_ms(5));
    let mut q = EventQueue::new();
    c.start(&mut q);
    let horizon = SimTime::from_ms(20);
    run_until(&mut c, &mut q, horizon);
    let now = q.now();
    assert_eq!(c.delivered_count(), 8, "loss-free fabric delivers all");

    let timeline = c.take_timeline().expect("timeline was enabled");
    assert!(
        !timeline.is_empty(),
        "a multi-interval run must record samples"
    );
    assert_eq!(timeline.interval_ns(), 50_000);
    // Interval deltas are a partition of the run: per-counter sums must
    // equal the final cumulative snapshot (the conservation property the
    // health monitor checks online).
    let finale = c.metrics_snapshot(now);
    let mut summed = 0u64;
    // rows() re-joins the recorded delta frames with the metric names.
    for s in timeline.rows() {
        assert_eq!(s.interval_ns, 50_000);
        summed += s.delta.counters.get("net.delivered").copied().unwrap_or(0);
    }
    assert_eq!(
        summed, finale.counters["net.delivered"],
        "timeline deltas must sum to the cumulative counter"
    );
    // JSONL export: one line per sample, each carrying its sim timestamp.
    let jsonl = timeline.to_jsonl();
    assert_eq!(jsonl.lines().count(), timeline.len());
    // Exact bytes, so a change that moves the artifact fails here rather
    // than only in a same-build double-run comparison.
    assert!(
        jsonl == include_str!("fixtures/fig6_stream_timeline.jsonl"),
        "timeline JSONL moved from tests/fixtures/fig6_stream_timeline.jsonl"
    );

    let report = c.health_report(now).expect("health was enabled");
    assert_eq!(report.to_json(), PINNED_HEALTH_REPORT);
    assert!(report.healthy, "clean run flagged: {:?}", report.violations);
    assert!(report.samples > 0);
    assert!(
        report.buffers_audited > 0,
        "end-of-run audit must cover the NIC receive pools"
    );
    assert_eq!(report.end_ns, now.as_ps() / 1_000);
}

/// A deliberately unroutable fabric: every cable is down for the whole run,
/// GM's shrunken retry budget abandons quickly, and the stall watchdog must
/// fire with the undelivered messages in the blocked set.
#[test]
fn stall_watchdog_flags_an_unroutable_fabric() {
    let horizon = SimTime::from_ms(25);
    let mut spec = ClusterSpec::fig6_testbed().with_mcp(McpFlavor::Itb);
    spec.calib.gm.max_retries = 2;
    spec.calib.gm.retrans_backoff_cap = SimDuration::from_ms(1);
    let tb = spec.testbed.clone().expect("testbed spec");
    let plan = FaultPlan::seeded(0x57A11)
        .with_down_window(tb.cable_a, SimTime::ZERO, horizon)
        .with_down_window(tb.cable_b, SimTime::ZERO, horizon)
        .with_down_window(tb.loop_cable, SimTime::ZERO, horizon);
    let spec = spec
        .with_route_override(figures::fig8_itb_route(&tb))
        .with_route_override(figures::fig8_return_route(&tb))
        .with_faults(plan);

    let mut behaviors = vec![AppBehavior::Sink; spec.num_hosts()];
    behaviors[tb.host1.idx()] = AppBehavior::Stream {
        dst: tb.host2,
        size: 512,
        count: 2,
    };
    let mut c = spec.build(behaviors);
    c.enable_health(SimDuration::from_us(100), SimDuration::from_ms(3));
    let mut q = EventQueue::new();
    c.start(&mut q);
    run_until(&mut c, &mut q, horizon);

    let report = c.health_report(q.now()).expect("health was enabled");
    assert!(!report.healthy, "an unroutable fabric must be flagged");
    let stall = report
        .violations
        .iter()
        .find(|v| v.check == "stall_watchdog")
        .expect("the stall watchdog must fire");
    assert!(
        stall.blocked.iter().any(|b| b.starts_with("msg ")),
        "blocked set must name the undelivered messages: {:?}",
        stall.blocked
    );
    assert!(
        report
            .violations
            .iter()
            .all(|v| v.check == "stall_watchdog"),
        "only the watchdog should fire: {:?}",
        report.violations
    );
}

/// The healthy run's report, byte for byte. The stream is fully delivered
/// before the first sample at 50 us, so no later sample sees progress and
/// `last_progress_ns` stays 0.
const PINNED_HEALTH_REPORT: &str = r#"{
  "healthy": true,
  "samples": 21,
  "stall_budget_ns": 5000000,
  "last_progress_ns": 0,
  "end_ns": 1000000,
  "buffers_audited": 6,
  "violations": []
}"#;

//! Runtime health monitors: stall watchdog, buffer-leak audit, counter
//! conservation.
//!
//! The source paper's in-transit buffers exist to break routing deadlock;
//! the observable signature of that failure mode in this simulator is
//! *no-progress* — traffic exists (packets in flight or messages
//! undelivered) yet neither a delivery, a link advance nor a flow-engine
//! byte happens for a long stretch of sim time. [`HealthMonitor`] detects
//! exactly that, plus two bookkeeping invariants every healthy run must
//! satisfy:
//!
//! * **buffer conservation** — at end of run every NIC SRAM receive buffer
//!   is either free or owned by a live reception (the `owns_buffer`
//!   accounting), so firmware paths cannot leak buffers;
//! * **counter conservation** — the flat counter namespace of
//!   [`Snapshot`] is monotonic; a counter or link-load value going
//!   *backwards* between samples means an engine bug (or a wrapping
//!   subtraction somewhere).
//!
//! Like the timeline sampler, the monitor is passive and sim-time-only: the
//! integrating world feeds it snapshots from its own scheduled sampling
//! events (detlint D002 enforces the no-wall-clock contract). Violations
//! land in a structured [`HealthReport`] that bench binaries write to
//! `results/health_report.json`; strict-mode runs exit nonzero when the
//! report is unhealthy.

use crate::frame::{MetricsFrame, MetricsSchema};
use crate::metrics::Snapshot;
use serde::Serialize;
use std::io;

/// Watchdog configuration.
#[derive(Debug, Clone, Copy)]
pub struct HealthConfig {
    /// Sim nanoseconds of no-progress (no delivery, no link byte advance,
    /// no flow-engine byte served) while traffic is pending before the
    /// stall watchdog fires.
    pub stall_budget_ns: u64,
}

/// One detected health violation.
#[derive(Debug, Clone, Serialize)]
pub struct Violation {
    /// Which monitor fired: `stall_watchdog`, `buffer_leak` or
    /// `counter_conservation`.
    pub check: String,
    /// Sim time of detection, nanoseconds (end of run for the leak audit).
    pub at_ns: u64,
    /// Human-readable description of the violation.
    pub detail: String,
    /// The blocked set at detection time: parked packets (with their
    /// network location) and undelivered messages. Empty for non-stall
    /// violations.
    pub blocked: Vec<String>,
}

/// End-of-run accounting for one buffer pool of one node.
#[derive(Debug, Clone, Serialize)]
pub struct BufferAudit {
    /// Node (host/NIC index) the pool belongs to.
    pub node: u32,
    /// Pool name, e.g. `"recv"`.
    pub pool: String,
    /// Pool capacity.
    pub total: u64,
    /// Buffers currently free.
    pub free: u64,
    /// Buffers owned by live receptions.
    pub in_use: u64,
}

impl BufferAudit {
    /// Whether every buffer is accounted for (`free + in_use == total`).
    pub fn conserved(&self) -> bool {
        self.free.saturating_add(self.in_use) == self.total
    }
}

/// The structured end-of-run health verdict.
#[derive(Debug, Clone, Serialize)]
pub struct HealthReport {
    /// True iff no monitor fired.
    pub healthy: bool,
    /// Snapshots observed.
    pub samples: u64,
    /// Configured stall budget, sim nanoseconds.
    pub stall_budget_ns: u64,
    /// Sim time of the last observed progress, nanoseconds.
    pub last_progress_ns: u64,
    /// Sim time the report was finalized at, nanoseconds.
    pub end_ns: u64,
    /// Total buffers covered by the end-of-run leak audit.
    pub buffers_audited: u64,
    /// Every violation, in detection order.
    pub violations: Vec<Violation>,
}

impl HealthReport {
    /// Render as pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).unwrap_or_else(|e| {
            // detlint::allow(S001, report types always serialize; a failure is a programming error)
            panic!("health report serialization cannot fail: {e}");
        })
    }

    /// Write the pretty-JSON report (with a trailing newline) into `w`.
    /// Callers wrap file sinks in a `BufWriter` (see `itb_bench`'s
    /// `dump_stream`).
    pub fn write_json<W: io::Write>(&self, w: &mut W) -> io::Result<()> {
        w.write_all(self.to_json().as_bytes())?;
        w.write_all(b"\n")
    }
}

/// Accumulates snapshots and violations over a run.
#[derive(Debug)]
pub struct HealthMonitor {
    cfg: HealthConfig,
    prev: Option<Snapshot>,
    prev_frame: Option<MetricsFrame>,
    last_progress_ns: u64,
    in_stall: bool,
    samples: u64,
    buffers_audited: u64,
    violations: Vec<Violation>,
}

/// Counters whose advance is progress, besides link bytes: packet
/// deliveries, and bytes served by the flow engine (hybrid runs), which
/// moves no packet and touches no link.
const PROGRESS_COUNTERS: [&str; 2] = ["net.delivered", "flow.bytes_delivered"];

/// Total bytes moved over every link, both directions.
fn link_bytes(s: &Snapshot) -> u64 {
    s.links
        .iter()
        .map(|l| l.fwd_bytes.saturating_add(l.rev_bytes))
        .fold(0u64, u64::saturating_add)
}

/// Frame-path twin of [`link_bytes`].
fn frame_link_bytes(f: &MetricsFrame) -> u64 {
    f.links
        .iter()
        .map(|l| l[0].saturating_add(l[1]))
        .fold(0u64, u64::saturating_add)
}

impl HealthMonitor {
    /// A monitor with the given watchdog budget.
    ///
    /// # Panics
    /// Panics on a zero stall budget — the watchdog would fire on the very
    /// first idle sample.
    pub fn new(cfg: HealthConfig) -> Self {
        assert!(cfg.stall_budget_ns > 0, "stall budget must be positive");
        HealthMonitor {
            cfg,
            prev: None,
            prev_frame: None,
            last_progress_ns: 0,
            in_stall: false,
            samples: 0,
            buffers_audited: 0,
            violations: Vec::new(),
        }
    }

    /// Feed one absolute snapshot. `pending` says whether traffic exists
    /// that still wants to make progress (packets in flight or messages
    /// undelivered) — the watchdog only arms while something is pending.
    ///
    /// Returns `true` exactly when the stall watchdog fires for a new stall
    /// episode; the caller then gathers the blocked set (parked packets,
    /// undelivered messages) and reports it via [`Self::flag_stall`]. The
    /// two-phase shape keeps this crate free of network/GM knowledge.
    pub fn observe(&mut self, snap: &Snapshot, pending: bool) -> bool {
        self.samples += 1;
        let at = snap.at_ns;
        if let Some(prev) = &self.prev {
            for detail in snap.regressions(prev) {
                self.violations.push(Violation {
                    check: "counter_conservation".into(),
                    at_ns: at,
                    detail,
                    blocked: Vec::new(),
                });
            }
            let progressed = PROGRESS_COUNTERS
                .iter()
                .any(|&k| snap.counter(k) != prev.counter(k))
                || link_bytes(snap) != link_bytes(prev);
            if progressed {
                self.last_progress_ns = at;
                self.in_stall = false;
            }
        }
        self.prev = Some(snap.clone());
        if pending
            && !self.in_stall
            && at.saturating_sub(self.last_progress_ns) >= self.cfg.stall_budget_ns
        {
            self.in_stall = true;
            return true;
        }
        false
    }

    /// Allocation-free twin of [`Self::observe`] for the frame sampling
    /// path: counter and link comparison is positional (index `i` against
    /// index `i`), so the monitor never builds a string unless a value
    /// actually regressed. The previous frame is retained by in-place copy
    /// — steady state performs zero allocations.
    ///
    /// The violation message format is identical to the snapshot path
    /// (pinned by tests), so health reports do not depend on which path
    /// fed the monitor.
    pub fn observe_frame(
        &mut self,
        frame: &MetricsFrame,
        schema: &MetricsSchema,
        pending: bool,
    ) -> bool {
        debug_assert_eq!(frame.counters.len(), schema.counter_keys.len());
        debug_assert_eq!(frame.links.len(), schema.link_names.len());
        self.samples += 1;
        let at = frame.at_ns;
        if let Some(prev) = &self.prev_frame {
            for (i, (&v, &b)) in frame.counters.iter().zip(&prev.counters).enumerate() {
                if v < b {
                    let k = &schema.counter_keys[i];
                    self.violations.push(Violation {
                        check: "counter_conservation".into(),
                        at_ns: at,
                        detail: format!("counter {k} regressed: {b} -> {v}"),
                        blocked: Vec::new(),
                    });
                }
            }
            for (i, (l, bl)) in frame.links.iter().zip(&prev.links).enumerate() {
                for (field, b, v) in [
                    ("fwd_bytes", bl[0], l[0]),
                    ("rev_bytes", bl[1], l[1]),
                    ("fwd_blocked_ns", bl[2], l[2]),
                    ("rev_blocked_ns", bl[3], l[3]),
                ] {
                    if v < b {
                        let name = &schema.link_names[i];
                        self.violations.push(Violation {
                            check: "counter_conservation".into(),
                            at_ns: at,
                            detail: format!("link {name} {field} regressed: {b} -> {v}"),
                            blocked: Vec::new(),
                        });
                    }
                }
            }
            let progressed = PROGRESS_COUNTERS.iter().any(|&k| {
                schema
                    .counter_index(k)
                    .is_some_and(|i| frame.counters[i] != prev.counters[i])
            }) || frame_link_bytes(frame) != frame_link_bytes(prev);
            if progressed {
                self.last_progress_ns = at;
                self.in_stall = false;
            }
        }
        match &mut self.prev_frame {
            Some(p) => p.copy_from(frame),
            None => self.prev_frame = Some(frame.clone()),
        }
        if pending
            && !self.in_stall
            && at.saturating_sub(self.last_progress_ns) >= self.cfg.stall_budget_ns
        {
            self.in_stall = true;
            return true;
        }
        false
    }

    /// Record a stall the watchdog detected (one violation per episode;
    /// [`Self::observe`] suppresses re-fires until progress resumes).
    pub fn flag_stall(&mut self, at_ns: u64, blocked: Vec<String>) {
        let idle = at_ns.saturating_sub(self.last_progress_ns);
        self.violations.push(Violation {
            check: "stall_watchdog".into(),
            at_ns,
            detail: format!(
                "no delivery or link advance for {idle} ns (budget {} ns) with {} blocked item(s); last progress at {} ns",
                self.cfg.stall_budget_ns,
                blocked.len(),
                self.last_progress_ns
            ),
            blocked,
        });
    }

    /// Feed one end-of-run buffer-pool audit; a non-conserved pool is a
    /// `buffer_leak` violation.
    pub fn audit_buffer(&mut self, end_ns: u64, a: &BufferAudit) {
        self.buffers_audited += a.total;
        if !a.conserved() {
            self.violations.push(Violation {
                check: "buffer_leak".into(),
                at_ns: end_ns,
                detail: format!(
                    "node {} {} pool: total {} != free {} + in_use {}",
                    a.node, a.pool, a.total, a.free, a.in_use
                ),
                blocked: Vec::new(),
            });
        }
    }

    /// Whether the watchdog is currently inside a flagged stall episode
    /// (set when [`Self::observe`] fires, cleared by progress). Integrating
    /// worlds use this to keep their sampling clock alive while a stall is
    /// still being hunted, and to stop once it has been diagnosed.
    pub fn in_stall(&self) -> bool {
        self.in_stall
    }

    /// Violations recorded so far (the report is the durable form).
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// Finalize into a [`HealthReport`] at sim time `end_ns`.
    pub fn finish(self, end_ns: u64) -> HealthReport {
        HealthReport {
            healthy: self.violations.is_empty(),
            samples: self.samples,
            stall_budget_ns: self.cfg.stall_budget_ns,
            last_progress_ns: self.last_progress_ns,
            end_ns,
            buffers_audited: self.buffers_audited,
            violations: self.violations,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::LinkLoad;

    fn snap(at_ns: u64, delivered: u64, fwd: u64) -> Snapshot {
        let mut s = Snapshot::new();
        s.at_ns = at_ns;
        s.counters.insert("net.delivered".into(), delivered);
        s.links.push(LinkLoad {
            link: "h0-s0".into(),
            fwd_bytes: fwd,
            rev_bytes: 0,
            fwd_blocked_ns: 0,
            rev_blocked_ns: 0,
        });
        s
    }

    #[test]
    fn watchdog_fires_once_per_episode_and_rearms_on_progress() {
        let mut m = HealthMonitor::new(HealthConfig {
            stall_budget_ns: 1000,
        });
        // Active phase: link bytes advance each sample.
        assert!(!m.observe(&snap(100, 0, 64), true));
        assert!(!m.observe(&snap(600, 0, 128), true));
        // Quiet with pending traffic: budget exceeded at 1600 (last progress
        // 600), fires exactly once.
        assert!(!m.observe(&snap(1100, 0, 128), true));
        assert!(m.observe(&snap(1700, 0, 128), true));
        m.flag_stall(1700, vec!["msg 0: h1->h2 undelivered".into()]);
        assert!(!m.observe(&snap(2300, 0, 128), true), "no duplicate fire");
        // Progress clears the episode; a later quiet stretch re-fires.
        assert!(!m.observe(&snap(2400, 1, 256), true));
        assert!(m.observe(&snap(3500, 1, 256), true));
        m.flag_stall(3500, Vec::new());
        let r = m.finish(4000);
        assert!(!r.healthy);
        assert_eq!(r.violations.len(), 2);
        assert_eq!(r.violations[0].check, "stall_watchdog");
        assert_eq!(r.violations[0].blocked.len(), 1);
        assert_eq!(r.last_progress_ns, 2400);
    }

    #[test]
    fn watchdog_stays_quiet_without_pending_traffic() {
        let mut m = HealthMonitor::new(HealthConfig {
            stall_budget_ns: 1000,
        });
        assert!(!m.observe(&snap(100, 1, 64), false));
        // A long idle tail with nothing pending is a finished run, not a
        // stall.
        assert!(!m.observe(&snap(50_000, 1, 64), false));
        assert!(m.finish(50_000).healthy);
    }

    #[test]
    fn counter_regression_is_a_conservation_violation() {
        let mut m = HealthMonitor::new(HealthConfig {
            stall_budget_ns: 1_000_000,
        });
        m.observe(&snap(100, 5, 64), true);
        m.observe(&snap(200, 3, 64), true); // delivered went backwards
        let r = m.finish(200);
        assert!(!r.healthy);
        assert_eq!(r.violations.len(), 1);
        assert_eq!(r.violations[0].check, "counter_conservation");
        assert!(r.violations[0].detail.contains("net.delivered"));
    }

    #[test]
    fn buffer_audit_flags_leaks_only() {
        let mut m = HealthMonitor::new(HealthConfig { stall_budget_ns: 1 });
        m.audit_buffer(
            900,
            &BufferAudit {
                node: 0,
                pool: "recv".into(),
                total: 4,
                free: 3,
                in_use: 1,
            },
        );
        m.audit_buffer(
            900,
            &BufferAudit {
                node: 1,
                pool: "recv".into(),
                total: 4,
                free: 2,
                in_use: 1, // one buffer vanished
            },
        );
        let r = m.finish(900);
        assert_eq!(r.buffers_audited, 8);
        assert_eq!(r.violations.len(), 1);
        assert_eq!(r.violations[0].check, "buffer_leak");
        assert!(r.violations[0].detail.contains("node 1"));
    }

    #[test]
    fn frame_observe_matches_snapshot_observe() {
        use crate::frame::{MetricsFrame, MetricsSchema};
        let schema = MetricsSchema::new(vec!["net.delivered".into()], vec!["h0-s0".into()]);
        let mut frame = MetricsFrame::for_schema(&schema);
        let feed = |f: &mut MetricsFrame, at: u64, delivered: u64, fwd: u64| {
            f.at_ns = at;
            f.counters[0] = delivered;
            f.links[0] = [fwd, 0, 0, 0];
        };

        // Same series through both paths: progress, stall, regression.
        let series: [(u64, u64, u64); 5] = [
            (100, 0, 64),
            (600, 0, 128),
            (1700, 0, 128),
            (2400, 1, 256),
            (2500, 0, 256),
        ];
        let mut via_snap = HealthMonitor::new(HealthConfig {
            stall_budget_ns: 1000,
        });
        let mut via_frame = HealthMonitor::new(HealthConfig {
            stall_budget_ns: 1000,
        });
        for (at, delivered, fwd) in series {
            let fired_a = via_snap.observe(&snap(at, delivered, fwd), true);
            feed(&mut frame, at, delivered, fwd);
            let fired_b = via_frame.observe_frame(&frame, &schema, true);
            assert_eq!(fired_a, fired_b, "at {at}");
            if fired_a {
                via_snap.flag_stall(at, Vec::new());
                via_frame.flag_stall(at, Vec::new());
            }
        }
        let (a, b) = (via_snap.finish(3000), via_frame.finish(3000));
        assert_eq!(a.to_json(), b.to_json());
        assert!(!a.healthy);
        // The last sample regressed net.delivered: both paths flag it with
        // the identical message.
        assert!(a
            .violations
            .iter()
            .any(|v| v.detail == "counter net.delivered regressed: 1 -> 0"));
    }

    #[test]
    fn flow_bytes_count_as_progress_on_both_paths() {
        use crate::frame::{MetricsFrame, MetricsSchema};
        // A flow-only stretch: no packet delivery, no link byte, but the
        // flow engine serves bytes every sample.
        let schema = MetricsSchema::new(
            vec!["net.delivered".into(), "flow.bytes_delivered".into()],
            vec!["h0-s0".into()],
        );
        let mut frame = MetricsFrame::for_schema(&schema);
        let cfg = HealthConfig {
            stall_budget_ns: 1000,
        };
        let (mut via_snap, mut via_frame) = (HealthMonitor::new(cfg), HealthMonitor::new(cfg));
        for (i, at) in [500u64, 1000, 1500, 2000, 2500].into_iter().enumerate() {
            let flow_bytes = 4096 * (i as u64 + 1);
            let mut s = snap(at, 0, 0);
            s.counters.insert("flow.bytes_delivered".into(), flow_bytes);
            assert!(!via_snap.observe(&s, true), "snapshot path fired at {at}");
            frame.at_ns = at;
            frame.counters[1] = flow_bytes;
            assert!(
                !via_frame.observe_frame(&frame, &schema, true),
                "frame path fired at {at}"
            );
        }
        assert!(via_snap.finish(2500).healthy);
        assert!(via_frame.finish(2500).healthy);
    }

    #[test]
    fn report_serializes_with_violations() {
        let mut m = HealthMonitor::new(HealthConfig {
            stall_budget_ns: 10,
        });
        // No progress since t = 0 and the budget is tiny, so the very first
        // pending sample already exceeds it.
        assert!(m.observe(&snap(100, 0, 0), true));
        m.flag_stall(100, vec!["packet 7: parked at s0 port 1".into()]);
        let json = m.finish(200).to_json();
        assert!(json.contains("\"healthy\": false"));
        assert!(json.contains("stall_watchdog"));
        assert!(json.contains("packet 7"));
        let mut buf = Vec::new();
        let mut m2 = HealthMonitor::new(HealthConfig { stall_budget_ns: 1 });
        m2.observe(&snap(1, 0, 0), false);
        m2.finish(1).write_json(&mut buf).unwrap();
        assert!(String::from_utf8(buf).unwrap().ends_with("}\n"));
    }
}

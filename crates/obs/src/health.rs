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
//! * **counter conservation** — every counter and link-load value of a
//!   [`MetricsFrame`] is monotonic; a value going *backwards* between
//!   samples means an engine bug (or a wrapping subtraction somewhere).
//!
//! Like the timeline sampler, the monitor is passive and sim-time-only: the
//! integrating world fills a frame at each of its own scheduled sampling
//! events and [`crate::Observers`] feeds it here together with the previous
//! sample (detlint D002 enforces the no-wall-clock contract). Violations
//! land in a structured [`HealthReport`] that bench binaries write to
//! `results/health_report.json`; strict-mode runs exit nonzero when the
//! report is unhealthy.

use crate::frame::{MetricsFrame, MetricsSchema};
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
    /// Samples observed.
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

/// Accumulates samples and violations over a run.
#[derive(Debug)]
pub struct HealthMonitor {
    cfg: HealthConfig,
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
fn link_bytes(f: &MetricsFrame) -> u64 {
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
            last_progress_ns: 0,
            in_stall: false,
            samples: 0,
            buffers_audited: 0,
            violations: Vec::new(),
        }
    }

    /// Feed one absolute sample `frame` (named by `schema`) against `prev`,
    /// the sample before it. `prev` is ignored on the first call: a first
    /// sample has no predecessor, so it runs no progress or regression
    /// check. `pending` says whether traffic exists that still wants to
    /// make progress (packets in flight or messages undelivered) — the
    /// watchdog only arms while something is pending.
    ///
    /// Comparison is positional (index `i` against index `i`), so the
    /// monitor builds no string unless a value actually regressed.
    ///
    /// Returns `true` exactly when the stall watchdog fires for a new stall
    /// episode; the caller then gathers the blocked set (parked packets,
    /// undelivered messages) and reports it via [`Self::flag_stall`]. The
    /// two-phase shape keeps this crate free of network/GM knowledge.
    pub fn observe_frame(
        &mut self,
        frame: &MetricsFrame,
        prev: &MetricsFrame,
        schema: &MetricsSchema,
        pending: bool,
    ) -> bool {
        debug_assert_eq!(frame.counters.len(), schema.counter_keys.len());
        debug_assert_eq!(frame.links.len(), schema.link_names.len());
        let at = frame.at_ns;
        if self.samples > 0 {
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
            }) || link_bytes(frame) != link_bytes(prev);
            if progressed {
                self.last_progress_ns = at;
                self.in_stall = false;
            }
        }
        self.samples += 1;
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
    /// [`Self::observe_frame`] suppresses re-fires until progress resumes).
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
    /// (set when [`Self::observe_frame`] fires, cleared by progress). Integrating
    /// worlds use this to keep their sampling clock alive while a stall is
    /// still being hunted, and to stop once it has been diagnosed.
    pub fn in_stall(&self) -> bool {
        self.in_stall
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
    use std::sync::Arc;

    /// A monitor fed frames over `counters` plus one link `h0-s0`, each
    /// frame against the one fed before it, as [`crate::Observers`] does.
    struct Rig {
        m: HealthMonitor,
        schema: Arc<MetricsSchema>,
        prev: MetricsFrame,
    }

    impl Rig {
        fn new(stall_budget_ns: u64, counters: &[&str]) -> Self {
            let keys = counters.iter().map(|k| (*k).to_string()).collect();
            let schema = MetricsSchema::new(keys, vec!["h0-s0".into()]);
            Rig {
                m: HealthMonitor::new(HealthConfig { stall_budget_ns }),
                prev: MetricsFrame::for_schema(&schema),
                schema,
            }
        }

        /// A rig over `net.delivered` alone.
        fn delivered(stall_budget_ns: u64) -> Self {
            Rig::new(stall_budget_ns, &["net.delivered"])
        }

        /// Feed the sample at `at` with these counter values and `fwd`
        /// bytes on the link; returns whether the watchdog fired.
        fn feed(&mut self, at: u64, counters: &[u64], fwd: u64, pending: bool) -> bool {
            let mut f = MetricsFrame::for_schema(&self.schema);
            f.at_ns = at;
            f.counters.copy_from_slice(counters);
            f.links[0] = [fwd, 0, 0, 0];
            let fired = self.m.observe_frame(&f, &self.prev, &self.schema, pending);
            self.prev = f;
            fired
        }
    }

    #[test]
    fn watchdog_fires_once_per_episode_and_rearms_on_progress() {
        let mut r = Rig::delivered(1000);
        // Active phase: link bytes advance each sample.
        assert!(!r.feed(100, &[0], 64, true));
        assert!(!r.feed(600, &[0], 128, true));
        // Quiet with pending traffic: budget exceeded at 1600 (last progress
        // 600), fires exactly once.
        assert!(!r.feed(1100, &[0], 128, true));
        assert!(r.feed(1700, &[0], 128, true));
        r.m.flag_stall(1700, vec!["msg 0: h1->h2 undelivered".into()]);
        assert!(!r.feed(2300, &[0], 128, true), "no duplicate fire");
        // Progress clears the episode; a later quiet stretch re-fires.
        assert!(!r.feed(2400, &[1], 256, true));
        assert!(r.feed(3500, &[1], 256, true));
        r.m.flag_stall(3500, Vec::new());
        let rep = r.m.finish(4000);
        assert!(!rep.healthy);
        assert_eq!(rep.violations.len(), 2);
        assert_eq!(rep.violations[0].check, "stall_watchdog");
        assert_eq!(rep.violations[0].blocked.len(), 1);
        assert_eq!(rep.last_progress_ns, 2400);
    }

    #[test]
    fn watchdog_stays_quiet_without_pending_traffic() {
        let mut r = Rig::delivered(1000);
        assert!(!r.feed(100, &[1], 64, false));
        // A long idle tail with nothing pending is a finished run, not a
        // stall.
        assert!(!r.feed(50_000, &[1], 64, false));
        assert!(r.m.finish(50_000).healthy);
    }

    #[test]
    fn first_sample_has_no_predecessor() {
        // The first sample is compared with nothing, so it can neither
        // regress nor count as progress.
        let mut r = Rig::delivered(1_000_000);
        r.prev.counters[0] = 99;
        r.feed(100, &[5], 64, true);
        let rep = r.m.finish(100);
        assert!(rep.healthy);
        assert_eq!(rep.last_progress_ns, 0);
        assert_eq!(rep.samples, 1);
    }

    #[test]
    fn counter_regression_is_a_conservation_violation() {
        let mut r = Rig::delivered(1_000_000);
        r.feed(100, &[5], 64, true);
        r.feed(200, &[3], 64, true); // delivered went backwards
        r.feed(300, &[3], 32, true); // and so did the link
        let rep = r.m.finish(300);
        assert!(!rep.healthy);
        assert_eq!(rep.violations.len(), 2);
        assert_eq!(rep.violations[0].check, "counter_conservation");
        assert_eq!(
            rep.violations[0].detail,
            "counter net.delivered regressed: 5 -> 3"
        );
        assert_eq!(
            rep.violations[1].detail,
            "link h0-s0 fwd_bytes regressed: 64 -> 32"
        );
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
    fn progress_stall_and_regression_series() {
        // Progress, a stall, renewed progress, then a regression.
        let mut r = Rig::delivered(1000);
        let mut fired = Vec::new();
        for (at, delivered, fwd) in [
            (100, 0, 64),
            (600, 0, 128),
            (1700, 0, 128),
            (2400, 1, 256),
            (2500, 0, 256),
        ] {
            if r.feed(at, &[delivered], fwd, true) {
                r.m.flag_stall(at, Vec::new());
                fired.push(at);
            }
        }
        assert_eq!(fired, [1700]);
        let rep = r.m.finish(3000);
        assert!(!rep.healthy);
        // Progress is any change, so the regression also counts as one.
        assert_eq!(rep.last_progress_ns, 2500);
        assert_eq!(
            rep.violations
                .iter()
                .map(|v| v.detail.as_str())
                .collect::<Vec<_>>(),
            [
                "no delivery or link advance for 1100 ns (budget 1000 ns) with 0 blocked item(s); last progress at 600 ns",
                "counter net.delivered regressed: 1 -> 0",
            ]
        );
    }

    #[test]
    fn flow_bytes_count_as_progress() {
        // A flow-only stretch: no packet delivery, no link byte, but the
        // flow engine serves bytes every sample.
        let mut r = Rig::new(1000, &["net.delivered", "flow.bytes_delivered"]);
        for (i, at) in [500u64, 1000, 1500, 2000, 2500].into_iter().enumerate() {
            let flow_bytes = 4096 * (i as u64 + 1);
            assert!(!r.feed(at, &[0, flow_bytes], 0, true), "fired at {at}");
        }
        assert!(r.m.finish(2500).healthy);
    }

    #[test]
    fn report_serializes_with_violations() {
        let mut r = Rig::delivered(10);
        // No progress since t = 0 and the budget is tiny, so the very first
        // pending sample already exceeds it.
        assert!(r.feed(100, &[0], 0, true));
        r.m.flag_stall(100, vec!["packet 7: parked at s0 port 1".into()]);
        let json = r.m.finish(200).to_json();
        assert!(json.contains("\"healthy\": false"));
        assert!(json.contains("stall_watchdog"));
        assert!(json.contains("packet 7"));
        let mut buf = Vec::new();
        let mut r2 = Rig::delivered(1);
        r2.feed(1, &[0], 0, false);
        r2.m.finish(1).write_json(&mut buf).unwrap();
        assert!(String::from_utf8(buf).unwrap().ends_with("}\n"));
    }
}

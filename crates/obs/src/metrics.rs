//! The unified metrics registry: one snapshot type for every counter the
//! stack exposes, with per-link load and wormhole blocking-time quantiles.

use itb_sim::stats::Accum;
use serde::Serialize;
use std::collections::BTreeMap;

/// Summary quantiles of a distribution, extracted from an [`Accum`].
///
/// All values are in the unit the underlying samples were recorded in
/// (nanoseconds everywhere in this workspace). NaN fields serialize as JSON
/// `null`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct QuantileSummary {
    /// Sample count.
    pub n: u64,
    /// Sample mean (0 if empty).
    pub mean: f64,
    /// Smallest sample (NaN if empty).
    pub min: f64,
    /// Largest sample (NaN if empty).
    pub max: f64,
    /// Median estimate (~±9% relative error; NaN if empty).
    pub p50: f64,
    /// 95th percentile estimate (NaN if empty).
    pub p95: f64,
    /// 99th percentile estimate (NaN if empty).
    pub p99: f64,
}

impl QuantileSummary {
    /// An all-empty summary.
    pub fn empty() -> Self {
        QuantileSummary {
            n: 0,
            mean: 0.0,
            min: f64::NAN,
            max: f64::NAN,
            p50: f64::NAN,
            p95: f64::NAN,
            p99: f64::NAN,
        }
    }
}

impl From<&Accum> for QuantileSummary {
    fn from(a: &Accum) -> Self {
        QuantileSummary {
            n: a.count(),
            mean: a.mean(),
            min: a.min(),
            max: a.max(),
            p50: a.p50(),
            p95: a.p95(),
            p99: a.p99(),
        }
    }
}

/// Traffic and contention on one physical link (host↔switch or
/// switch↔switch), both directions.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct LinkLoad {
    /// Stable link name, e.g. `"h0-s0"` or `"s0-s1"`.
    pub link: String,
    /// Bytes sent in the forward direction (first endpoint → second).
    pub fwd_bytes: u64,
    /// Bytes sent in the reverse direction.
    pub rev_bytes: u64,
    /// Nanoseconds the forward direction spent STOP-paused.
    pub fwd_blocked_ns: u64,
    /// Nanoseconds the reverse direction spent STOP-paused.
    pub rev_blocked_ns: u64,
}

/// A point-in-time view of every metric the stack exposes.
///
/// Counters from all layers live in one flat namespace
/// (`"net.injected"`, `"nic.3.itb_detects"`, …) so exporters and the
/// timeline artifact need no per-layer knowledge. This is the artifact
/// shape; sampling runs on [`crate::MetricsFrame`] and re-joins names here
/// only when an artifact is written.
#[derive(Debug, Clone, Serialize)]
pub struct Snapshot {
    /// Simulation time the snapshot was taken at, in nanoseconds.
    pub at_ns: u64,
    /// Monotonic counters, keyed by `layer.name` (sorted for stable output).
    pub counters: BTreeMap<String, u64>,
    /// Per-link byte counts and blocking time.
    pub links: Vec<LinkLoad>,
    /// Distribution of per-interval wormhole blocking times (STOP-pause
    /// durations observed on any channel), in nanoseconds.
    pub blocking: QuantileSummary,
}

impl Snapshot {
    /// An empty snapshot at time zero.
    pub fn new() -> Self {
        Snapshot {
            at_ns: 0,
            counters: BTreeMap::new(),
            links: Vec::new(),
            blocking: QuantileSummary::empty(),
        }
    }

    /// A counter value, defaulting to 0 when absent.
    pub fn counter(&self, key: &str) -> u64 {
        self.counters.get(key).copied().unwrap_or(0)
    }

    /// Render as pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).unwrap_or_else(|e| {
            // detlint::allow(S001, snapshot types always serialize; a failure is a programming error)
            panic!("snapshot serialization cannot fail: {e}");
        })
    }
}

impl Default for Snapshot {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_snapshot(scale: u64) -> Snapshot {
        let mut s = Snapshot::new();
        s.at_ns = 1000 * scale;
        s.counters.insert("net.injected".into(), 10 * scale);
        s.counters.insert("nic.0.itb_detects".into(), 3 * scale);
        s.links.push(LinkLoad {
            link: "h0-s0".into(),
            fwd_bytes: 512 * scale,
            rev_bytes: 64 * scale,
            fwd_blocked_ns: 100 * scale,
            rev_blocked_ns: 0,
        });
        s
    }

    #[test]
    fn quantile_summary_from_empty_and_single_sample_accums() {
        // Empty: count 0, mean 0, every order statistic NaN (serializes as
        // JSON null, keeping artifacts valid).
        let q = QuantileSummary::from(&Accum::new());
        assert_eq!(q.n, 0);
        assert_eq!(q.mean, 0.0);
        for v in [q.min, q.max, q.p50, q.p95, q.p99] {
            assert!(v.is_nan(), "empty accum statistic must be NaN");
        }
        // Single sample: every statistic collapses onto it (quantiles are
        // clamped to the observed [min, max], so they are exact here).
        let mut a = Accum::new();
        a.add(42.0);
        let q = QuantileSummary::from(&a);
        assert_eq!(q.n, 1);
        assert_eq!(q.mean, 42.0);
        assert_eq!(q.min, 42.0);
        assert_eq!(q.max, 42.0);
        assert_eq!(q.p50, 42.0);
        assert_eq!(q.p95, 42.0);
        assert_eq!(q.p99, 42.0);
    }

    #[test]
    fn quantile_summary_from_accum() {
        let mut a = Accum::new();
        for i in 1..=100 {
            a.add(f64::from(i));
        }
        let q = QuantileSummary::from(&a);
        assert_eq!(q.n, 100);
        assert!((q.mean - 50.5).abs() < 1e-9);
        assert!((q.p50 / 50.0 - 1.0).abs() < 0.15, "p50={}", q.p50);
        let empty = QuantileSummary::empty();
        assert!(empty.p99.is_nan());
    }

    #[test]
    fn snapshot_serializes_to_json() {
        let s = sample_snapshot(1);
        let json = s.to_json();
        assert!(json.contains("\"net.injected\": 10"));
        assert!(json.contains("\"h0-s0\""));
        // NaN quantiles render as null, keeping the JSON valid.
        assert!(json.contains("\"p99\": null"));
    }
}

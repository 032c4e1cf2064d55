//! Sim-time timeline sampling: a periodic series of [`MetricsFrame`] deltas.
//!
//! The sampler is *passive*: it never reads a clock and never schedules
//! anything itself. The integrating world (see `itb_gm::Cluster`) schedules
//! a sampling event on its own sim-time event queue at a fixed interval and
//! feeds the filled frame through [`crate::Observers`], which hands it to
//! [`TimelineSampler::record_frame`] together with the previous sample; the
//! sampler keeps the per-interval change. Driving the cadence through
//! scheduled events (never wall-clock) is what keeps runs deterministic —
//! detlint rule D002 machine-enforces that no wall-clock source creeps into
//! this path.
//!
//! The artifact is JSONL: one [`IntervalSample`] object per line, so a
//! timeline can be streamed, tailed and diffed without a JSON parser. A
//! same-seed run reproduces the file byte for byte (the CI timeline gate
//! compares two runs with `cmp`).

use crate::frame::{MetricsFrame, MetricsSchema};
use crate::metrics::Snapshot;
use serde::Serialize;
use std::io;
use std::sync::Arc;

/// One sampling interval's worth of change, as written to the artifact.
///
/// `delta` holds counter-wise and link-wise differences over the interval
/// (its `at_ns` is the interval span); its `blocking` quantiles are the
/// cumulative distribution at `t_ns` (summaries cannot be subtracted).
#[derive(Debug, Clone, Serialize)]
pub struct IntervalSample {
    /// Absolute sim time at the *end* of the interval, nanoseconds.
    pub t_ns: u64,
    /// Interval span in nanoseconds (time since the previous sample, or
    /// since t = 0 for the first sample).
    pub interval_ns: u64,
    /// Per-interval counter/link deltas; cumulative blocking quantiles.
    pub delta: Snapshot,
}

/// Collects periodic [`MetricsFrame`]s and turns them into an interval
/// series. Each sample is stored as a name-free delta frame (two small
/// `Vec`s); names are re-joined with the schema only when the artifact is
/// written.
#[derive(Debug, Clone)]
pub struct TimelineSampler {
    interval_ns: u64,
    schema: Arc<MetricsSchema>,
    /// Per-interval deltas: `at_ns` is the interval span, `blocking` the
    /// cumulative summary at the sample; paired with the sample's time.
    samples: Vec<(u64, MetricsFrame)>,
}

impl TimelineSampler {
    /// A sampler for a nominal cadence of `interval_ns` sim nanoseconds
    /// whose frames follow `schema`.
    ///
    /// The cadence is informational (it is echoed into the artifact via
    /// `interval_ns` on each row); the actual spacing is whatever the
    /// integrating world's sampling events produce.
    ///
    /// # Panics
    /// Panics on a zero interval — a zero-period sampler would ask the
    /// integrating world to schedule events that never advance time.
    pub fn new(interval_ns: u64, schema: Arc<MetricsSchema>) -> Self {
        assert!(interval_ns > 0, "timeline interval must be positive");
        TimelineSampler {
            interval_ns,
            schema,
            samples: Vec::new(),
        }
    }

    /// Nominal sampling cadence in sim nanoseconds.
    pub fn interval_ns(&self) -> u64 {
        self.interval_ns
    }

    /// Record `frame` as its positional delta against `base`, the previous
    /// sample (a zeroed frame at t = 0 for the first one). Values that went
    /// backwards saturate to zero; the health monitor is what flags them.
    pub fn record_frame(&mut self, frame: &MetricsFrame, base: &MetricsFrame) {
        let delta = MetricsFrame {
            at_ns: frame.at_ns.saturating_sub(base.at_ns),
            counters: frame
                .counters
                .iter()
                .zip(&base.counters)
                .map(|(&v, &b)| v.saturating_sub(b))
                .collect(),
            links: frame
                .links
                .iter()
                .zip(&base.links)
                .map(|(v, b)| std::array::from_fn(|i| v[i].saturating_sub(b[i])))
                .collect(),
            blocking: frame.blocking,
        };
        self.samples.push((frame.at_ns, delta));
    }

    /// One stored sample re-joined with the schema into an artifact row.
    fn row(&self, (t_ns, delta): &(u64, MetricsFrame)) -> IntervalSample {
        IntervalSample {
            t_ns: *t_ns,
            interval_ns: delta.at_ns,
            delta: delta.to_snapshot(&self.schema),
        }
    }

    /// Every recorded interval as an artifact row.
    pub fn rows(&self) -> Vec<IntervalSample> {
        self.samples.iter().map(|s| self.row(s)).collect()
    }

    /// Number of samples recorded.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Stream the series as JSONL (one compact object per line) into `w`.
    /// Callers wrap file sinks in a `BufWriter` (see `itb_bench`'s
    /// `dump_stream`); each line is one small write.
    pub fn write_jsonl<W: io::Write>(&self, w: &mut W) -> io::Result<()> {
        for s in &self.samples {
            // detlint::allow(S001, interval samples serialize by construction)
            let line = serde_json::to_string(&self.row(s)).expect("interval sample serializes");
            w.write_all(line.as_bytes())?;
            w.write_all(b"\n")?;
        }
        Ok(())
    }

    /// The JSONL series as a string (delegates to [`Self::write_jsonl`]).
    pub fn to_jsonl(&self) -> String {
        let mut buf = Vec::new();
        // detlint::allow(S001, writing into a Vec cannot fail)
        self.write_jsonl(&mut buf).expect("Vec sink never errors");
        // detlint::allow(S001, JSON output is ASCII)
        String::from_utf8(buf).expect("JSONL is valid UTF-8")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Record `(at_ns, net.injected, h0-s0 fwd_bytes)` samples, each
    /// against its predecessor (a zeroed frame at t = 0 for the first).
    fn sampled(interval_ns: u64, series: &[(u64, u64, u64)]) -> TimelineSampler {
        let schema = MetricsSchema::new(vec!["net.injected".into()], vec!["h0-s0".into()]);
        let mut t = TimelineSampler::new(interval_ns, Arc::clone(&schema));
        let mut prev = MetricsFrame::for_schema(&schema);
        for &(at, injected, fwd) in series {
            let mut f = MetricsFrame::for_schema(&schema);
            f.at_ns = at;
            f.counters[0] = injected;
            f.links[0] = [fwd, 0, 0, 0];
            t.record_frame(&f, &prev);
            prev = f;
        }
        t
    }

    #[test]
    fn records_interval_deltas_not_cumulatives() {
        let t = sampled(1000, &[(1000, 10, 512), (2000, 25, 2048)]);
        assert_eq!(t.len(), 2);
        let rows = t.rows();
        // First interval diffs against the zeroed t=0 frame.
        assert_eq!(rows[0].delta.counter("net.injected"), 10);
        assert_eq!(rows[0].interval_ns, 1000);
        // Second interval carries only its own change.
        assert_eq!(rows[1].delta.counter("net.injected"), 15);
        assert_eq!(rows[1].delta.links[0].fwd_bytes, 1536);
        assert_eq!(rows[1].t_ns, 2000);
    }

    #[test]
    fn regressed_values_saturate_to_zero() {
        let t = sampled(1000, &[(1000, 100, 10_000), (2000, 90, 9_000)]);
        let rows = t.rows();
        assert_eq!(
            rows[1].delta.counter("net.injected"),
            0,
            "saturate, never wrap"
        );
        assert_eq!(rows[1].delta.links[0].fwd_bytes, 0, "saturate, never wrap");
    }

    #[test]
    fn jsonl_is_one_line_per_sample() {
        let t = sampled(500, &[(500, 1, 64), (1000, 2, 128)]);
        let out = t.to_jsonl();
        assert_eq!(out.lines().count(), 2);
        assert!(out.lines().next().is_some_and(|l| l.contains("\"t_ns\"")));
        assert!(out.ends_with('\n'));
        let empty = MetricsSchema::new(vec![], vec![]);
        assert_eq!(TimelineSampler::new(1, empty).to_jsonl(), "");
    }

    #[test]
    fn jsonl_bytes_are_pinned() {
        // The artifact row shape, byte for byte: names sorted into the
        // snapshot map, the delta's `at_ns` equal to the interval span, NaN
        // quantiles as null.
        let t = sampled(1000, &[(1000, 10, 512), (2500, 25, 2048)]);
        assert_eq!(t.to_jsonl(), PINNED_JSONL);
    }

    const PINNED_JSONL: &str = concat!(
        r#"{"t_ns":1000,"interval_ns":1000,"delta":{"at_ns":1000,"counters":{"net.injected":10},"links":[{"link":"h0-s0","fwd_bytes":512,"rev_bytes":0,"fwd_blocked_ns":0,"rev_blocked_ns":0}],"blocking":{"n":0,"mean":0.0,"min":null,"max":null,"p50":null,"p95":null,"p99":null}}}"#,
        "\n",
        r#"{"t_ns":2500,"interval_ns":1500,"delta":{"at_ns":1500,"counters":{"net.injected":15},"links":[{"link":"h0-s0","fwd_bytes":1536,"rev_bytes":0,"fwd_blocked_ns":0,"rev_blocked_ns":0}],"blocking":{"n":0,"mean":0.0,"min":null,"max":null,"p50":null,"p95":null,"p99":null}}}"#,
        "\n",
    );

    #[test]
    #[should_panic(expected = "interval must be positive")]
    fn zero_interval_rejected() {
        let _ = TimelineSampler::new(0, MetricsSchema::new(vec![], vec![]));
    }
}

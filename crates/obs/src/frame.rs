//! Flat, allocation-free metric frames for hot sampling paths.
//!
//! [`Snapshot`] is the right *artifact* shape — a sorted string-keyed map
//! serializes stably and diffs trivially — but it is the wrong *sampling*
//! shape: materializing one allocates a `String` per counter and per link,
//! every interval. On the 32-switch load gauntlet that string churn alone
//! dragged throughput from 4.85 to 1.19 Mev/s.
//!
//! The frame path splits the snapshot into two halves with disjoint
//! lifetimes:
//!
//! * [`MetricsSchema`] — the *names*, built once per run. Counter keys and
//!   link names in the integrating world's natural fill order (the order
//!   its fill routine visits them, not sorted).
//! * [`MetricsFrame`] — the *values*, refilled every sample into reusable
//!   `Vec<u64>` / `Vec<[u64; 4]>` buffers. Index `i` of a frame always
//!   means schema entry `i`; the pairing is positional by contract.
//!
//! [`MetricsFrame::to_snapshot`] re-joins the halves into the [`Snapshot`]
//! artifact shape (keys land in a `BTreeMap`, so sorting happens exactly
//! once at materialization), which is how the timeline sampler writes its
//! JSONL artifact from compact per-interval delta frames.

use crate::metrics::{LinkLoad, QuantileSummary, Snapshot};
use std::sync::Arc;

/// Per-link value layout inside a frame: `fwd_bytes`, `rev_bytes`,
/// `fwd_blocked_ns`, `rev_blocked_ns` — the field order of [`LinkLoad`].
pub type LinkVals = [u64; 4];

/// The name half of a metrics frame: counter keys and link names in the
/// integrating world's natural fill order. Built once per run and shared
/// (via [`Arc`]) between the world's [`crate::Observers`] and its timeline
/// sampler.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsSchema {
    /// Counter keys (`"net.injected"`, `"nic.3.itb_detects"`, …) in fill
    /// order.
    pub counter_keys: Vec<String>,
    /// Link names (`"h0-s0"`, `"s0-s1"`, …) in fill order.
    pub link_names: Vec<String>,
}

impl MetricsSchema {
    /// A schema over the given key/name lists.
    pub fn new(counter_keys: Vec<String>, link_names: Vec<String>) -> Arc<Self> {
        Arc::new(MetricsSchema {
            counter_keys,
            link_names,
        })
    }

    /// Position of a counter key, if present.
    pub fn counter_index(&self, key: &str) -> Option<usize> {
        self.counter_keys.iter().position(|k| k == key)
    }
}

/// The value half of a metrics frame: one `u64` per schema counter, one
/// [`LinkVals`] per schema link, plus the cumulative blocking summary.
/// Designed to be refilled in place every sample — steady state performs
/// zero allocations.
#[derive(Debug, Clone)]
pub struct MetricsFrame {
    /// Sim time the frame was filled at, nanoseconds.
    pub at_ns: u64,
    /// Counter values, positionally matching `schema.counter_keys`.
    pub counters: Vec<u64>,
    /// Link values, positionally matching `schema.link_names`.
    pub links: Vec<LinkVals>,
    /// Cumulative blocking-time quantiles at `at_ns`.
    pub blocking: QuantileSummary,
}

impl MetricsFrame {
    /// A zeroed frame sized for `schema`.
    pub fn for_schema(schema: &MetricsSchema) -> Self {
        MetricsFrame {
            at_ns: 0,
            counters: vec![0; schema.counter_keys.len()],
            links: vec![[0; 4]; schema.link_names.len()],
            blocking: QuantileSummary::empty(),
        }
    }

    /// Clear values for refilling (keeps the buffers).
    pub fn reset(&mut self) {
        self.at_ns = 0;
        self.counters.clear();
        self.links.clear();
        self.blocking = QuantileSummary::empty();
    }

    /// Copy `src`'s values into self, reusing existing buffers.
    pub fn copy_from(&mut self, src: &MetricsFrame) {
        self.at_ns = src.at_ns;
        self.counters.clone_from(&src.counters);
        self.links.clone_from(&src.links);
        self.blocking = src.blocking;
    }

    /// Materialize a classic [`Snapshot`] by joining values with `schema`
    /// names. Keys land in the snapshot's `BTreeMap`, so the result is
    /// byte-for-byte what a direct snapshot build would have produced.
    ///
    /// # Panics
    /// Panics when the frame and schema lengths disagree — that is a fill
    /// routine drifting out of lockstep with its schema builder.
    pub fn to_snapshot(&self, schema: &MetricsSchema) -> Snapshot {
        assert_eq!(
            self.counters.len(),
            schema.counter_keys.len(),
            "frame/schema counter length mismatch"
        );
        assert_eq!(
            self.links.len(),
            schema.link_names.len(),
            "frame/schema link length mismatch"
        );
        let mut s = Snapshot::new();
        s.at_ns = self.at_ns;
        for (k, &v) in schema.counter_keys.iter().zip(&self.counters) {
            s.counters.insert(k.clone(), v);
        }
        s.links = schema
            .link_names
            .iter()
            .zip(&self.links)
            .map(
                |(name, &[fwd_bytes, rev_bytes, fwd_blocked_ns, rev_blocked_ns])| LinkLoad {
                    link: name.clone(),
                    fwd_bytes,
                    rev_bytes,
                    fwd_blocked_ns,
                    rev_blocked_ns,
                },
            )
            .collect();
        s.blocking = self.blocking;
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Arc<MetricsSchema> {
        MetricsSchema::new(
            vec!["net.injected".into(), "net.delivered".into()],
            vec!["h0-s0".into()],
        )
    }

    #[test]
    fn frame_materializes_the_same_snapshot_as_a_direct_build() {
        let schema = schema();
        let mut f = MetricsFrame::for_schema(&schema);
        f.at_ns = 1000;
        f.counters[0] = 10;
        f.counters[1] = 7;
        f.links[0] = [512, 64, 100, 0];
        let s = f.to_snapshot(&schema);

        let mut direct = Snapshot::new();
        direct.at_ns = 1000;
        direct.counters.insert("net.injected".into(), 10);
        direct.counters.insert("net.delivered".into(), 7);
        direct.links.push(LinkLoad {
            link: "h0-s0".into(),
            fwd_bytes: 512,
            rev_bytes: 64,
            fwd_blocked_ns: 100,
            rev_blocked_ns: 0,
        });
        assert_eq!(s.to_json(), direct.to_json());
    }

    #[test]
    fn copy_from_reuses_buffers() {
        let schema = schema();
        let mut a = MetricsFrame::for_schema(&schema);
        a.at_ns = 5;
        a.counters[0] = 1;
        let mut b = MetricsFrame::for_schema(&schema);
        b.copy_from(&a);
        assert_eq!(b.at_ns, 5);
        assert_eq!(b.counters, a.counters);
    }

    #[test]
    #[should_panic(expected = "counter length mismatch")]
    fn schema_drift_is_caught() {
        let schema = schema();
        let mut f = MetricsFrame::for_schema(&schema);
        f.counters.pop();
        let _ = f.to_snapshot(&schema);
    }

    #[test]
    fn counter_index_finds_keys() {
        let s = schema();
        assert_eq!(s.counter_index("net.delivered"), Some(1));
        assert_eq!(s.counter_index("absent"), None);
    }
}

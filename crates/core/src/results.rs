//! Serializable experiment results.

use itb_sim::stats::{Accum, Series};
use serde::Serialize;

/// One message size in a latency sweep.
#[derive(Debug, Clone, Serialize)]
pub struct LatencyPoint {
    /// Message size in bytes.
    pub size: u32,
    /// Half-round-trip latency samples in nanoseconds.
    pub half_rtt_ns: Accum,
}

/// A full `gm_allsize`-style latency sweep.
#[derive(Debug, Clone, Serialize)]
pub struct LatencyReport {
    /// Configuration label ("Original MCP code", "UD-ITB", …).
    pub label: String,
    /// One point per size, in sweep order.
    pub points: Vec<LatencyPoint>,
}

impl LatencyReport {
    /// Mean half-round-trip latency versus size, as a plottable series
    /// (x = bytes, y = µs) — the curves of Figures 7 and 8.
    pub fn to_series(&self) -> Series {
        let mut s = Series::new(self.label.clone());
        for p in &self.points {
            s.push(f64::from(p.size), p.half_rtt_ns.mean() / 1000.0);
        }
        s
    }
}

/// The Figure 7 reproduction: original versus ITB-enabled MCP on the same
/// up\*/down\* path.
#[derive(Debug, Clone, Serialize)]
pub struct Fig7Result {
    /// Latency sweep under the stock MCP.
    pub original: LatencyReport,
    /// Latency sweep under the ITB-enabled MCP.
    pub modified: LatencyReport,
}

impl Fig7Result {
    /// Per-size overhead in nanoseconds (modified − original).
    pub fn overhead_ns(&self) -> Series {
        let a = self.modified.to_series();
        let b = self.original.to_series();
        let mut d = a.minus(&b, "ITB support overhead");
        for p in &mut d.points {
            p.1 *= 1000.0; // µs → ns
        }
        d
    }

    /// The paper's headline numbers: (average, maximum) overhead in ns.
    pub fn summary(&self) -> (f64, f64) {
        let d = self.overhead_ns();
        (d.mean_y(), d.max_y())
    }
}

/// The Figure 8 reproduction: 5-crossing up\*/down\* path versus 5-crossing
/// path through one in-transit buffer.
#[derive(Debug, Clone, Serialize)]
pub struct Fig8Result {
    /// Plain up\*/down\* path (the "UD" curve).
    pub ud: LatencyReport,
    /// Path with one in-transit buffer (the "UD-ITB" curve).
    pub itb: LatencyReport,
}

impl Fig8Result {
    /// Per-ITB overhead versus size, in µs. Only one direction carries the
    /// ITB, so — following the paper — the overhead is twice the
    /// half-round-trip difference.
    pub fn overhead_us(&self) -> Series {
        let a = self.itb.to_series();
        let b = self.ud.to_series();
        let mut d = a.minus(&b, "per-ITB overhead");
        for p in &mut d.points {
            p.1 *= 2.0;
        }
        d
    }

    /// Mean per-ITB overhead in µs and the relative overhead at the
    /// smallest and largest size (the paper's 10 % → 3 % claim).
    pub fn summary(&self) -> Fig8Summary {
        let over = self.overhead_us();
        let ud = self.ud.to_series();
        let rel = |ix: usize| {
            let (_, o) = over.points[ix];
            let (_, base) = ud.points[ix];
            o / (2.0 * base) * 100.0 // relative to one-way latency
        };
        Fig8Summary {
            mean_overhead_us: over.mean_y(),
            relative_small_pct: rel(0),
            relative_large_pct: rel(over.points.len() - 1),
        }
    }
}

/// Headline numbers of the Figure 8 reproduction.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct Fig8Summary {
    /// Mean per-ITB latency cost (paper: ≈1.3 µs).
    pub mean_overhead_us: f64,
    /// Relative overhead at the smallest size (paper: ≈10 %).
    pub relative_small_pct: f64,
    /// Relative overhead at the largest size (paper: ≈3 %).
    pub relative_large_pct: f64,
}

/// One offered-load point of a loaded-network sweep.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct LoadPoint {
    /// Offered traffic per host, MB/s.
    pub offered_mb_s: f64,
    /// Accepted (delivered) network throughput, MB/s aggregate.
    pub accepted_mb_s: f64,
    /// Mean message latency among delivered messages, µs.
    pub avg_latency_us: f64,
    /// 99th-percentile message latency (exact nearest rank), µs.
    pub p99_latency_us: f64,
    /// Messages sent during the measurement window.
    pub sent: u64,
    /// Of those, delivered before the horizon.
    pub delivered: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(label: &str, ys_us: &[f64]) -> LatencyReport {
        LatencyReport {
            label: label.into(),
            points: ys_us
                .iter()
                .enumerate()
                .map(|(i, &y)| {
                    let mut a = Accum::new();
                    a.add(y * 1000.0);
                    LatencyPoint {
                        size: 1 << i,
                        half_rtt_ns: a,
                    }
                })
                .collect(),
        }
    }

    #[test]
    fn fig7_overhead_difference() {
        let f = Fig7Result {
            original: report("orig", &[10.0, 20.0]),
            modified: report("mod", &[10.125, 20.125]),
        };
        let (avg, max) = f.summary();
        assert!((avg - 125.0).abs() < 1e-6);
        assert!((max - 125.0).abs() < 1e-6);
    }

    #[test]
    fn fig8_overhead_is_doubled_difference() {
        let f = Fig8Result {
            ud: report("ud", &[10.0, 40.0]),
            itb: report("itb", &[10.65, 40.65]),
        };
        let s = f.summary();
        assert!((s.mean_overhead_us - 1.3).abs() < 1e-9);
        // relative at small: 1.3 / 20 = 6.5 %
        assert!((s.relative_small_pct - 6.5).abs() < 1e-9);
        assert!(s.relative_large_pct < s.relative_small_pct);
    }

    #[test]
    fn series_conversion_scales_units() {
        let r = report("x", &[12.5]);
        let s = r.to_series();
        assert_eq!(s.points[0], (1.0, 12.5));
    }
}

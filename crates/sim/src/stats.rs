//! Streaming statistics for experiment harnesses.

use serde::Serialize;

/// Number of log-histogram sub-buckets per octave (power of two). Four per
/// octave gives bucket edges ~19% apart, i.e. quantiles good to ~±9%.
const ACCUM_SUB_BUCKETS: usize = 4;
/// Total log-histogram buckets. Bucket 0 holds all samples `< 1`; the top
/// bucket absorbs everything beyond `2^(256/4) = 2^64`.
const ACCUM_BUCKETS: usize = 256;

/// Welford-style streaming accumulator: count, mean, variance, min, max —
/// plus approximate quantiles from a fixed-size log-linear histogram
/// (lazy-allocated on the first sample, so empty accumulators stay tiny).
///
/// Serializes to a JSON summary object
/// `{n, mean, stddev, min, max, p50, p95, p99}` rather than raw buckets.
#[derive(Debug, Clone)]
pub struct Accum {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
    buckets: Vec<u64>,
}

impl Default for Accum {
    fn default() -> Self {
        Self::new()
    }
}

impl Accum {
    /// Empty accumulator.
    pub fn new() -> Self {
        Accum {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            buckets: Vec::new(),
        }
    }

    /// Log-histogram bucket index for a sample.
    // The floor()ed index is clamped into [0, ACCUM_BUCKETS) before the
    // final cast, so neither conversion can truncate meaningfully.
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    fn bucket_of(x: f64) -> usize {
        if x.is_nan() || x < 1.0 {
            // Sub-unit, zero, negative and NaN samples all land in bucket 0;
            // quantile() clamps to the true min/max so they stay honest.
            return 0;
        }
        let idx = (x.log2() * ACCUM_SUB_BUCKETS as f64).floor() as i64;
        idx.clamp(0, ACCUM_BUCKETS as i64 - 1) as usize
    }

    /// Representative value for a bucket (its geometric midpoint).
    fn bucket_value(idx: usize) -> f64 {
        ((idx as f64 + 0.5) / ACCUM_SUB_BUCKETS as f64).exp2()
    }

    /// Record one sample.
    pub fn add(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
        if self.buckets.is_empty() {
            self.buckets = vec![0; ACCUM_BUCKETS];
        }
        self.buckets[Self::bucket_of(x)] += 1;
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.n
    }
    /// Sample mean (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }
    /// Unbiased sample standard deviation (0 for < 2 samples).
    pub fn stddev(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            (self.m2 / (self.n - 1) as f64).sqrt()
        }
    }
    /// Smallest sample (NaN if empty).
    pub fn min(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.min
        }
    }
    /// Largest sample (NaN if empty).
    pub fn max(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.max
        }
    }

    /// Approximate quantile (`q` in `[0, 1]`) from the log-linear histogram:
    /// geometric bucket midpoints, ~±9% relative error, clamped to the exact
    /// observed `[min, max]`. NaN if empty.
    // ceil(q * n) with q in [0, 1] stays within the sample count.
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q));
        if self.n == 0 {
            return f64::NAN;
        }
        let target = ((q * self.n as f64).ceil() as u64).max(1);
        let mut cum = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            cum += c;
            if cum >= target {
                return Self::bucket_value(i).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Median estimate (NaN if empty).
    pub fn p50(&self) -> f64 {
        self.quantile(0.50)
    }
    /// 95th-percentile estimate (NaN if empty).
    pub fn p95(&self) -> f64 {
        self.quantile(0.95)
    }
    /// 99th-percentile estimate (NaN if empty).
    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }

    /// Merge another accumulator into this one (parallel reduction).
    pub fn merge(&mut self, other: &Accum) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n = self.n + other.n;
        let delta = other.mean - self.mean;
        let mean = self.mean + delta * other.n as f64 / n as f64;
        let m2 = self.m2 + other.m2 + delta * delta * (self.n as f64 * other.n as f64) / n as f64;
        self.n = n;
        self.mean = mean;
        self.m2 = m2;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        if !other.buckets.is_empty() {
            if self.buckets.is_empty() {
                self.buckets = vec![0; ACCUM_BUCKETS];
            }
            for (b, &o) in self.buckets.iter_mut().zip(&other.buckets) {
                *b += o;
            }
        }
    }
}

impl Serialize for Accum {
    fn to_value(&self) -> serde::Value {
        use serde::Value;
        Value::Object(vec![
            ("n".to_string(), Value::UInt(self.n)),
            ("mean".to_string(), Value::Float(self.mean())),
            ("stddev".to_string(), Value::Float(self.stddev())),
            ("min".to_string(), Value::Float(self.min())),
            ("max".to_string(), Value::Float(self.max())),
            ("p50".to_string(), Value::Float(self.p50())),
            ("p95".to_string(), Value::Float(self.p95())),
            ("p99".to_string(), Value::Float(self.p99())),
        ])
    }
}

/// A named (x, y) series — the unit of figure reproduction. Each paper curve
/// ("Original MCP code", "UD-ITB", …) becomes one `Series`.
#[derive(Debug, Clone, Serialize)]
pub struct Series {
    /// Curve label as it would appear in the figure legend.
    pub label: String,
    /// Data points in x order.
    pub points: Vec<(f64, f64)>,
}

impl Series {
    /// Empty series with a legend label.
    pub fn new(label: impl Into<String>) -> Self {
        Series {
            label: label.into(),
            points: Vec::new(),
        }
    }

    /// Append a point.
    pub fn push(&mut self, x: f64, y: f64) {
        self.points.push((x, y));
    }

    /// y value at x, if present.
    pub fn y_at(&self, x: f64) -> Option<f64> {
        self.points
            .iter()
            .find(|(px, _)| (px - x).abs() < 1e-9)
            .map(|&(_, y)| y)
    }

    /// Pointwise difference `self − other` at shared x values.
    pub fn minus(&self, other: &Series, label: impl Into<String>) -> Series {
        let mut out = Series::new(label);
        for &(x, y) in &self.points {
            if let Some(oy) = other.y_at(x) {
                out.push(x, y - oy);
            }
        }
        out
    }

    /// Mean of the y values.
    pub fn mean_y(&self) -> f64 {
        if self.points.is_empty() {
            return f64::NAN;
        }
        self.points.iter().map(|&(_, y)| y).sum::<f64>() / self.points.len() as f64
    }

    /// Maximum of the y values.
    pub fn max_y(&self) -> f64 {
        self.points
            .iter()
            .map(|&(_, y)| y)
            .fold(f64::NEG_INFINITY, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accum_basic_moments() {
        let mut a = Accum::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            a.add(x);
        }
        assert_eq!(a.count(), 8);
        assert!((a.mean() - 5.0).abs() < 1e-12);
        assert!((a.stddev() - 2.138089935299395).abs() < 1e-9);
        assert_eq!(a.min(), 2.0);
        assert_eq!(a.max(), 9.0);
    }

    #[test]
    fn accum_empty_is_safe() {
        let a = Accum::new();
        assert_eq!(a.mean(), 0.0);
        assert_eq!(a.stddev(), 0.0);
        assert!(a.min().is_nan());
    }

    #[test]
    fn accum_quantiles_track_uniform_stream() {
        let mut a = Accum::new();
        for i in 1..=10_000 {
            a.add(f64::from(i));
        }
        // Log-bucket quantiles carry ~±9% relative error.
        assert!((a.p50() / 5000.0 - 1.0).abs() < 0.10, "p50={}", a.p50());
        assert!((a.p95() / 9500.0 - 1.0).abs() < 0.10, "p95={}", a.p95());
        assert!((a.p99() / 9900.0 - 1.0).abs() < 0.10, "p99={}", a.p99());
        // Quantiles never escape the observed range.
        assert!(a.quantile(0.0) >= 1.0);
        assert!(a.quantile(1.0) <= 10_000.0);
    }

    #[test]
    fn accum_quantiles_handle_edge_samples() {
        let empty = Accum::new();
        assert!(empty.p50().is_nan());
        let mut a = Accum::new();
        a.add(0.0);
        a.add(-3.0);
        a.add(0.25);
        // Sub-unit samples collapse into bucket 0; clamped to observed range.
        assert!(a.p50() >= -3.0 && a.p50() <= 0.25, "p50={}", a.p50());
        let mut one = Accum::new();
        one.add(42.0);
        assert!((one.p50() / 42.0 - 1.0).abs() < 0.10, "p50={}", one.p50());
        assert_eq!(one.quantile(1.0), 42.0);
    }

    #[test]
    fn accum_merge_combines_quantiles() {
        let mut left = Accum::new();
        let mut right = Accum::new();
        for i in 1..=500 {
            left.add(f64::from(i));
        }
        for i in 501..=1000 {
            right.add(f64::from(i));
        }
        left.merge(&right);
        assert!(
            (left.p50() / 500.0 - 1.0).abs() < 0.10,
            "p50={}",
            left.p50()
        );
        // Merging into an empty accumulator clones buckets too.
        let mut fresh = Accum::new();
        fresh.merge(&left);
        assert!(
            (fresh.p95() / 950.0 - 1.0).abs() < 0.10,
            "p95={}",
            fresh.p95()
        );
    }

    #[test]
    fn accum_serializes_to_summary_object() {
        let mut a = Accum::new();
        for x in [10.0, 20.0, 30.0] {
            a.add(x);
        }
        let v = serde::Serialize::to_value(&a);
        let serde::Value::Object(fields) = v else {
            panic!("expected object");
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            ["n", "mean", "stddev", "min", "max", "p50", "p95", "p99"]
        );
    }

    #[test]
    fn accum_merge_matches_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut whole = Accum::new();
        for &x in &xs {
            whole.add(x);
        }
        let mut left = Accum::new();
        let mut right = Accum::new();
        for &x in &xs[..37] {
            left.add(x);
        }
        for &x in &xs[37..] {
            right.add(x);
        }
        left.merge(&right);
        assert_eq!(left.count(), whole.count());
        assert!((left.mean() - whole.mean()).abs() < 1e-9);
        assert!((left.stddev() - whole.stddev()).abs() < 1e-9);
    }

    #[test]
    fn series_difference() {
        let mut a = Series::new("a");
        let mut b = Series::new("b");
        for x in 0..5 {
            a.push(x as f64, 2.0 * x as f64 + 1.0);
            b.push(x as f64, 2.0 * x as f64);
        }
        let d = a.minus(&b, "a-b");
        assert_eq!(d.points.len(), 5);
        assert!(d.points.iter().all(|&(_, y)| (y - 1.0).abs() < 1e-12));
        assert!((d.mean_y() - 1.0).abs() < 1e-12);
        assert!((a.max_y() - 9.0).abs() < 1e-12);
    }
}

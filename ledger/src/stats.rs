//! Order statistics over a handful of repeated measurements.

/// Median, quartiles, extremes and median absolute deviation of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub p25: f64,
    pub p75: f64,
    pub min: f64,
    pub max: f64,
    pub mad: f64,
}

/// Quantile `q` in [0, 1] of an ascending slice, interpolating linearly
/// between the two nearest ranks (the "type 7" rule spreadsheets use).
fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `values`.
///
/// # Panics
/// Panics on an empty sample.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    quantile_sorted(&sorted(values), 0.5)
}

/// Summarise `values`.
///
/// # Panics
/// Panics on an empty sample.
pub fn summarize(values: &[f64]) -> Summary {
    assert!(!values.is_empty(), "summary of an empty sample");
    let s = sorted(values);
    let median = quantile_sorted(&s, 0.5);
    let deviations: Vec<f64> = s.iter().map(|v| (v - median).abs()).collect();
    Summary {
        n: s.len(),
        median,
        p25: quantile_sorted(&s, 0.25),
        p75: quantile_sorted(&s, 0.75),
        min: s[0],
        max: s[s.len() - 1],
        mad: self::median(&deviations),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn odd_count() {
        let s = summarize(&[5.0, 1.0, 3.0, 2.0, 4.0]);
        assert_eq!(s.n, 5);
        assert_eq!(s.median, 3.0);
        assert_eq!((s.p25, s.p75), (2.0, 4.0));
        assert_eq!((s.min, s.max), (1.0, 5.0));
        // Deviations from 3: 2 2 0 1 1 -> median 1.
        assert_eq!(s.mad, 1.0);
    }

    #[test]
    fn even_count_interpolates() {
        let s = summarize(&[4.0, 1.0, 2.0, 3.0]);
        assert_eq!(s.median, 2.5);
        assert_eq!((s.p25, s.p75), (1.75, 3.25));
        // Deviations from 2.5: 1.5 0.5 0.5 1.5 -> median 1.
        assert_eq!(s.mad, 1.0);
    }

    #[test]
    fn single_value() {
        let s = summarize(&[7.5]);
        assert_eq!(
            s,
            Summary {
                n: 1,
                median: 7.5,
                p25: 7.5,
                p75: 7.5,
                min: 7.5,
                max: 7.5,
                mad: 0.0,
            }
        );
    }

    #[test]
    fn equal_values_have_no_spread() {
        let s = summarize(&[2.0; 6]);
        assert_eq!((s.median, s.p25, s.p75, s.mad), (2.0, 2.0, 2.0, 0.0));
    }

    #[test]
    #[should_panic(expected = "empty sample")]
    fn empty_sample_panics() {
        median(&[]);
    }
}

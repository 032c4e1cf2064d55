//! Simulation clock types.
//!
//! The clock is an integer count of **picoseconds**. All the physical rates
//! in the modelled hardware divide evenly into picoseconds closely enough
//! that cumulative rounding never exceeds one picosecond per event:
//!
//! * Myrinet link: 160 MB/s → 6 250 ps per byte (exact),
//! * LANai 7 clock: 66 MHz → 15 151 ps per cycle (15.151 ns, < 0.01 % error),
//! * PCI 64/33 burst: 264 MB/s → 3 787 ps per byte.

use serde::Serialize;
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An absolute instant on the simulation clock, in picoseconds since t = 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize)]
pub struct SimTime(u64);

/// A span of simulated time, in picoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize)]
pub struct SimDuration(u64);

impl SimTime {
    /// The origin of simulated time.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant (used as an "infinitely far" sentinel).
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Construct from raw picoseconds.
    #[inline]
    pub const fn from_ps(ps: u64) -> Self {
        SimTime(ps)
    }
    /// Construct from nanoseconds.
    #[inline]
    pub const fn from_ns(ns: u64) -> Self {
        SimTime(ns * 1_000)
    }
    /// Construct from microseconds.
    #[inline]
    pub const fn from_us(us: u64) -> Self {
        SimTime(us * 1_000_000)
    }
    /// Construct from milliseconds.
    #[inline]
    pub const fn from_ms(ms: u64) -> Self {
        SimTime(ms * 1_000_000_000)
    }

    /// Raw picosecond count.
    #[inline]
    pub const fn as_ps(self) -> u64 {
        self.0
    }
    /// Value in nanoseconds (floating point; for reporting only).
    #[inline]
    pub fn as_ns_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }
    /// Value in microseconds (floating point; for reporting only).
    #[inline]
    pub fn as_us_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Time elapsed since `earlier`, saturating at zero.
    #[inline]
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// The later of two instants.
    #[inline]
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }
    /// The earlier of two instants.
    #[inline]
    pub fn min(self, other: SimTime) -> SimTime {
        SimTime(self.0.min(other.0))
    }
}

impl SimDuration {
    /// Zero-length span.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Construct from raw picoseconds.
    #[inline]
    pub const fn from_ps(ps: u64) -> Self {
        SimDuration(ps)
    }
    /// Construct from nanoseconds.
    #[inline]
    pub const fn from_ns(ns: u64) -> Self {
        SimDuration(ns * 1_000)
    }
    /// Construct from microseconds.
    #[inline]
    pub const fn from_us(us: u64) -> Self {
        SimDuration(us * 1_000_000)
    }
    /// Construct from milliseconds.
    #[inline]
    pub const fn from_ms(ms: u64) -> Self {
        SimDuration(ms * 1_000_000_000)
    }

    /// Quantise a real-valued nanosecond span onto the integer clock.
    ///
    /// This is the *only* sanctioned crossing from the float domain into
    /// simulated time (detlint rule D003): traffic generators draw
    /// real-valued gaps (e.g. exponential inter-arrival samples) and must
    /// round exactly once, here, truncating toward zero. Negative or NaN
    /// inputs saturate to zero per Rust's float→int cast semantics.
    #[inline]
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    pub fn from_ns_f64(ns: f64) -> Self {
        SimDuration((ns * 1e3) as u64)
    }

    /// Quantise a real-valued microsecond span onto the integer clock.
    ///
    /// See [`SimDuration::from_ns_f64`]; same single-quantisation contract.
    #[inline]
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    pub fn from_us_f64(us: f64) -> Self {
        SimDuration((us * 1e6) as u64)
    }

    /// Raw picosecond count.
    #[inline]
    pub const fn as_ps(self) -> u64 {
        self.0
    }
    /// Value in nanoseconds (floating point; for reporting only).
    #[inline]
    pub fn as_ns_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }
    /// Value in microseconds (floating point; for reporting only).
    #[inline]
    pub fn as_us_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Saturating subtraction.
    #[inline]
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// The longer of two spans.
    #[inline]
    pub fn max(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.max(other.0))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, d: SimDuration) -> SimTime {
        SimTime(self.0 + d.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, d: SimDuration) {
        self.0 += d.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    /// Panics in debug builds if `rhs` is later than `self`.
    #[inline]
    fn sub(self, rhs: SimTime) -> SimDuration {
        debug_assert!(self.0 >= rhs.0, "negative SimDuration: {self:?} - {rhs:?}");
        SimDuration(self.0 - rhs.0)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimDuration {
        debug_assert!(self.0 >= rhs.0, "negative SimDuration");
        SimDuration(self.0 - rhs.0)
    }
}

impl SubAssign for SimDuration {
    #[inline]
    fn sub_assign(&mut self, rhs: SimDuration) {
        debug_assert!(self.0 >= rhs.0, "negative SimDuration");
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn mul(self, n: u64) -> SimDuration {
        SimDuration(self.0 * n)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn div(self, n: u64) -> SimDuration {
        SimDuration(self.0 / n)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}us", self.as_us_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 < 1_000_000 {
            write!(f, "{:.1}ns", self.as_ns_f64())
        } else {
            write!(f, "{:.3}us", self.as_us_f64())
        }
    }
}

/// A transfer rate expressed as picoseconds per byte.
///
/// Keeping the rate in time-per-byte (rather than bytes-per-time) makes
/// transfer-completion arithmetic a single multiply with no division.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub struct Bandwidth {
    ps_per_byte: u64,
}

impl Bandwidth {
    /// Construct from picoseconds per byte.
    #[inline]
    pub const fn from_ps_per_byte(ps: u64) -> Self {
        Bandwidth { ps_per_byte: ps }
    }

    /// Construct from a rate in megabytes per second (10^6 bytes/s).
    ///
    /// `Bandwidth::from_mbytes_per_sec(160)` is the Myrinet link rate used in
    /// the paper's testbed.
    #[inline]
    pub const fn from_mbytes_per_sec(mb: u64) -> Self {
        // 1 byte at X MB/s takes 10^12 / (X * 10^6) ps.
        Bandwidth {
            ps_per_byte: 1_000_000 / mb,
        }
    }

    /// Picoseconds needed to move one byte.
    #[inline]
    pub const fn ps_per_byte(self) -> u64 {
        self.ps_per_byte
    }

    /// Time to transfer `bytes` bytes at this rate.
    #[inline]
    pub const fn transfer_time(self, bytes: u64) -> SimDuration {
        SimDuration::from_ps(self.ps_per_byte * bytes)
    }

    /// Rate in megabytes per second, for reporting.
    #[inline]
    pub fn mbytes_per_sec(self) -> f64 {
        1e6 / self.ps_per_byte as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(SimTime::from_ns(1).as_ps(), 1_000);
        assert_eq!(SimTime::from_us(1).as_ps(), 1_000_000);
        assert_eq!(SimTime::from_ms(1).as_ps(), 1_000_000_000);
        assert_eq!(SimDuration::from_us(3).as_ns_f64(), 3_000.0);
    }

    #[test]
    fn arithmetic_roundtrip() {
        let t = SimTime::from_ns(100);
        let d = SimDuration::from_ns(40);
        assert_eq!((t + d) - t, d);
        let mut t2 = t;
        t2 += d;
        assert_eq!(t2, SimTime::from_ns(140));
    }

    #[test]
    fn saturating_since_clamps() {
        let a = SimTime::from_ns(10);
        let b = SimTime::from_ns(30);
        assert_eq!(b.saturating_since(a), SimDuration::from_ns(20));
        assert_eq!(a.saturating_since(b), SimDuration::ZERO);
    }

    #[test]
    fn duration_scaling() {
        let d = SimDuration::from_ns(7);
        assert_eq!(d * 3, SimDuration::from_ns(21));
        assert_eq!((d * 4) / 2, SimDuration::from_ns(14));
    }

    #[test]
    fn myrinet_link_rate_is_exact() {
        let link = Bandwidth::from_mbytes_per_sec(160);
        assert_eq!(link.ps_per_byte(), 6_250);
        assert_eq!(link.transfer_time(4), SimDuration::from_ps(25_000));
        assert!((link.mbytes_per_sec() - 160.0).abs() < 1e-9);
    }

    #[test]
    fn pci_rate() {
        let pci = Bandwidth::from_mbytes_per_sec(264);
        assert_eq!(pci.ps_per_byte(), 3_787);
        // 4 KB page at PCI burst rate ≈ 15.5 us.
        let t = pci.transfer_time(4096);
        assert!((t.as_us_f64() - 15.51).abs() < 0.1, "{t}");
    }

    #[test]
    fn float_quantisation_truncates_once() {
        assert_eq!(SimDuration::from_ns_f64(1.75).as_ps(), 1_750);
        assert_eq!(SimDuration::from_ns_f64(0.0004).as_ps(), 0);
        assert_eq!(SimDuration::from_us_f64(1.5).as_ps(), 1_500_000);
        // Saturating float→int casts: negatives and NaN clamp to zero.
        assert_eq!(SimDuration::from_ns_f64(-3.0).as_ps(), 0);
        assert_eq!(SimDuration::from_ns_f64(f64::NAN).as_ps(), 0);
    }

    #[test]
    fn min_max() {
        let a = SimTime::from_ns(5);
        let b = SimTime::from_ns(9);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        assert_eq!(
            SimDuration::from_ns(5).max(SimDuration::from_ns(9)),
            SimDuration::from_ns(9)
        );
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", SimDuration::from_ns(125)), "125.0ns");
        assert_eq!(format!("{}", SimDuration::from_us(3)), "3.000us");
        assert_eq!(format!("{}", SimTime::from_us(2)), "2.000us");
    }
}

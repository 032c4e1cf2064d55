//! Quantised per-flow transfer rates for the hybrid flow-level engine.
//!
//! The flow engine's max-min fair solver works in floating point (water
//! filling over link capacities has no clean integer form), but everything
//! that touches the event queue must be integer picoseconds or determinism
//! dies by accumulated rounding. [`ByteInterval`] is the bridge: a solved
//! real-valued rate is quantised **exactly once** — through
//! [`SimDuration::from_ns_f64`], the workspace's only sanctioned float→time
//! crossing (detlint rule D003) — into an integer *picoseconds-per-byte*
//! interval, and every subsequent completion time and byte-count
//! computation is pure integer arithmetic on that interval.
//!
//! ## The rounding rule
//!
//! `from_rate(bytes_per_ns)` converts the rate to its reciprocal
//! (nanoseconds per byte), truncates it toward zero onto the picosecond
//! grid via [`SimDuration::from_ns_f64`], then clamps to at least 1 ps per
//! byte. Truncating the *interval* rounds the effective rate **up**, so a
//! quantised flow never finishes later than the real-valued solution says;
//! the clamp bounds the optimism at one byte per picosecond (10⁶ MB/s,
//! four orders of magnitude above a Myrinet link — unreachable in
//! practice). This exact rule is pinned by a detlint fixture pair: solving
//! in floats is fine, but the reciprocal must cross through
//! `from_ns_f64`, never through a bare `as u64` on a division result.

use crate::time::{Bandwidth, SimDuration};
use serde::Serialize;

/// An integer per-byte service interval: the quantised form of a
/// flow-level rate allocation.
///
/// Semantically identical to [`Bandwidth`] (both are ps/byte) but kept as
/// a separate type because the two arrive from different worlds:
/// `Bandwidth` is configured hardware truth (always exact), a
/// `ByteInterval` is the *output of a float solver* and carries the
/// one-time quantisation documented at the module level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
pub struct ByteInterval {
    ps_per_byte: u64,
}

impl ByteInterval {
    /// Quantise a solved rate in **bytes per nanosecond** (1 byte/ns =
    /// 1000 MB/s). This is the single float→integer crossing of the flow
    /// engine; see the module docs for the exact rounding rule.
    ///
    /// Non-positive, NaN and infinite rates quantise to the slowest
    /// representable interval (`u64::MAX` ps/byte — effectively stalled),
    /// so a degenerate solver output parks the flow instead of corrupting
    /// the clock.
    #[inline]
    pub fn from_rate(bytes_per_ns: f64) -> Self {
        if bytes_per_ns.is_nan() || bytes_per_ns <= 0.0 {
            return ByteInterval {
                ps_per_byte: u64::MAX,
            };
        }
        let ns_per_byte = 1.0 / bytes_per_ns;
        // from_ns_f64 truncates toward zero and saturates at u64::MAX for
        // overflowing reciprocals (tiny but positive rates).
        let quantised = SimDuration::from_ns_f64(ns_per_byte).as_ps();
        ByteInterval {
            ps_per_byte: quantised.max(1),
        }
    }

    /// An exact interval from configured hardware bandwidth (no rounding).
    #[inline]
    pub const fn from_bandwidth(bw: Bandwidth) -> Self {
        ByteInterval {
            ps_per_byte: bw.ps_per_byte(),
        }
    }

    /// Construct from raw picoseconds per byte (exact; clamped to ≥ 1).
    #[inline]
    pub const fn from_ps_per_byte(ps: u64) -> Self {
        ByteInterval {
            ps_per_byte: if ps == 0 { 1 } else { ps },
        }
    }

    /// The raw integer interval.
    #[inline]
    pub const fn ps_per_byte(self) -> u64 {
        self.ps_per_byte
    }

    /// True when the interval is the stalled sentinel (degenerate rate).
    #[inline]
    pub const fn is_stalled(self) -> bool {
        self.ps_per_byte == u64::MAX
    }

    /// Time to move `bytes` bytes at this rate — pure integer multiply,
    /// saturating so the stalled sentinel yields an unreachable deadline
    /// instead of wrapping.
    #[inline]
    pub const fn time_for(self, bytes: u64) -> SimDuration {
        SimDuration::from_ps(self.ps_per_byte.saturating_mul(bytes))
    }

    /// Whole bytes that complete within `window` at this rate — pure
    /// integer divide, truncating (a partially-served byte stays in
    /// flight for the next round).
    #[inline]
    pub const fn bytes_in(self, window: SimDuration) -> u64 {
        window.as_ps() / self.ps_per_byte
    }

    /// Effective rate in bytes per nanosecond, for reporting only.
    #[inline]
    pub fn rate_bytes_per_ns(self) -> f64 {
        1e3 / self.ps_per_byte as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantisation_rounds_the_rate_up() {
        // 0.15 bytes/ns → 6.666… ns/byte → truncates to 6666 ps/byte,
        // which is a (very slightly) faster effective rate.
        let q = ByteInterval::from_rate(0.15);
        assert_eq!(q.ps_per_byte(), 6_666);
        assert!(q.rate_bytes_per_ns() >= 0.15);
    }

    #[test]
    fn exact_rates_stay_exact() {
        // The Myrinet link rate: 0.16 bytes/ns = 6250 ps/byte exactly.
        let q = ByteInterval::from_rate(0.16);
        assert_eq!(q.ps_per_byte(), 6_250);
        assert_eq!(
            q,
            ByteInterval::from_bandwidth(Bandwidth::from_mbytes_per_sec(160))
        );
    }

    #[test]
    fn degenerate_rates_stall_instead_of_corrupting() {
        for bad in [0.0, -1.0, f64::NAN, f64::NEG_INFINITY] {
            let q = ByteInterval::from_rate(bad);
            assert!(q.is_stalled(), "{bad} must stall");
            // An unreachable deadline, not a wrap.
            assert_eq!(q.time_for(2).as_ps(), u64::MAX);
            assert_eq!(q.bytes_in(SimDuration::from_ms(1)), 0);
        }
        // +inf rate clamps to the 1 ps/byte ceiling, not zero.
        assert_eq!(ByteInterval::from_rate(f64::INFINITY).ps_per_byte(), 1);
        assert_eq!(ByteInterval::from_ps_per_byte(0).ps_per_byte(), 1);
    }

    #[test]
    fn integer_arithmetic_after_the_crossing() {
        let q = ByteInterval::from_ps_per_byte(6_250);
        assert_eq!(q.time_for(512), SimDuration::from_ps(3_200_000));
        assert_eq!(q.bytes_in(SimDuration::from_ps(3_200_000)), 512);
        // Partial bytes truncate: one ps short of a byte is zero bytes.
        assert_eq!(q.bytes_in(SimDuration::from_ps(6_249)), 0);
        assert_eq!(q.bytes_in(SimDuration::from_ps(12_499)), 1);
    }

    #[test]
    fn quantisation_is_deterministic() {
        // Bit-identical inputs give bit-identical intervals — the property
        // the hybrid engine's determinism argument leans on.
        for i in 1..200u64 {
            let r = i as f64 * 1.7e-3;
            assert_eq!(ByteInterval::from_rate(r), ByteInterval::from_rate(r));
        }
    }

    #[test]
    fn ordering_follows_interval_not_rate() {
        // Bigger interval = slower flow; Ord is on the interval.
        let slow = ByteInterval::from_ps_per_byte(10_000);
        let fast = ByteInterval::from_ps_per_byte(5_000);
        assert!(slow > fast);
    }
}

//! # itb-sim — deterministic discrete-event simulation engine
//!
//! Foundation crate for the reproduction of *"A First Implementation of
//! In-Transit Buffers on Myrinet GM Software"* (IPPS 2001). Every other crate
//! in the workspace models a physical or firmware component of a Myrinet
//! cluster; this crate provides the machinery they share:
//!
//! * [`SimTime`] / [`SimDuration`] — integer picosecond simulation clock.
//!   Picoseconds keep link byte-times (6.25 ns at 160 MB/s) and LANai cycle
//!   times (15.15 ns at 66 MHz) exact, with headroom for multi-second runs.
//! * [`EventQueue`] — a 4-ary-heap calendar with constant-delay FIFO lanes
//!   in front of it and a deterministic FIFO tie-break for simultaneous
//!   events, so identical seeds yield identical runs bit for bit. Entries
//!   scheduled with one delay are already in key order (the clock never
//!   goes back and sequence numbers rise), so a lane pops in O(1) and the
//!   pop order is exactly that of a single heap.
//! * [`fxmap`] — deterministic fixed-seed hashing for the hot per-packet
//!   maps (no SipHash cost, no per-process iteration-order randomness).
//! * [`World`] / [`run_until`] — the minimal event-loop contract used by the
//!   integrated cluster simulator in `itb-gm`.
//! * [`stats`] — streaming accumulators (with log-histogram quantiles) and
//!   (x, y) series used by the experiment harness.
//! * [`rng`] — a small deterministic PRNG (xoshiro256**) so simulation
//!   reproducibility does not depend on the `rand` crate's internals.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod digest;
pub mod engine;
pub mod fxmap;
pub mod par;
pub mod queue;
pub mod rate;
pub mod rng;
pub mod stats;
pub mod time;

pub use digest::Digest;
pub use engine::{run_for, run_until, run_while, World};
pub use fxmap::{FxHashMap, FxHashSet};
pub use par::{run_shards, Envelope, ParReport, ShardWorld};
pub use queue::EventQueue;
pub use rate::ByteInterval;
pub use rng::SimRng;
pub use time::{Bandwidth, SimDuration, SimTime};

/// Checked narrowing conversion for ids, ports, sequence numbers and counts.
///
/// `x as u16` silently wraps out-of-range values — on a packet id or a
/// sequence number that is a correctness bug that manifests as a *different
/// simulation*, not a crash. This helper is the sanctioned spelling: it
/// panics loudly (with the offending value and the caller's location) the
/// moment an invariant is wrong instead of simulating on garbage. detlint
/// rule S002 points here.
#[track_caller]
#[inline]
pub fn narrow<Dst, Src>(v: Src) -> Dst
where
    Dst: TryFrom<Src>,
    Src: Copy + std::fmt::Display,
{
    match Dst::try_from(v) {
        Ok(d) => d,
        // detlint::allow(S001, the audited failure point every narrow() call site shares)
        Err(_) => panic!(
            "narrowing conversion out of range: {v} does not fit in {}",
            std::any::type_name::<Dst>()
        ),
    }
}

#[cfg(test)]
mod narrow_tests {
    use super::narrow;

    #[test]
    fn in_range_values_pass_through() {
        let p: u8 = narrow(255u64);
        let h: u16 = narrow(1024usize);
        assert_eq!(p, 255);
        assert_eq!(h, 1024);
    }

    #[test]
    #[should_panic(expected = "narrowing conversion out of range")]
    fn out_of_range_panics_loudly() {
        let _: u8 = narrow(256u64);
    }
}

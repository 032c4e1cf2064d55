//! Canonical state digests for the model checker.
//!
//! [`Digest`] is a streaming FNV-1a (64-bit) hasher with fixed, documented
//! constants. The model checker (`itb-check`) folds every behavioral field
//! of a simulation world into one `u64` so a BFS over fault interleavings
//! can recognize states it has already explored. Requirements that rule out
//! `std`'s hashers:
//!
//! * **Process-independence** — `RandomState` seeds per process; two runs
//!   (or the CI double-run byte-compare) would disagree on every digest.
//!   detlint rule D001 bans it outright.
//! * **Stability** — digests appear in committed artifacts
//!   (`results/model_check.json`) and counterexample fixtures, so the
//!   function is part of the repo's determinism contract and must not drift
//!   with toolchain versions.
//!
//! FNV-1a is not collision-resistant in the cryptographic sense; the
//! checker's state spaces (≤ ~10^6 states) keep the birthday-collision
//! probability around 2·10^-8, and a collision is *conservative only in
//! cost* terms it would merge two distinct states. DESIGN.md §"Model
//! checking" discusses the trade-off.
//!
//! `Digest` also implements [`std::hash::Hasher`], so a type that derives
//! `Hash` folds itself in with `value.hash(&mut digest)`. The event enums
//! of the network, NIC and GM layers take their digest identity this way;
//! the `state_digest` hooks of stateful structs still write their fields
//! by hand.

/// FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Streaming deterministic 64-bit hasher (FNV-1a over little-endian bytes).
///
/// Every `u*` method hashes the value's full-width little-endian byte
/// representation, so `u8(1)` and `u32(1)` produce *different* streams —
/// callers do not need to pad fields to keep composite digests unambiguous,
/// but they must keep the field *order* fixed (the digest is order
/// sensitive by design).
#[derive(Debug, Clone)]
pub struct Digest {
    state: u64,
}

impl Default for Digest {
    fn default() -> Self {
        Self::new()
    }
}

impl Digest {
    /// A fresh digest at the FNV offset basis.
    pub fn new() -> Self {
        Digest { state: FNV_OFFSET }
    }

    /// Fold raw bytes into the digest.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= u64::from(b);
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
    }

    /// Fold a `u8`.
    pub fn u8(&mut self, v: u8) {
        self.bytes(&[v]);
    }

    /// Fold a `u16` (little-endian).
    pub fn u16(&mut self, v: u16) {
        self.bytes(&v.to_le_bytes());
    }

    /// Fold a `u32` (little-endian).
    pub fn u32(&mut self, v: u32) {
        self.bytes(&v.to_le_bytes());
    }

    /// Fold a `u64` (little-endian).
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Fold a `usize` widened to 64 bits, so digests agree across pointer
    /// widths.
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Fold a boolean as one byte.
    pub fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    /// Current digest value.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

/// `#[derive(Hash)]` types fold into a [`Digest`] with the same fixed-width
/// little-endian bytes as the named methods; `usize` and `isize` widen to
/// 64 bits, so the bytes do not depend on the platform. A derived enum
/// writes its variant tag as an `isize`, i.e. eight bytes.
impl std::hash::Hasher for Digest {
    fn finish(&self) -> u64 {
        self.state
    }

    fn write(&mut self, bytes: &[u8]) {
        self.bytes(bytes);
    }

    fn write_u8(&mut self, v: u8) {
        self.u8(v);
    }

    fn write_u16(&mut self, v: u16) {
        self.u16(v);
    }

    fn write_u32(&mut self, v: u32) {
        self.u32(v);
    }

    fn write_u64(&mut self, v: u64) {
        self.u64(v);
    }

    fn write_usize(&mut self, v: usize) {
        self.usize(v);
    }

    fn write_isize(&mut self, v: isize) {
        self.u64(v as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_reference_fnv1a_vectors() {
        // Classic FNV-1a test vectors (64-bit).
        let mut d = Digest::new();
        assert_eq!(d.finish(), 0xcbf2_9ce4_8422_2325);
        d.bytes(b"a");
        assert_eq!(d.finish(), 0xaf63_dc4c_8601_ec8c);
        let mut d = Digest::new();
        d.bytes(b"foobar");
        assert_eq!(d.finish(), 0x85944171f73967e8);
    }

    #[test]
    fn width_disambiguates_equal_values() {
        let mut a = Digest::new();
        a.u8(1);
        let mut b = Digest::new();
        b.u32(1);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn order_sensitive() {
        let mut a = Digest::new();
        a.u32(1);
        a.u32(2);
        let mut b = Digest::new();
        b.u32(2);
        b.u32(1);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn hasher_writes_equal_the_named_methods() {
        use std::hash::Hasher;
        fn fold(f: impl FnOnce(&mut Digest)) -> u64 {
            let mut d = Digest::new();
            f(&mut d);
            Hasher::finish(&d)
        }
        assert_eq!(fold(|d| d.write(b"ab")), fold(|d| d.bytes(b"ab")));
        assert_eq!(fold(|d| d.write_u8(0xa5)), fold(|d| d.u8(0xa5)));
        assert_eq!(fold(|d| d.write_u16(0x0102)), fold(|d| d.u16(0x0102)));
        assert_eq!(
            fold(|d| d.write_u32(0x0102_0304)),
            fold(|d| d.u32(0x0102_0304))
        );
        assert_eq!(
            fold(|d| d.write_u64(u64::MAX - 1)),
            fold(|d| d.u64(u64::MAX - 1))
        );
        assert_eq!(fold(|d| d.write_usize(7)), fold(|d| d.u64(7)));
        assert_eq!(fold(|d| d.write_isize(-1)), fold(|d| d.u64(u64::MAX)));
    }

    #[test]
    fn usize_width_is_stable() {
        let mut a = Digest::new();
        a.usize(7);
        let mut b = Digest::new();
        b.u64(7);
        assert_eq!(a.finish(), b.finish());
    }
}

//! Deterministic pseudo-random numbers.
//!
//! The simulator's reproducibility guarantee is "same seed, same run". We
//! implement xoshiro256** directly (it is ~20 lines) instead of relying on
//! `rand`'s `SmallRng`, whose algorithm is explicitly not stable across
//! versions.

/// A seeded xoshiro256** generator.
#[derive(Debug, Clone)]
pub struct SimRng {
    s: [u64; 4],
}

#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SimRng {
    /// Create a generator from a 64-bit seed (expanded via splitmix64).
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        SimRng { s }
    }

    /// Derive an independent child generator, e.g. one per traffic source.
    ///
    /// Children of distinct `stream` values are decorrelated even for the
    /// same parent seed.
    pub fn child(&self, stream: u64) -> SimRng {
        // Mix the parent state with the stream id through splitmix64.
        let mut sm = self.s[0] ^ stream.wrapping_mul(0xA24B_AED4_963E_E407);
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        SimRng { s }
    }

    /// Next raw 64-bit output.
    #[inline]
    pub fn next_u64_raw(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform integer in `[0, bound)` via Lemire's multiply-shift method
    /// (bias is negligible at these bounds and determinism is what matters).
    #[inline]
    pub fn below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        ((self.next_u64_raw() as u128 * bound as u128) >> 64) as u64
    }

    /// Uniform `f64` in `[0, 1)`.
    #[inline]
    pub fn f64(&mut self) -> f64 {
        (self.next_u64_raw() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Exponentially distributed value with the given mean (for Poisson
    /// inter-arrival times in the traffic generators).
    #[inline]
    pub fn exp(&mut self, mean: f64) -> f64 {
        let u = loop {
            let u = self.f64();
            if u > 0.0 {
                break u;
            }
        };
        -mean * u.ln()
    }

    /// Fisher–Yates shuffle.
    // below(i + 1) returns a value in [0, i], which always fits back in usize.
    #[allow(clippy::cast_possible_truncation)]
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            slice.swap(i, j);
        }
    }

    /// Pick a uniformly random element.
    // below(len) is a valid index by definition.
    #[allow(clippy::cast_possible_truncation)]
    pub fn choose<'a, T>(&mut self, slice: &'a [T]) -> Option<&'a T> {
        if slice.is_empty() {
            None
        } else {
            Some(&slice[self.below(slice.len() as u64) as usize])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64_raw(), b.next_u64_raw());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..64)
            .filter(|_| a.next_u64_raw() == b.next_u64_raw())
            .count();
        assert_eq!(same, 0);
    }

    #[test]
    fn children_are_decorrelated() {
        let parent = SimRng::new(7);
        let mut c0 = parent.child(0);
        let mut c1 = parent.child(1);
        let same = (0..64)
            .filter(|_| c0.next_u64_raw() == c1.next_u64_raw())
            .count();
        assert_eq!(same, 0);
    }

    #[test]
    fn below_respects_bound() {
        let mut r = SimRng::new(9);
        for _ in 0..10_000 {
            assert!(r.below(7) < 7);
        }
        // All residues reachable.
        let mut seen = [false; 7];
        for _ in 0..1_000 {
            seen[r.below(7) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = SimRng::new(3);
        for _ in 0..10_000 {
            let x = r.f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn exp_mean_roughly_right() {
        let mut r = SimRng::new(5);
        let n = 200_000;
        let mean: f64 = (0..n).map(|_| r.exp(10.0)).sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.2, "mean={mean}");
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = SimRng::new(11);
        let mut v: Vec<u32> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, (0..50).collect::<Vec<_>>(), "astronomically unlikely");
    }
}

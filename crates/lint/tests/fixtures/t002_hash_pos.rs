//! T002 corpus: a `for` loop directly over an `FxHashMap` whose body folds
//! each entry into a `Digest` through `Hash` — iteration order (insertion
//! order) leaks into the digest.

use itb_sim::{Digest, FxHashMap};
use std::hash::Hash;

pub struct Waiters {
    pending: FxHashMap<u64, u64>,
}

impl Waiters {
    /// Method-call form, into a local Digest.
    pub fn digest(&self) -> u64 {
        let mut d = Digest::new();
        for (id, t) in self.pending.iter() {
            (id, t).hash(&mut d);
        }
        d.finish()
    }

    /// Path-call form, into a Digest parameter.
    pub fn fold(&self, d: &mut Digest) {
        for entry in self.pending.iter() {
            Hash::hash(&entry, d);
        }
    }
}

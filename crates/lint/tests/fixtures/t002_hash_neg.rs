//! T002 corpus (negative): the same `Hash` folds into a `Digest`, over the
//! keys sorted first.

use itb_sim::{Digest, FxHashMap};
use std::hash::Hash;

pub struct Waiters {
    pending: FxHashMap<u64, u64>,
}

impl Waiters {
    /// Method-call form, into a local Digest.
    pub fn digest(&self) -> u64 {
        let mut d = Digest::new();
        let mut ids: Vec<u64> = self.pending.keys().copied().collect();
        ids.sort_unstable();
        for id in ids {
            (id, self.pending.get(&id)).hash(&mut d);
        }
        d.finish()
    }

    /// Path-call form, into a Digest parameter.
    pub fn fold(&self, d: &mut Digest) {
        let mut entries: Vec<(u64, u64)> = self.pending.iter().map(|(&k, &v)| (k, v)).collect();
        entries.sort_unstable();
        for entry in entries {
            Hash::hash(&entry, d);
        }
    }
}

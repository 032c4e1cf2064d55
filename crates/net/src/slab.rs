//! Sliding-window packet registry.
//!
//! Packet ids are allocated monotonically ([`crate::Network::allocate_packet_id`])
//! and live only briefly: a packet is registered at injection and removed at
//! retire. A `HashMap<u64, _>` pays a hash and a probe on every one of the
//! several map touches per simulation event. This slab exploits the id
//! discipline instead: live ids cluster in a narrow window
//! `[base, base + slots.len())`, so a lookup is a bounds check and an index
//! into a `VecDeque` — O(1), no hashing, and iteration order is id order
//! (deterministic by construction, unlike `RandomState` maps).
//!
//! Ids are *reserved* before they are inserted (the NIC allocates the id when
//! a send is queued, but registers the packet only when the DMA is
//! programmed), and reservations resolve out of order. The window therefore
//! distinguishes `Reserved` from `Vacant`: the front of the window only
//! advances past vacated slots, never past an outstanding reservation.

use std::collections::VecDeque;

/// One window slot.
enum Slot<T> {
    /// No live entry; the window front may slide past this.
    Vacant,
    /// Id handed out but not yet inserted; pins the window front.
    Reserved,
    /// Live entry.
    Occupied(T),
}

impl<T> Slot<T> {
    fn as_ref(&self) -> Option<&T> {
        match self {
            Slot::Occupied(v) => Some(v),
            _ => None,
        }
    }

    fn as_mut(&mut self) -> Option<&mut T> {
        match self {
            Slot::Occupied(v) => Some(v),
            _ => None,
        }
    }
}

/// Sliding-window map from monotonically allocated `u64` ids to values.
pub struct IdSlab<T> {
    /// Id of `slots[0]`.
    base: u64,
    slots: VecDeque<Slot<T>>,
    /// Number of `Occupied` slots.
    live: usize,
}

impl<T> Default for IdSlab<T> {
    fn default() -> Self {
        IdSlab {
            base: 0,
            slots: VecDeque::new(),
            live: 0,
        }
    }
}

// Window offsets `(id - base) as usize` are bounded by the live window
// length (slots.len()), which always fits in memory, so the casts cannot
// truncate in practice; lookups bound-check against the deque anyway.
#[allow(clippy::cast_possible_truncation)]
impl<T> IdSlab<T> {
    /// Index of `id` within the window, growing the window if `id` is past
    /// its end. Panics if `id` predates the window (an id is only below
    /// `base` once its slot has been vacated, so this is a reuse bug).
    fn slot_index(&mut self, id: u64) -> usize {
        assert!(id >= self.base, "packet id {id} re-used after retire");
        let ix = (id - self.base) as usize;
        while self.slots.len() <= ix {
            self.slots.push_back(Slot::Vacant);
        }
        ix
    }

    /// Mark `id` as handed out: the window front will not slide past it
    /// until it is inserted and removed.
    pub fn reserve(&mut self, id: u64) {
        let ix = self.slot_index(id);
        debug_assert!(matches!(self.slots[ix], Slot::Vacant), "id reserved twice");
        self.slots[ix] = Slot::Reserved;
    }

    /// Register `value` under `id` (previously reserved or brand new).
    pub fn insert(&mut self, id: u64, value: T) {
        let ix = self.slot_index(id);
        debug_assert!(
            !matches!(self.slots[ix], Slot::Occupied(_)),
            "id {id} inserted twice"
        );
        self.slots[ix] = Slot::Occupied(value);
        self.live += 1;
    }

    /// Shared access to a live entry.
    #[inline]
    pub fn get(&self, id: u64) -> Option<&T> {
        if id < self.base {
            return None;
        }
        self.slots.get((id - self.base) as usize)?.as_ref()
    }

    /// Exclusive access to a live entry.
    #[inline]
    pub fn get_mut(&mut self, id: u64) -> Option<&mut T> {
        if id < self.base {
            return None;
        }
        self.slots.get_mut((id - self.base) as usize)?.as_mut()
    }

    /// Remove and return the entry under `id`, sliding the window front
    /// past any leading vacated slots.
    pub fn remove(&mut self, id: u64) -> Option<T> {
        if id < self.base {
            return None;
        }
        let ix = (id - self.base) as usize;
        let slot = self.slots.get_mut(ix)?;
        let value = match std::mem::replace(slot, Slot::Vacant) {
            Slot::Occupied(v) => {
                self.live -= 1;
                Some(v)
            }
            other => {
                *slot = other;
                None
            }
        };
        while matches!(self.slots.front(), Some(Slot::Vacant)) {
            self.slots.pop_front();
            self.base += 1;
        }
        value
    }

    /// Number of live entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether no entries are live.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Ids of live entries, ascending.
    pub fn ids(&self) -> impl Iterator<Item = u64> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter_map(move |(i, s)| s.as_ref().map(|_| self.base + i as u64))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut s: IdSlab<&str> = IdSlab::default();
        s.insert(0, "a");
        s.insert(1, "b");
        assert_eq!(s.len(), 2);
        assert_eq!(s.get(0), Some(&"a"));
        *s.get_mut(1).unwrap() = "B";
        assert_eq!(s.remove(0), Some("a"));
        assert_eq!(s.get(0), None, "window slid past removed id");
        assert_eq!(s.remove(0), None);
        assert_eq!(s.get(1), Some(&"B"));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn out_of_order_removal_slides_window_lazily() {
        let mut s: IdSlab<u32> = IdSlab::default();
        for id in 0..4 {
            s.insert(id, id as u32);
        }
        // Remove from the middle first: front can't slide yet.
        assert_eq!(s.remove(2), Some(2));
        assert_eq!(s.get(3), Some(&3));
        assert_eq!(s.remove(0), Some(0));
        assert_eq!(s.remove(1), Some(1));
        // Now 0..=2 are vacant, so the window front is at 3.
        assert_eq!(s.get(3), Some(&3));
        assert_eq!(s.ids().collect::<Vec<_>>(), vec![3]);
        assert_eq!(s.remove(3), Some(3));
        assert!(s.is_empty());
    }

    #[test]
    fn reservation_pins_the_window_front() {
        let mut s: IdSlab<u32> = IdSlab::default();
        s.reserve(0); // allocated, DMA not yet programmed
        s.insert(1, 10);
        assert_eq!(s.remove(1), Some(10));
        // Id 0 is still reserved: a late insert must land correctly.
        s.insert(0, 99);
        assert_eq!(s.get(0), Some(&99));
        assert_eq!(s.remove(0), Some(99));
        assert!(s.is_empty());
    }

    #[test]
    fn ids_are_ascending_and_skip_holes() {
        let mut s: IdSlab<()> = IdSlab::default();
        for id in [5u64, 2, 9, 0] {
            s.insert(id, ());
        }
        s.remove(5);
        assert_eq!(s.ids().collect::<Vec<_>>(), vec![0, 2, 9]);
    }

    #[test]
    #[should_panic(expected = "re-used after retire")]
    fn reusing_a_retired_id_panics() {
        let mut s: IdSlab<u32> = IdSlab::default();
        s.insert(0, 1);
        s.remove(0);
        s.insert(0, 2);
    }
}

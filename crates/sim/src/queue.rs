//! Deterministic event calendar: a d-ary heap plus constant-delay FIFO
//! lanes.
//!
//! Most pushes in a packet simulation reuse a handful of delays — the flit
//! serialisation time, and that time plus the link propagation delay. An
//! entry scheduled through [`EventQueue::schedule`] with delay
//! `d = at - now` is stamped `rank_time = now` and a rising sequence number,
//! and `now` never decreases. So among entries sharing one `d`, schedule
//! order *is* key order: a FIFO of them is already sorted by the full
//! `(time, rank_time, rank)` key, and popping its front is O(1).
//!
//! The queue keeps [`LANES`] such FIFOs in front of the heap. A push whose
//! delay matches a lane's tag appends to it; otherwise it claims an
//! untagged lane, or falls back to the heap. After [`MISS_WINDOW`] heap
//! fallbacks the coldest lane (fewest pushes in the window) is drained into
//! the heap and untagged, so lanes follow the delays that are hot now, not
//! the ones that arrived first. [`EventQueue::schedule_ranked`] always uses
//! the heap: its `rank_time` is not the queue clock.
//!
//! A pop takes the smallest key among the heap top and the lane fronts.
//! Keys are unique, so the pop order is the one a single heap holding every
//! entry would give — where an entry waits never shows in the order
//! (`crates/sim/tests/queue_determinism.rs` is the differential proof).

use crate::time::{SimDuration, SimTime};

/// One scheduled entry: fires at `time`; `(rank_time, rank)` breaks ties
/// among simultaneous events.
///
/// `rank_time` is the timestamp of the *scheduling* event (the queue clock
/// at the moment `schedule` was called). `rank` packs the scheduling shard
/// id (high [`SHARD_BITS`] bits, 0 in sequential runs) over the schedule
/// sequence number (low [`SEQ_BITS`] bits) — one word, but it compares
/// exactly like the tuple `(shard, seq)` because `seq` never reaches
/// 2^[`SEQ_BITS`] (asserted on every schedule). Both rank components exist
/// so the parallel engine can reproduce the sequential tie order: a
/// cross-shard handoff re-scheduled after a barrier carries its original
/// rank instead of the (later, nondeterministic) merge-time rank.
struct Entry<E> {
    time: SimTime,
    rank_time: SimTime,
    rank: u64,
    event: E,
}

/// Total order of the calendar: `(time, rank_time, rank)`.
///
/// Keys are unique (the `seq` low bits of `rank` increment on every
/// schedule), so any heap discipline and any split between heap and lanes
/// pops entries in exactly this order.
///
/// In a sequential run this order equals the historical `(time, seq)`
/// order: `rank_time` is the queue clock at schedule time, which never
/// decreases as `seq` increases, and the shard bits are constantly 0 — so
/// among entries with equal `time`, sorting by `(rank_time, rank)` sorts by
/// `seq`.
type Key = (SimTime, SimTime, u64);

impl<E> Entry<E> {
    #[inline]
    fn key(&self) -> Key {
        (self.time, self.rank_time, self.rank)
    }
}

/// Low bits of an entry's `rank`: the per-queue schedule sequence number.
const SEQ_BITS: u32 = 48;
/// High bits of an entry's `rank`: the scheduling shard id.
const SHARD_BITS: u32 = 16;
/// Exclusive upper bound on sequence numbers (2^48 ≈ 2.8 × 10^14 schedules
/// — about a month of continuous scheduling at the engine's measured rate).
const SEQ_LIMIT: u64 = 1 << SEQ_BITS;

/// Heap arity. A 4-ary heap is ~half the depth of a binary heap: fewer
/// sift levels per push/pop and better cache behaviour on the fat union
/// event types the integrated cluster schedules (measured ~10-15% of the
/// whole-simulation profile moves out of the queue vs `BinaryHeap`).
const D: usize = 4;

/// Number of constant-delay FIFO lanes. Recorded queue traces put 89-99%
/// of pushes on two or three delays; the spare lanes absorb start-up and
/// timer delays until recycling hands them to a hot one.
const LANES: usize = 8;

/// Heap fallbacks between two lane-recycling decisions.
const MISS_WINDOW: u32 = 256;

/// Nodes the lane slab reserves on its first push: a closed-loop run with
/// a few events in flight then allocates it once, not once per doubling.
const SLAB_START: usize = 32;

/// "No node" link in the lane slab.
const NIL: usize = usize::MAX;

/// One constant-delay FIFO: an intrusive singly linked list through the
/// queue's node slab. Every entry in it was scheduled with delay `delay`.
#[derive(Clone, Copy)]
struct Lane {
    /// The delay every entry of this lane was scheduled with; `None` while
    /// the lane is free to claim (then it is also empty).
    delay: Option<SimDuration>,
    /// Key of the front entry (valid while `len > 0`), cached so a pop
    /// compares lanes without touching the slab.
    front: Key,
    head: usize,
    tail: usize,
    len: usize,
    /// Pushes since the last recycling decision (64 bits: a run with no
    /// misses never resets it).
    hits: u64,
}

impl Lane {
    const FREE: Lane = Lane {
        delay: None,
        front: (SimTime::ZERO, SimTime::ZERO, 0),
        head: NIL,
        tail: NIL,
        len: 0,
        hits: 0,
    };
}

/// A lane entry in the shared slab. `event` is `Some` exactly while the
/// node is linked into a lane; free nodes chain through `next`.
struct Node<E> {
    key: Key,
    event: Option<E>,
    next: usize,
}

/// A time-ordered event queue with deterministic FIFO ordering among
/// simultaneous events.
///
/// Determinism matters: the MCP firmware model resolves races (e.g. an
/// in-transit packet arriving in the same picosecond the send DMA finishes)
/// by event order, and reproducible experiments require that order to be a
/// pure function of the schedule calls, never of heap internals or of which
/// lane an entry waits in. The `(time, rank_time, rank)` key is unique per
/// entry, and every lane holds its entries in key order (one delay, a
/// non-decreasing clock, a rising sequence number), so the heap-and-lanes
/// calendar pops in exactly the order of the `BinaryHeap` implementation it
/// replaced (see the module docs and `crates/sim/tests/queue_determinism.rs`).
pub struct EventQueue<E> {
    /// Min-heap on `(time, rank_time, rank)`, `D`-ary, rooted at index 0.
    heap: Vec<Entry<E>>,
    /// Constant-delay FIFOs in front of the heap.
    lanes: [Lane; LANES],
    /// Storage for every lane entry; one allocation shared by all lanes.
    slab: Vec<Node<E>>,
    /// Head of the slab's free list.
    free: usize,
    /// The non-empty lane with the smallest front key, or [`LANES`] when
    /// every lane is empty. Only a pop from that lane (or a recycle) can
    /// change it to a lane that was already non-empty, so pops from the
    /// heap compare one lane front, not all of them.
    first: usize,
    /// Heap fallbacks since the last recycling decision.
    misses: u32,
    seq: u64,
    now: SimTime,
    popped: u64,
    /// Tie-break shard id stamped on locally scheduled entries, pre-shifted
    /// into the high [`SHARD_BITS`] of `rank`. 0 in sequential runs; the
    /// parallel engine sets each shard's own id so same-picosecond events
    /// from different shards merge in a fixed order.
    rank_base: u64,
    /// Key of the most recently popped entry (see
    /// [`EventQueue::cross_shard_ties`]).
    last_pop: Option<Key>,
    /// Count of pops whose `(time, rank_time)` equalled the previous pop's
    /// while the shard bits of `rank` differed.
    cross_shard_ties: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue positioned at t = 0.
    pub fn new() -> Self {
        EventQueue {
            heap: Vec::new(),
            lanes: [Lane::FREE; LANES],
            slab: Vec::new(),
            free: NIL,
            first: LANES,
            misses: 0,
            seq: 0,
            now: SimTime::ZERO,
            popped: 0,
            rank_base: 0,
            last_pop: None,
            cross_shard_ties: 0,
        }
    }

    /// Set the shard id stamped on locally scheduled entries (see
    /// [`EventQueue::schedule_ranked`]). The parallel engine calls this once
    /// per shard queue; sequential code never needs it (the default 0 keeps
    /// the historical `(time, seq)` order exactly).
    ///
    /// # Panics
    /// Panics if `shard` does not fit in the [`SHARD_BITS`] rank field, or
    /// if anything has been scheduled on this queue: a later change of the
    /// rank would reorder ties against the entries already stamped, and
    /// would break the key order inside a lane.
    pub fn set_shard_rank(&mut self, shard: u32) {
        assert!(shard < (1 << SHARD_BITS), "shard id {shard} out of range");
        assert!(
            self.seq == 0,
            "set_shard_rank on a queue that has scheduled {} entries",
            self.seq
        );
        self.rank_base = u64::from(shard) << SEQ_BITS;
    }

    /// Current simulation time: the timestamp of the most recently popped
    /// event (or t = 0 before any pop).
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events dispatched so far (a cheap progress/perf metric).
    #[inline]
    pub fn events_dispatched(&self) -> u64 {
        self.popped
    }

    /// Schedule `event` to fire at absolute time `at`.
    ///
    /// # Panics
    /// Panics if `at` is earlier than the current time — scheduling into the
    /// past is always a model bug.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "scheduled into the past: at={at} now={}",
            self.now
        );
        let key = (at, self.now, self.rank_base | self.next_seq());
        match self.lane_for(at - self.now) {
            Some(lane) => self.lane_push(lane, key, event),
            None => self.heap_push(key, event),
        }
    }

    /// Schedule `event` at `at` with an explicit tie-break rank, preserving
    /// the rank it was *originally* scheduled with on another shard.
    ///
    /// The parallel engine uses this when absorbing cross-shard handoffs: a
    /// remote event generated at time `rank_time` on shard `rank_src` must
    /// sort among same-picosecond events exactly as it would have in the
    /// sequential run, not by its (later) merge time. Sequential code should
    /// use [`EventQueue::schedule`], which stamps the rank automatically.
    ///
    /// # Panics
    /// Panics if `at` is earlier than the current time or `rank_src` does not
    /// fit in the [`SHARD_BITS`] rank field.
    pub fn schedule_ranked(&mut self, at: SimTime, rank_time: SimTime, rank_src: u32, event: E) {
        assert!(
            at >= self.now,
            "scheduled into the past: at={at} now={}",
            self.now
        );
        assert!(
            rank_src < (1 << SHARD_BITS),
            "shard id {rank_src} out of range"
        );
        let rank = (u64::from(rank_src) << SEQ_BITS) | self.next_seq();
        self.heap_push((at, rank_time, rank), event);
    }

    /// Allocate the next tie-break sequence number.
    #[inline]
    fn next_seq(&mut self) -> u64 {
        let seq = self.seq;
        assert!(seq < SEQ_LIMIT, "event sequence number overflow");
        self.seq += 1;
        seq
    }

    /// Schedule `event` to fire `delta` after the current time — the common
    /// "follow-up event" pattern (`schedule(now + d, ev)` where `now` is the
    /// timestamp of the event being handled, which always equals
    /// [`EventQueue::now`] inside a handler).
    #[inline]
    pub fn schedule_after(&mut self, delta: SimDuration, event: E) {
        let at = self.now + delta;
        self.schedule(at, event);
    }

    /// Pop the earliest event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let top = self.heap.first().map(Entry::key);
        let (key, event) = match self.lanes.get(self.first) {
            Some(lane) if top.is_none_or(|k| lane.front < k) => {
                let key = lane.front;
                (key, self.lane_pop(self.first))
            }
            _ => (top?, self.heap_pop()),
        };
        let (time, rank_time, rank) = key;
        debug_assert!(time >= self.now);
        // Entries sharing (time, rank_time) are contiguous in pop order, so
        // comparing each pop against only its predecessor sees every pair
        // of tied entries; differing shard bits flag a cross-shard tie.
        if let Some((t, rt, r)) = self.last_pop {
            if t == time && rt == rank_time && (r >> SEQ_BITS) != (rank >> SEQ_BITS) {
                self.cross_shard_ties += 1;
            }
        }
        self.last_pop = Some(key);
        self.now = time;
        self.popped += 1;
        Some((time, event))
    }

    /// Number of *cross-shard rank ties* dispatched so far: consecutive pops
    /// with identical `(time, rank_time)` whose ranks came from different
    /// shards.
    ///
    /// Such a pair is the one place where the parallel engine's tie-break
    /// (shard id) can differ from the sequential engine's (global schedule
    /// order), so `cross_shard_ties == 0` across every shard queue *proves*
    /// the run dispatched events in exactly the sequential order. Always 0
    /// in sequential runs (every rank carries shard 0).
    #[inline]
    pub fn cross_shard_ties(&self) -> u64 {
        self.cross_shard_ties
    }

    /// Visit every pending entry in pop order — `(time, rank_time, event)`
    /// sorted by the full `(time, rank_time, rank)` key — without disturbing
    /// the queue.
    ///
    /// This exists for the model checker's world digest: the heap's array
    /// layout and the lane an entry waits in depend on insertion history,
    /// but the *pop order* is the canonical meaning of the queue's
    /// contents. The raw `rank` is deliberately not exposed: its low bits
    /// are an ever-increasing schedule counter, so two worlds that will
    /// dispatch identical events at identical times would digest
    /// differently if the counter leaked in. Relative order among ties is
    /// conveyed by iteration position, which is all a digest needs (newly
    /// scheduled entries always receive larger sequence numbers than every
    /// pending entry, so position is a faithful stand-in for the counter).
    pub fn iter_ordered(&self) -> impl Iterator<Item = (SimTime, SimTime, &E)> {
        let in_heap = self.heap.iter().map(|e| (e.key(), &e.event));
        let in_lanes = self
            .slab
            .iter()
            .filter_map(|n| n.event.as_ref().map(|e| (n.key, e)));
        let mut all: Vec<(Key, &E)> = in_heap.chain(in_lanes).collect();
        all.sort_unstable_by_key(|&(k, _)| k);
        all.into_iter().map(|((t, rt, _), e)| (t, rt, e))
    }

    /// Timestamp of the next event without popping it.
    #[inline]
    pub fn peek_time(&self) -> Option<SimTime> {
        let top = self.heap.first().map(|e| e.time);
        match self.lanes.get(self.first) {
            Some(lane) if top.is_none_or(|t| lane.front.0 < t) => Some(lane.front.0),
            _ => top,
        }
    }

    /// Whether any events remain.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty() && self.first == LANES
    }

    /// Number of pending events.
    #[inline]
    pub fn len(&self) -> usize {
        self.heap.len() + self.lanes.iter().map(|l| l.len).sum::<usize>()
    }

    /// Drop every pending event. The clock, dispatch count and tie-break
    /// sequence are preserved: a cleared queue is "this world, with nothing
    /// scheduled", not a brand-new queue.
    pub fn clear(&mut self) {
        self.heap.clear();
        self.slab.clear();
        self.free = NIL;
        self.lanes = [Lane::FREE; LANES];
        self.first = LANES;
        self.misses = 0;
    }

    /// Pre-allocate room for `additional` more events (steady-state runs
    /// can reserve their working set once and never grow the heap again).
    pub fn reserve(&mut self, additional: usize) {
        self.heap.reserve(additional);
    }

    /// The lane a push with delay `d` goes to, or `None` for the heap. A
    /// lane tagged `d` wins; else a free lane is tagged `d`; else the push
    /// is a miss, and every [`MISS_WINDOW`] misses the coldest lane is
    /// recycled.
    #[inline]
    fn lane_for(&mut self, d: SimDuration) -> Option<usize> {
        let mut free = None;
        for (i, lane) in self.lanes.iter().enumerate() {
            match lane.delay {
                Some(ld) if ld == d => return Some(i),
                None if free.is_none() => free = Some(i),
                _ => {}
            }
        }
        if let Some(i) = free {
            self.lanes[i].delay = Some(d);
            return Some(i);
        }
        self.misses += 1;
        if self.misses == MISS_WINDOW {
            self.recycle();
        }
        None
    }

    /// End a miss window: drain the coldest lane into the heap and free it
    /// for the next missing delay, unless even that lane took at least as
    /// many pushes as the heap fallback did. Every lane's count restarts.
    #[cold]
    fn recycle(&mut self) {
        let mut coldest = 0;
        for (i, lane) in self.lanes.iter().enumerate() {
            if lane.hits < self.lanes[coldest].hits {
                coldest = i;
            }
        }
        if self.lanes[coldest].hits < u64::from(self.misses) {
            while self.lanes[coldest].len > 0 {
                let key = self.lanes[coldest].front;
                let event = self.lane_pop(coldest);
                self.heap_push(key, event);
            }
            self.lanes[coldest] = Lane::FREE;
        }
        for lane in &mut self.lanes {
            lane.hits = 0;
        }
        self.misses = 0;
    }

    /// Append an entry to lane `i`, whose tag is the entry's delay.
    #[inline]
    fn lane_push(&mut self, i: usize, key: Key, event: E) {
        let node = Node {
            key,
            event: Some(event),
            next: NIL,
        };
        let ix = if self.free == NIL {
            if self.slab.capacity() == 0 {
                self.slab.reserve_exact(SLAB_START);
            }
            self.slab.push(node);
            self.slab.len() - 1
        } else {
            let ix = self.free;
            self.free = self.slab[ix].next;
            self.slab[ix] = node;
            ix
        };
        if self.lanes[i].len == 0 {
            if self.lanes.get(self.first).is_none_or(|f| key < f.front) {
                self.first = i;
            }
            self.lanes[i].head = ix;
            self.lanes[i].front = key;
        } else {
            self.slab[self.lanes[i].tail].next = ix;
        }
        let lane = &mut self.lanes[i];
        lane.tail = ix;
        lane.len += 1;
        lane.hits += 1;
    }

    /// Unlink and return the front event of non-empty lane `i`.
    #[inline]
    fn lane_pop(&mut self, i: usize) -> E {
        let lane = &mut self.lanes[i];
        let ix = lane.head;
        let node = &mut self.slab[ix];
        let Some(event) = node.event.take() else {
            unreachable!("lane {i} links slab node {ix}, which holds no event");
        };
        lane.head = node.next;
        node.next = self.free;
        self.free = ix;
        lane.len -= 1;
        if lane.len > 0 {
            lane.front = self.slab[lane.head].key;
        }
        // This lane's front moved back (or it emptied): find the smallest
        // front again.
        let mut best: Option<Key> = None;
        self.first = LANES;
        for (j, lane) in self.lanes.iter().enumerate() {
            if lane.len > 0 && best.is_none_or(|k| lane.front < k) {
                best = Some(lane.front);
                self.first = j;
            }
        }
        event
    }

    /// Insert an entry into the heap.
    #[inline]
    fn heap_push(&mut self, (time, rank_time, rank): Key, event: E) {
        self.heap.push(Entry {
            time,
            rank_time,
            rank,
            event,
        });
        self.sift_up(self.heap.len() - 1);
    }

    /// Remove the heap's minimum (the heap is non-empty).
    #[inline]
    fn heap_pop(&mut self) -> E {
        let entry = self.heap.swap_remove(0);
        if !self.heap.is_empty() {
            self.sift_down(0);
        }
        entry.event
    }

    /// Move the entry at `i` up until its parent is no bigger.
    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / D;
            if self.heap[parent].key() <= self.heap[i].key() {
                break;
            }
            self.heap.swap(i, parent);
            i = parent;
        }
    }

    /// Move the entry at `i` down until no child is smaller.
    fn sift_down(&mut self, mut i: usize) {
        let len = self.heap.len();
        loop {
            let first_child = i * D + 1;
            if first_child >= len {
                break;
            }
            let last_child = (first_child + D).min(len);
            let mut best = first_child;
            let mut best_key = self.heap[first_child].key();
            for c in first_child + 1..last_child {
                let k = self.heap[c].key();
                if k < best_key {
                    best = c;
                    best_key = k;
                }
            }
            if self.heap[i].key() <= best_key {
                break;
            }
            self.heap.swap(i, best);
            i = best;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ns(30), "c");
        q.schedule(SimTime::from_ns(10), "a");
        q.schedule(SimTime::from_ns(20), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn simultaneous_events_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_ns(5);
        for i in 0..100 {
            q.schedule(t, i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ns(7), ());
        q.schedule(SimTime::from_ns(9), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_ns(7));
        q.pop();
        assert_eq!(q.now(), SimTime::from_ns(9));
        assert_eq!(q.events_dispatched(), 2);
    }

    #[test]
    #[should_panic(expected = "scheduled into the past")]
    fn scheduling_into_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ns(10), ());
        q.pop();
        q.schedule(SimTime::from_ns(5), ());
    }

    #[test]
    fn peek_does_not_advance() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ns(4), 1u8);
        assert_eq!(q.peek_time(), Some(SimTime::from_ns(4)));
        assert_eq!(q.now(), SimTime::ZERO);
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn interleaved_schedule_and_pop_keeps_fifo_per_timestamp() {
        let mut q = EventQueue::new();
        let t = SimTime::from_ns(50);
        q.schedule(t, 0);
        q.schedule(t, 1);
        q.schedule(SimTime::from_ns(1), 99);
        assert_eq!(q.pop().unwrap().1, 99);
        q.schedule(t, 2);
        let rest: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(rest, vec![0, 1, 2]);
    }

    #[test]
    fn schedule_after_is_relative_to_the_clock() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ns(10), "first");
        q.pop();
        q.schedule_after(SimDuration::from_ns(5), "second");
        let (t, e) = q.pop().unwrap();
        assert_eq!(t, SimTime::from_ns(15));
        assert_eq!(e, "second");
    }

    #[test]
    fn clear_keeps_clock_and_fifo_sequence() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ns(10), 0);
        q.pop();
        q.schedule(SimTime::from_ns(20), 1);
        q.schedule(SimTime::from_ns(20), 2);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.now(), SimTime::from_ns(10), "clock survives clear");
        assert_eq!(q.events_dispatched(), 1);
        // Ties scheduled after the clear still pop FIFO.
        q.schedule(SimTime::from_ns(30), 7);
        q.schedule(SimTime::from_ns(30), 8);
        assert_eq!(q.pop().unwrap().1, 7);
        assert_eq!(q.pop().unwrap().1, 8);
    }

    #[test]
    fn reserve_does_not_disturb_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ns(2), "b");
        q.reserve(1024);
        q.schedule(SimTime::from_ns(1), "a");
        assert_eq!(q.pop().unwrap().1, "a");
        assert_eq!(q.pop().unwrap().1, "b");
    }

    #[test]
    fn sequential_runs_never_count_cross_shard_ties() {
        let mut q = EventQueue::new();
        let t = SimTime::from_ns(5);
        for i in 0..50 {
            q.schedule(t, i);
        }
        while q.pop().is_some() {}
        assert_eq!(q.cross_shard_ties(), 0, "shard bits are uniformly 0");
    }

    #[test]
    fn cross_shard_rank_ties_are_detected() {
        let mut q = EventQueue::new();
        q.set_shard_rank(1);
        let t = SimTime::from_ns(10);
        let rt = SimTime::ZERO;
        // Local entry (shard 1) and an absorbed remote entry (shard 2) tied
        // on (time, rank_time): the pair the parallel tie-break can order
        // differently than the sequential run.
        q.schedule(t, "local");
        q.schedule_ranked(t, rt, 2, "remote");
        assert_eq!(q.pop().unwrap().1, "local");
        assert_eq!(q.pop().unwrap().1, "remote");
        assert_eq!(q.cross_shard_ties(), 1);
        // Different rank_time is not a tie: the order is forced either way.
        // ("a" is stamped rank_time = now = 10 ns here.)
        q.schedule(SimTime::from_ns(20), "a");
        q.schedule_ranked(SimTime::from_ns(20), SimTime::from_ns(5), 2, "b");
        while q.pop().is_some() {}
        assert_eq!(q.cross_shard_ties(), 1);
    }

    #[test]
    #[should_panic(expected = "set_shard_rank on a queue that has scheduled 1 entries")]
    fn set_shard_rank_after_a_schedule_panics() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ns(1), ());
        q.pop();
        q.set_shard_rank(1);
    }

    #[test]
    fn recycling_hands_a_lane_to_a_delay_that_arrives_late() {
        let mut q = EventQueue::new();
        // One-off timers claim every lane first.
        for i in 0..LANES as u64 {
            q.schedule(SimTime::from_us(1 + i), 1_000 + i);
        }
        let flit = SimDuration::from_ps(100_000);
        for i in 0..2 * u64::from(MISS_WINDOW) {
            q.schedule_after(flit, i);
        }
        assert!(
            q.lanes.iter().any(|l| l.delay == Some(flit)),
            "the flit delay holds a lane after one miss window"
        );
        // Heap and lane entries of one delay, and the drained timer, still
        // pop in key order.
        let popped: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        let flits = 0..2 * u64::from(MISS_WINDOW);
        let timers = 1_000..1_000 + LANES as u64;
        assert_eq!(popped, flits.chain(timers).collect::<Vec<_>>());
    }

    #[test]
    fn iter_ordered_matches_pop_order() {
        let mut q = EventQueue::new();
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        for i in 0..500u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            q.schedule(SimTime::from_ns(x % 37), i);
        }
        let snapshot: Vec<(SimTime, u64)> = q.iter_ordered().map(|(t, _, &e)| (t, e)).collect();
        let popped: Vec<(SimTime, u64)> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(snapshot, popped);
    }

    #[test]
    fn large_random_schedule_pops_sorted() {
        // Exercise deep sift paths of the d-ary heap.
        let mut q = EventQueue::new();
        let mut x: u64 = 0x243F_6A88_85A3_08D3;
        for i in 0..10_000u64 {
            // xorshift
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            q.schedule(SimTime::from_ns(x % 997), i);
        }
        let mut last = (SimTime::ZERO, 0u64);
        let mut n = 0;
        while let Some((t, seq_marker)) = q.pop() {
            if t == last.0 {
                assert!(seq_marker > last.1, "FIFO among ties");
            } else {
                assert!(t > last.0, "time-sorted");
            }
            last = (t, seq_marker);
            n += 1;
        }
        assert_eq!(n, 10_000);
    }
}

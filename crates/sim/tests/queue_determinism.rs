//! Differential proof that [`EventQueue`] — a 4-ary heap with
//! constant-delay FIFO lanes in front of it — pops in exactly the order of
//! one ordered set holding every entry.
//!
//! The queue's contract is stronger than "time-sorted": simultaneous events
//! pop in schedule order (FIFO), and firmware race resolution depends on it.
//! Because every entry carries a unique `(time, rank_time, rank)` key, any
//! correct min-queue pops the same total order, wherever an entry waits.
//! These tests pin that equivalence on randomized workloads: heavy timestamp
//! collisions, the packet model's constant flit delays mixed with zero
//! delays, far timers and `schedule_ranked` handoffs, enough distinct
//! delays to force lane recycling, and a `clear()` in mid-run. After every
//! step the observable state — `pop`, `peek_time`, `len`, `is_empty`,
//! `now`, `iter_ordered` — must agree with the reference.

use itb_sim::{EventQueue, SimDuration, SimTime};
use std::collections::BTreeSet;

/// Bit position of the shard id inside a rank (the queue's `SEQ_BITS`).
const SEQ_BITS: u32 = 48;

/// The reference model: a `BTreeSet` of `(time, rank_time, rank, payload)`,
/// stamped the way the queue documents — `rank_time` is the clock at
/// schedule time, `rank` the shard id over a per-queue sequence number.
struct ReferenceQueue {
    set: BTreeSet<(SimTime, SimTime, u64, u64)>,
    seq: u64,
    now: SimTime,
    rank_base: u64,
    popped: u64,
}

impl ReferenceQueue {
    fn new() -> Self {
        ReferenceQueue {
            set: BTreeSet::new(),
            seq: 0,
            now: SimTime::ZERO,
            rank_base: 0,
            popped: 0,
        }
    }

    fn set_shard_rank(&mut self, shard: u32) {
        self.rank_base = u64::from(shard) << SEQ_BITS;
    }

    fn next_seq(&mut self) -> u64 {
        self.seq += 1;
        self.seq - 1
    }

    fn schedule(&mut self, at: SimTime, payload: u64) {
        let rank = self.rank_base | self.next_seq();
        self.set.insert((at, self.now, rank, payload));
    }

    fn schedule_ranked(&mut self, at: SimTime, rank_time: SimTime, src: u32, payload: u64) {
        let rank = (u64::from(src) << SEQ_BITS) | self.next_seq();
        self.set.insert((at, rank_time, rank, payload));
    }

    fn pop(&mut self) -> Option<(SimTime, u64)> {
        let (t, _, _, p) = self.set.pop_first()?;
        self.now = t;
        self.popped += 1;
        Some((t, p))
    }

    fn peek_time(&self) -> Option<SimTime> {
        self.set.first().map(|&(t, ..)| t)
    }

    fn clear(&mut self) {
        self.set.clear();
    }

    fn ordered(&self) -> impl Iterator<Item = (SimTime, SimTime, u64)> + '_ {
        self.set.iter().map(|&(t, rt, _, p)| (t, rt, p))
    }
}

/// Tiny deterministic xorshift so the workload is reproducible.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        let x = &mut self.0;
        *x ^= *x << 13;
        *x ^= *x >> 7;
        *x ^= *x << 17;
        *x
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Assert every observable of the queue matches the reference after `step`
/// of the run with `seed`.
fn assert_agree(dut: &EventQueue<u64>, reference: &ReferenceQueue, step: usize, seed: u64) {
    let at = (step, seed);
    assert_eq!(dut.len(), reference.set.len(), "len at (step, seed) {at:?}");
    assert_eq!(
        dut.is_empty(),
        reference.set.is_empty(),
        "is_empty at {at:?}"
    );
    assert_eq!(
        dut.peek_time(),
        reference.peek_time(),
        "peek_time at {at:?}"
    );
    assert_eq!(dut.now(), reference.now, "now at {at:?}");
    assert_eq!(
        dut.events_dispatched(),
        reference.popped,
        "dispatched at {at:?}"
    );
    let got = dut.iter_ordered().map(|(t, rt, &p)| (t, rt, p));
    assert!(got.eq(reference.ordered()), "iter_ordered at {at:?}");
}

/// Drive both queues through an identical randomized schedule/pop
/// interleaving and assert identical pop sequences.
fn differential_run(seed: u64, rounds: usize, time_range: u64) {
    let mut rng = XorShift(seed);
    let mut dut: EventQueue<u64> = EventQueue::new();
    let mut reference = ReferenceQueue::new();
    let mut payload = 0u64;
    for round in 0..rounds {
        // Burst of schedules. A small time range forces many exact ties.
        let burst = rng.below(8) + 1;
        for _ in 0..burst {
            let at = reference.now + SimDuration::from_ns(rng.below(time_range));
            dut.schedule(at, payload);
            reference.schedule(at, payload);
            payload += 1;
        }
        // Pop a few (sometimes none, sometimes a drain).
        let pops = if round % 13 == 0 {
            usize::MAX // drain fully
        } else {
            rng.below(4) as usize
        };
        for _ in 0..pops {
            let got = dut.pop();
            assert_eq!(got, reference.pop(), "round {round} (seed {seed})");
            if got.is_none() {
                break;
            }
        }
    }
    // Final drain: every remaining entry must match too.
    loop {
        let got = dut.pop();
        assert_eq!(got, reference.pop(), "final drain (seed {seed})");
        if got.is_none() {
            break;
        }
    }
}

#[test]
fn matches_reference_order_on_collision_heavy_schedules() {
    // time_range 3: almost everything ties, exercising pure FIFO order.
    differential_run(0x9E37_79B9_7F4A_7C15, 400, 3);
}

#[test]
fn matches_reference_order_on_sparse_schedules() {
    differential_run(0x2545_F491_4F6C_DD1D, 400, 10_000);
}

#[test]
fn matches_reference_order_across_seeds() {
    for seed in 1..=32u64 {
        differential_run(seed, 120, 7);
        differential_run(seed.wrapping_mul(0xD134_2543_DE82_EF95), 120, 1_000);
    }
}

/// Flit delays of the packet workloads, in ps: serialisation, and
/// serialisation plus link propagation.
const FLIT_DELAYS: [u64; 5] = [100_000, 115_000, 25_000, 40_000, 75_000];

/// Drive both queues through a packet-like mix — flit delays, zero delays,
/// a few recurring timer delays, random far timers and ranked handoffs —
/// checking every observable after every step. `clear_at` clears both
/// queues once at that step.
fn lane_mix_run(seed: u64, steps: usize, shard: Option<u32>, clear_at: Option<usize>) {
    let mut rng = XorShift(seed);
    let mut dut: EventQueue<u64> = EventQueue::new();
    let mut reference = ReferenceQueue::new();
    if let Some(s) = shard {
        dut.set_shard_rank(s);
        reference.set_shard_rank(s);
    }
    let mut payload = 0u64;
    for step in 0..steps {
        if clear_at == Some(step) {
            dut.clear();
            reference.clear();
        }
        let now = reference.now;
        if step % 1_600 == 799 {
            // At the top of a fill phase, a burst of timers with fresh
            // delays: two miss windows in a row. The second recycle sees
            // no hits since the first, so it drains a lane that still holds
            // flit entries.
            for _ in 0..540 {
                let at = now + SimDuration::from_ps(rng.below(2_000_000));
                dut.schedule(at, payload);
                reference.schedule(at, payload);
                payload += 1;
            }
        }
        // Alternate phases that fill the queue (pop 45%) and drain it
        // (pop 80%), so lanes run deep and then empty.
        let pop_share = if step % 1_600 < 800 { 45 } else { 80 };
        let roll = rng.below(100);
        if roll < pop_share {
            let got = dut.pop();
            assert_eq!(got, reference.pop(), "pop at step {step} (seed {seed})");
        } else if roll < 95 {
            let d = match rng.below(100) {
                // Hot flit delays; 75 000 ps is rare.
                0..=29 => FLIT_DELAYS[0],
                30..=44 => FLIT_DELAYS[1],
                45..=49 => FLIT_DELAYS[2],
                50..=53 => FLIT_DELAYS[3],
                54 => FLIT_DELAYS[4],
                55..=59 => 0,
                // Recurring timer delays, a new set every 1 000 steps: the
                // lanes of the old set go cold with entries still in them
                // and are recycled into the heap.
                60..=74 => 1_000_000 * ((step / 1_000) as u64 * 4 + 1 + rng.below(4)),
                // Random far timers: a new delay almost every time, the
                // misses that drive lane recycling.
                _ => rng.below(50_000_000),
            };
            let at = now + SimDuration::from_ps(d);
            dut.schedule(at, payload);
            reference.schedule(at, payload);
            payload += 1;
        } else {
            // A cross-shard handoff: fires at or after now, ranked at (or
            // before) the time its sender ran.
            let at = now + SimDuration::from_ps(FLIT_DELAYS[rng.below(2) as usize] * rng.below(3));
            let rank_time = SimTime::from_ps(now.as_ps().saturating_sub(rng.below(3) * 50_000));
            let src = rng.below(4) as u32;
            dut.schedule_ranked(at, rank_time, src, payload);
            reference.schedule_ranked(at, rank_time, src, payload);
            payload += 1;
        }
        assert_agree(&dut, &reference, step, seed);
    }
    loop {
        let got = dut.pop();
        assert_eq!(got, reference.pop(), "final drain (seed {seed})");
        assert_agree(&dut, &reference, steps, seed);
        if got.is_none() {
            break;
        }
    }
}

#[test]
fn matches_reference_order_on_flit_delay_mixes() {
    for seed in 1..=3u64 {
        lane_mix_run(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15), 4_800, None, None);
    }
}

#[test]
fn matches_reference_order_across_a_mid_run_clear() {
    lane_mix_run(0x5851_F42D_4C95_7F2D, 4_800, None, Some(2_000));
}

#[test]
fn matches_reference_order_on_a_shard_queue() {
    lane_mix_run(0x1405_7B7E_F767_814F, 4_800, Some(2), Some(4_000));
}

//! Conservative sharded parallel engine (epoch-synchronized PDES).
//!
//! The sequential engine ([`crate::engine`]) is the reference semantics;
//! this module executes the *same* event order across several OS threads.
//! The integrating crate partitions its model into shards (see
//! `itb_topo::partition`), each owning a private [`EventQueue`], and
//! implements [`ShardWorld`] so the driver here can:
//!
//! 1. find the global next event time `g` (a barrier + one atomic slot per
//!    shard),
//! 2. let every shard execute its local events in the bounded window
//!    `[g, g + lookahead)` in parallel — conservatively safe because any
//!    cross-shard effect produced at time `t` fires at `t + lookahead` or
//!    later (the lookahead is the minimum cross-shard cable latency, so the
//!    physics of the model guarantees the bound),
//! 3. exchange the cross-shard messages produced during the window through
//!    per-(src, dst) mailboxes, and
//! 4. absorb them in a *fixed merge order* — `(fire time, rank time, source
//!    shard, source sequence)` — before the next window.
//!
//! Determinism contract, precisely: a parallel run is always reproducible
//! (for a fixed shard count the engine never consults wall-clock time,
//! thread identity or map iteration order), and it dispatches events in
//! exactly the sequential order **except** in one narrow situation — two
//! events with identical `(fire time, rank time)` whose producers ran on
//! *different* shards. Sequentially that tie is broken by the global
//! schedule-call order of the two producers (which were themselves
//! simultaneous); in parallel it is broken by producer shard id, because
//! reconstructing the global schedule order of simultaneous remote
//! producers would need an unbounded rank chain back through every
//! same-picosecond ancestor. Every queue counts exactly these pairs
//! ([`EventQueue::cross_shard_ties`] — tied entries pop back-to-back, so
//! an adjacent-pop scan sees every pair), and the driver reports the sum
//! in [`ParReport::cross_shard_ties`]: **a run reporting 0 is proven
//! byte-identical to the sequential run** (digests, figure artifacts,
//! chaos audits). Ties do occur in realistic workloads — small
//! desynchronized loads (the 4/8-switch Poisson equivalence scenarios)
//! report 0, but the large benchmark loads tie at scale (hundreds to
//! thousands of pairs at 32–64 switches) — so a nonzero count does *not*
//! by itself mean divergence, only that byte-identity is no longer
//! guaranteed by construction. Whether the tied events commute in effect
//! is workload-dependent: the benchmark Poisson loads empirically match
//! sequential on every order-sensitive observable despite their ties
//! (re-verified on every change by `tests/par_equivalence.rs` and the CI
//! 1-vs-4 digest byte-compare), while fully symmetric workloads
//! (identical synchronized senders over uniform latencies) genuinely
//! reorder deliveries relative to sequential. Either way the run stays
//! deterministic and physically valid for a fixed shard count.
//!
//! Threads park on [`std::sync::Barrier`] between windows, so the engine is
//! correct (if pointless) even when oversubscribed on a single core.

use crate::queue::EventQueue;
use crate::time::{SimDuration, SimTime};
use serde::Serialize;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Barrier, Mutex};

/// A cross-shard message captured during a window, carrying everything the
/// destination needs to reproduce the sequential schedule order.
#[derive(Debug)]
pub struct Envelope<M> {
    /// Absolute time the event must fire at on the destination shard.
    pub fire_at: SimTime,
    /// Clock of the *scheduling* event on the source shard (the rank the
    /// sequential run would have stamped).
    pub rank_time: SimTime,
    /// Source shard id (tie-break between same-picosecond messages from
    /// different shards).
    pub src_shard: u32,
    /// Source-local capture sequence (FIFO among messages from one shard).
    pub src_seq: u64,
    /// The model-specific payload.
    pub msg: M,
}

impl<M> Envelope<M> {
    /// The fixed merge key: destination shards absorb mailbox contents
    /// sorted by this, which equals the sequential dispatch order except
    /// for cross-shard rank ties (see the module docs).
    #[inline]
    pub fn merge_key(&self) -> (SimTime, SimTime, u32, u64) {
        (self.fire_at, self.rank_time, self.src_shard, self.src_seq)
    }

    /// Schedule this envelope into a shard's queue, preserving its rank.
    #[inline]
    pub fn schedule_into<E>(self, q: &mut EventQueue<E>, into: impl FnOnce(M) -> E) {
        q.schedule_ranked(self.fire_at, self.rank_time, self.src_shard, into(self.msg));
    }
}

/// One shard of a partitioned simulation, as seen by the window driver.
///
/// Implementations own their shard's [`EventQueue`] plus the model state the
/// shard is responsible for. The driver only ever needs three things: the
/// next pending local time, bounded execution, and mailbox plumbing.
pub trait ShardWorld {
    /// Cross-shard message payload.
    type Msg: Send;

    /// Timestamp of the earliest pending local event (`None` when idle).
    fn next_time(&self) -> Option<SimTime>;

    /// Execute every local event with `time < limit`, in queue order,
    /// capturing cross-shard effects into internal per-destination outboxes
    /// instead of scheduling them locally.
    fn run_window(&mut self, limit: SimTime);

    /// Drain the outbox for destination shard `dst` (capture order must be
    /// the deterministic execution order of [`ShardWorld::run_window`]).
    fn take_outbox(&mut self, dst: u32) -> Vec<Envelope<Self::Msg>>;

    /// Accept one incoming envelope: adopt any carried state and schedule
    /// the event with [`EventQueue::schedule_ranked`]. The driver calls this
    /// in merge-key order.
    fn absorb(&mut self, env: Envelope<Self::Msg>);

    /// Cross-shard rank ties this shard's queue dispatched (see
    /// [`EventQueue::cross_shard_ties`]); the driver sums these into
    /// [`ParReport::cross_shard_ties`]. Implementations forward their
    /// queue's counter.
    fn cross_shard_ties(&self) -> u64 {
        0
    }

    /// Cumulative events this shard's queue has dispatched; the profiler
    /// differences it around each window to attribute event work to epoch
    /// windows. Implementations forward [`EventQueue::events_dispatched`];
    /// the default (always 0) merely zeroes the per-window `events` column.
    fn events_dispatched(&self) -> u64 {
        0
    }
}

/// Summary of one parallel run.
#[derive(Debug, Clone)]
pub struct ParReport {
    /// Worker threads used (= shard count).
    pub threads: u32,
    /// Synchronized execution windows (barrier epochs with work in them).
    pub windows: u64,
    /// Lookahead bound the windows were derived from.
    pub lookahead: SimDuration,
    /// Total cross-shard rank ties across every shard queue. 0 proves the
    /// run dispatched events in exactly the sequential order (see the
    /// module docs); nonzero means same-picosecond cross-shard arrivals
    /// were ordered by shard id instead of global schedule order.
    pub cross_shard_ties: u64,
}

/// One (shard, window) profiler record: what a shard did inside one epoch
/// window of the conservative protocol.
///
/// Sim-time fields (`g_ps`, `limit_ps`) and count fields are deterministic
/// for a fixed shard count; the `barrier_*_wait_ns` wall-clock fields are
/// *not* (they measure OS scheduling), so profiler artifacts must never be
/// byte-compared across runs — the determinism gates compare only the
/// sim-time artifacts.
#[derive(Debug, Clone, Serialize)]
pub struct WindowRecord {
    /// Shard this record belongs to.
    pub shard: u32,
    /// Window ordinal (0-based, counted per shard; all shards execute the
    /// same window sequence).
    pub window: u64,
    /// Window start: the global minimum next-event time g, picoseconds.
    pub g_ps: u64,
    /// Exclusive window end `min(g + lookahead, horizon + 1)`, picoseconds.
    pub limit_ps: u64,
    /// Events this shard dispatched inside the window.
    pub events: u64,
    /// Cross-shard envelopes absorbed at the start of this window.
    pub envelopes_in: u64,
    /// Cross-shard envelopes this shard deposited during the window.
    pub envelopes_out: u64,
    /// Cross-shard rank ties dispatched inside the window.
    pub ties: u64,
    /// Wall nanoseconds spent waiting on barrier A (next-time agreement).
    /// Nondeterministic; 0 when profiling is off or the run is single-shard.
    pub barrier_a_wait_ns: u64,
    /// Wall nanoseconds spent waiting on barrier B (window completion).
    /// Nondeterministic; 0 when profiling is off or the run is single-shard.
    pub barrier_b_wait_ns: u64,
}

/// The full per-(shard, window) profile of one parallel run, sorted by
/// `(shard, window)`.
#[derive(Debug, Clone, Default, Serialize)]
pub struct ParProfile {
    /// One record per shard per executed window.
    pub records: Vec<WindowRecord>,
}

/// Sentinel for "shard has nothing pending".
const IDLE: u64 = u64::MAX;

/// Run `f`, returning its result plus the wall nanoseconds it took — but
/// only when `profile` is set; otherwise the clock is never touched and the
/// reading is 0. Wall time here is observability sidecar data (barrier-wait
/// attribution); it never feeds back into simulation state, which is what
/// keeps profiled runs bit-reproducible in every sim-time artifact.
fn wall_ns<T>(profile: bool, f: impl FnOnce() -> T) -> (T, u64) {
    if !profile {
        return (f(), 0);
    }
    // detlint::allow(D002, profiler stopwatch: wall-ns lands only in WindowRecord sidecars, never in sim state)
    let t0 = std::time::Instant::now();
    let out = f();
    (out, crate::narrow(t0.elapsed().as_nanos()))
}

/// One window's cross-shard mail from one source shard to one destination.
type Mailbox<M> = Mutex<Vec<Envelope<M>>>;

/// Run `worlds` (one per shard) to `horizon` (inclusive, matching
/// [`crate::engine::run_until`]) on one OS thread per shard.
///
/// `lookahead` must be a *conservative* bound: an event executing at time
/// `t` on one shard may only produce cross-shard effects firing at
/// `t + lookahead` or later. The caller derives it from the partition's
/// minimum cut-link latency.
///
/// Returns the worlds (for stats extraction) and a [`ParReport`].
///
/// # Panics
/// Panics if `worlds` is empty or `lookahead` is zero — a conservative
/// engine cannot make progress without strictly positive lookahead.
pub fn run_shards<W>(
    worlds: Vec<W>,
    lookahead: SimDuration,
    horizon: SimTime,
) -> (Vec<W>, ParReport)
where
    W: ShardWorld + Send,
{
    let (worlds, report, _) = run_shards_impl(worlds, lookahead, horizon, false);
    (worlds, report)
}

/// [`run_shards`] with the per-(shard, window) profiler enabled: every epoch
/// window additionally produces a [`WindowRecord`] (events, envelope counts,
/// ties, barrier-wait wall-ns). Sim-time execution is identical to the
/// unprofiled run — the profiler only *reads* counters the engine maintains
/// anyway, plus a wall stopwatch around the barrier waits.
///
/// # Panics
/// Same contract as [`run_shards`].
pub fn run_shards_profiled<W>(
    worlds: Vec<W>,
    lookahead: SimDuration,
    horizon: SimTime,
) -> (Vec<W>, ParReport, ParProfile)
where
    W: ShardWorld + Send,
{
    run_shards_impl(worlds, lookahead, horizon, true)
}

fn run_shards_impl<W>(
    worlds: Vec<W>,
    lookahead: SimDuration,
    horizon: SimTime,
    profile: bool,
) -> (Vec<W>, ParReport, ParProfile)
where
    W: ShardWorld + Send,
{
    let n = worlds.len();
    assert!(n > 0, "run_shards needs at least one shard");
    assert!(
        lookahead > SimDuration::ZERO,
        "conservative engine needs positive lookahead"
    );

    // Single shard: no cross-shard traffic is possible; one unbounded
    // window to the horizon is the sequential engine.
    if n == 1 {
        let mut worlds = worlds;
        let events_before = worlds[0].events_dispatched();
        let ties_before = worlds[0].cross_shard_ties();
        let limit_ps = horizon.as_ps().saturating_add(1);
        worlds[0].run_window(SimTime::from_ps(limit_ps));
        let cross_shard_ties = worlds[0].cross_shard_ties();
        let profile_out = ParProfile {
            records: if profile {
                vec![WindowRecord {
                    shard: 0,
                    window: 0,
                    g_ps: 0,
                    limit_ps,
                    events: worlds[0].events_dispatched().saturating_sub(events_before),
                    envelopes_in: 0,
                    envelopes_out: 0,
                    ties: cross_shard_ties.saturating_sub(ties_before),
                    barrier_a_wait_ns: 0,
                    barrier_b_wait_ns: 0,
                }]
            } else {
                Vec::new()
            },
        };
        return (
            worlds,
            ParReport {
                threads: 1,
                windows: 1,
                lookahead,
                cross_shard_ties,
            },
            profile_out,
        );
    }

    // next_times[s]: earliest pending event on shard s (IDLE when empty),
    // published before barrier A, read after it.
    let next_times: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(IDLE)).collect();
    // mailboxes[src][dst]: envelopes captured by src for dst during the
    // current window. Written between barrier A and barrier B (by src
    // only), drained between barrier B and the next barrier A (by dst
    // only) — the barriers are what make the Mutex uncontended.
    let mailboxes: Vec<Vec<Mailbox<W::Msg>>> = (0..n)
        .map(|_| (0..n).map(|_| Mutex::new(Vec::new())).collect())
        .collect();
    let barrier_a = Barrier::new(n);
    let barrier_b = Barrier::new(n);
    let l_ps = lookahead.as_ps();
    let horizon_ps = horizon.as_ps();

    // detlint::allow(D002, the conservative PDES driver is the one sanctioned thread-spawn site; workers synchronize on barriers and never read wall-clock time)
    let results: Vec<(W, u64, Vec<WindowRecord>)> = std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(n);
        for (me, mut world) in worlds.into_iter().enumerate() {
            let next_times = &next_times;
            let mailboxes = &mailboxes;
            let barrier_a = &barrier_a;
            let barrier_b = &barrier_b;
            handles.push(scope.spawn(move || {
                let mut windows: u64 = 0;
                let mut incoming: Vec<Envelope<W::Msg>> = Vec::new();
                let mut records: Vec<WindowRecord> = Vec::new();
                loop {
                    // Drain mailboxes addressed to this shard (deposited
                    // before the previous barrier B) and merge them in the
                    // fixed order the sequential run would dispatch them.
                    for (src, row) in mailboxes.iter().enumerate() {
                        if src != me {
                            // detlint::allow(S001, poisoning is unreachable: a worker panic aborts the scope before the lock is retaken)
                            let mut slot = row[me].lock().expect("poisoned");
                            incoming.append(&mut slot);
                        }
                    }
                    let envelopes_in = incoming.len() as u64;
                    incoming.sort_by_key(Envelope::merge_key);
                    for env in incoming.drain(..) {
                        world.absorb(env);
                    }

                    // Publish the earliest pending local time, then agree on
                    // the global minimum g.
                    let mine = world.next_time().map_or(IDLE, SimTime::as_ps);
                    next_times[me].store(mine, Ordering::SeqCst);
                    // detlint::allow(T001, barrier-wait stopwatch: the reading lands only in WindowRecord sidecars and never feeds back into sim state)
                    let ((), barrier_a_wait_ns) = wall_ns(profile, || {
                        barrier_a.wait();
                    });
                    let mut g = IDLE;
                    for slot in next_times.iter() {
                        g = g.min(slot.load(Ordering::SeqCst));
                    }
                    if g > horizon_ps {
                        // Every shard computes the same g from the same
                        // slots, so all workers break on the same epoch —
                        // with every mailbox provably drained above.
                        break;
                    }

                    // Execute the window [g, g + lookahead), clipped to the
                    // inclusive horizon, then deposit cross-shard effects.
                    let limit = g.saturating_add(l_ps).min(horizon_ps.saturating_add(1));
                    let events_before = world.events_dispatched();
                    let ties_before = world.cross_shard_ties();
                    world.run_window(SimTime::from_ps(limit));
                    let mut envelopes_out = 0u64;
                    for (dst, slot) in mailboxes[me].iter().enumerate() {
                        if dst != me {
                            let out = world.take_outbox(crate::narrow(dst));
                            if !out.is_empty() {
                                envelopes_out += out.len() as u64;
                                // detlint::allow(S001, poisoning is unreachable: a worker panic aborts the scope before the lock is retaken)
                                let mut slot = slot.lock().expect("poisoned");
                                slot.extend(out);
                            }
                        }
                    }
                    if profile {
                        records.push(WindowRecord {
                            shard: crate::narrow(me),
                            window: windows,
                            g_ps: g,
                            limit_ps: limit,
                            events: world.events_dispatched().saturating_sub(events_before),
                            envelopes_in,
                            envelopes_out,
                            ties: world.cross_shard_ties().saturating_sub(ties_before),
                            barrier_a_wait_ns,
                            barrier_b_wait_ns: 0,
                        });
                    }
                    windows += 1;
                    // detlint::allow(T001, barrier-wait stopwatch: the reading lands only in WindowRecord sidecars and never feeds back into sim state)
                    let ((), barrier_b_wait_ns) = wall_ns(profile, || {
                        barrier_b.wait();
                    });
                    if let Some(last) = records.last_mut() {
                        last.barrier_b_wait_ns = barrier_b_wait_ns;
                    }
                }
                (world, windows, records)
            }));
        }
        handles
            .into_iter()
            // detlint::allow(S001, a worker panic is a model bug; join propagates it to the caller)
            .map(|h| h.join().expect("shard worker panicked"))
            .collect()
    });

    let mut worlds = Vec::with_capacity(n);
    let mut windows = 0u64;
    let mut cross_shard_ties = 0u64;
    let mut records = Vec::new();
    for (w, wnd, rec) in results {
        windows = windows.max(wnd);
        cross_shard_ties += w.cross_shard_ties();
        records.extend(rec);
        worlds.push(w);
    }
    records.sort_by_key(|r| (r.shard, r.window));
    (
        worlds,
        ParReport {
            threads: crate::narrow(n),
            windows,
            lookahead,
            cross_shard_ties,
        },
        ParProfile { records },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy sharded model: each shard owns one counter host; every event
    /// increments the local counter and with a fixed pattern sends a
    /// follow-up to the other shard at `now + delay` (delay ≥ lookahead).
    struct Toy {
        me: u32,
        q: EventQueue<u64>,
        count: u64,
        history: Vec<(SimTime, u64)>,
        outbox: Vec<Envelope<u64>>,
        out_seq: u64,
        hops: u64,
        delay: SimDuration,
    }

    impl Toy {
        fn handle(&mut self, now: SimTime, tag: u64) {
            self.count += 1;
            self.history.push((now, tag));
            if self.hops > 0 {
                self.hops -= 1;
                // Alternate: even tags stay local, odd tags hop shards.
                if tag.is_multiple_of(2) {
                    self.q.schedule(now + self.delay, tag + 1);
                } else {
                    self.out_seq += 1;
                    self.outbox.push(Envelope {
                        fire_at: now + self.delay,
                        rank_time: now,
                        src_shard: self.me,
                        src_seq: self.out_seq,
                        msg: tag + 1,
                    });
                }
            }
        }
    }

    impl ShardWorld for Toy {
        type Msg = u64;
        fn next_time(&self) -> Option<SimTime> {
            self.q.peek_time()
        }
        fn run_window(&mut self, limit: SimTime) {
            while self.q.peek_time().is_some_and(|t| t < limit) {
                let (now, tag) = self.q.pop().expect("peeked entry vanished");
                self.handle(now, tag);
            }
        }
        fn take_outbox(&mut self, _dst: u32) -> Vec<Envelope<u64>> {
            std::mem::take(&mut self.outbox)
        }
        fn absorb(&mut self, env: Envelope<u64>) {
            env.schedule_into(&mut self.q, |m| m);
        }
        fn cross_shard_ties(&self) -> u64 {
            self.q.cross_shard_ties()
        }
    }

    fn toy(me: u32, shards: u32) -> Toy {
        let mut q = EventQueue::new();
        q.set_shard_rank(me);
        Toy {
            me,
            q,
            count: 0,
            history: Vec::new(),
            outbox: Vec::new(),
            out_seq: 0,
            hops: 200,
            delay: SimDuration::from_ns(30),
        }
        .tap_seed(shards)
    }

    impl Toy {
        fn tap_seed(mut self, shards: u32) -> Toy {
            // Every shard starts one chain; stagger the kick-offs so ties
            // and near-ties occur across shards.
            let t0 = SimTime::from_ns(u64::from(self.me % shards) + 1);
            self.q.schedule(t0, u64::from(self.me) * 1000);
            self
        }
    }

    #[test]
    fn two_shards_match_sequential_history() {
        let horizon = SimTime::from_us(100);
        let lookahead = SimDuration::from_ns(30);

        // Parallel run.
        let worlds = vec![toy(0, 2), toy(1, 2)];
        let (par, report) = run_shards(worlds, lookahead, horizon);
        assert_eq!(report.threads, 2);
        assert!(report.windows > 1, "expected multiple windows");

        // Sequential reference: same model, one queue, events tagged by
        // owner; cross-shard sends become plain schedules.
        let mut seq: Vec<Vec<(SimTime, u64)>> = vec![Vec::new(), Vec::new()];
        let mut q = EventQueue::<(u32, u64)>::new();
        q.schedule(SimTime::from_ns(1), (0, 0));
        q.schedule(SimTime::from_ns(2), (1, 1000));
        let mut hops = [200u64, 200u64];
        let delay = SimDuration::from_ns(30);
        while let Some(t) = q.peek_time() {
            if t > horizon {
                break;
            }
            let (now, (owner, tag)) = q.pop().expect("peeked entry vanished");
            seq[owner as usize].push((now, tag));
            if hops[owner as usize] > 0 {
                hops[owner as usize] -= 1;
                let nxt = if tag % 2 == 0 { owner } else { 1 - owner };
                q.schedule(now + delay, (nxt, tag + 1));
            }
        }

        for s in 0..2 {
            assert_eq!(par[s].history, seq[s], "shard {s} history diverged");
        }
        // Staggered kick-offs never produce same-(time, rank_time) events
        // on different shards, so the equality above is the *proven* case.
        assert_eq!(report.cross_shard_ties, 0);
    }

    /// Fully symmetric chains: every shard kicks off two chains at the same
    /// instant, so absorbed envelopes collide with local events on equal
    /// `(fire time, rank time)` — the one tie the parallel engine breaks by
    /// shard id instead of sequential schedule order. The detector must see
    /// those pairs, and the run must still be reproducible.
    #[test]
    fn symmetric_workload_reports_cross_shard_ties() {
        let sym = |me: u32| {
            let mut q = EventQueue::new();
            q.set_shard_rank(me);
            let t0 = SimTime::from_ns(1);
            // One chain hops immediately (odd tag), one hops next step.
            q.schedule(t0, u64::from(me) * 1000 + 1);
            q.schedule(t0, u64::from(me) * 1000 + 2);
            Toy {
                me,
                q,
                count: 0,
                history: Vec::new(),
                outbox: Vec::new(),
                out_seq: 0,
                hops: 200,
                delay: SimDuration::from_ns(30),
            }
        };
        let run = || {
            let (w, report) = run_shards(
                vec![sym(0), sym(1)],
                SimDuration::from_ns(30),
                SimTime::from_us(50),
            );
            (
                w.into_iter().map(|t| t.history).collect::<Vec<_>>(),
                report.cross_shard_ties,
            )
        };
        let (hist_a, ties_a) = run();
        let (hist_b, ties_b) = run();
        assert!(ties_a > 0, "symmetric chains must collide cross-shard");
        assert_eq!(ties_a, ties_b, "tie count is deterministic");
        assert_eq!(hist_a, hist_b, "tied runs still reproduce exactly");
    }

    #[test]
    fn single_shard_runs_to_horizon() {
        let (worlds, report) = run_shards(
            vec![toy(0, 1)],
            SimDuration::from_ns(30),
            SimTime::from_us(100),
        );
        assert_eq!(report.threads, 1);
        assert_eq!(report.windows, 1);
        assert!(worlds[0].count > 0);
    }

    #[test]
    fn parallel_is_deterministic_across_runs() {
        let run = || {
            let (w, _) = run_shards(
                vec![toy(0, 4), toy(1, 4), toy(2, 4), toy(3, 4)],
                SimDuration::from_ns(30),
                SimTime::from_us(50),
            );
            w.into_iter().map(|t| t.history).collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    #[should_panic(expected = "positive lookahead")]
    fn zero_lookahead_rejected() {
        let _ = run_shards(vec![toy(0, 1)], SimDuration::ZERO, SimTime::from_us(1));
    }
}

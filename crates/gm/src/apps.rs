//! Application behaviours driving the cluster, and the per-host state
//! machines that run them.

use itb_sim::{narrow, SimDuration, SimRng, SimTime};
use itb_topo::HostId;
use serde::Serialize;

/// What a host's application does.
#[derive(Debug, Clone, Serialize)]
pub enum AppBehavior {
    /// Passive: consume messages, do nothing.
    Sink,
    /// Respond to every delivered message with an equal-size message back
    /// to the sender (the responder half of `gm_allsize`).
    Echo,
    /// The initiator half of the `gm_allsize` latency test: for each size,
    /// send a message to `peer`, wait for the equal-size echo, repeat
    /// `iters` times (after `warmup` unrecorded iterations), recording each
    /// round-trip.
    PingPong {
        /// Echo peer.
        peer: HostId,
        /// Message sizes to sweep, in order.
        sizes: Vec<u32>,
        /// Recorded iterations per size.
        iters: u32,
        /// Unrecorded warm-up iterations per size.
        warmup: u32,
    },
    /// Send `count` back-to-back messages of `size` bytes to `dst`
    /// (bandwidth/stream testing).
    Stream {
        /// Destination host.
        dst: HostId,
        /// Message size in bytes.
        size: u32,
        /// Number of messages.
        count: u32,
    },
    /// Open-loop Poisson traffic: messages of `size` bytes to uniformly
    /// random destinations at mean interval `mean_gap` (the loaded-network
    /// workload of the motivation experiments).
    Poisson {
        /// Message size in bytes.
        size: u32,
        /// Mean inter-arrival gap.
        mean_gap: SimDuration,
        /// Stop generating after this many messages (0 = unlimited).
        limit: u32,
    },
    /// Total exchange: send one `size`-byte message to every other host,
    /// `gap` apart — the all-to-all phase of distributed applications,
    /// modelling the paper's stated next step ("the impact of using ITBs in
    /// the execution time of distributed applications").
    AllToAll {
        /// Message size in bytes.
        size: u32,
        /// Spacing between successive sends from this host.
        gap: SimDuration,
    },
}

/// Per-host ping-pong progress.
#[derive(Debug, Clone, Default)]
pub struct PingPongState {
    /// Index into `sizes`.
    pub size_ix: usize,
    /// Iterations completed at the current size (including warmup).
    pub iter: u32,
    /// Send timestamp of the in-flight ping.
    pub sent_at: Option<itb_sim::SimTime>,
    /// Recorded samples: (size, round-trip time).
    pub samples: Vec<(u32, SimDuration)>,
    /// Whether the whole sweep finished.
    pub done: bool,
}

/// A uniformly random host other than `host`, out of `hosts`.
pub(crate) fn other_host(rng: &mut SimRng, host: usize, hosts: usize) -> HostId {
    let dst = rng.below(hosts as u64 - 1);
    HostId(narrow(dst + u64::from(dst >= host as u64)))
}

/// An exponential gap of mean `mean`.
pub(crate) fn exp_gap(rng: &mut SimRng, mean: SimDuration) -> SimDuration {
    SimDuration::from_ns_f64(rng.exp(mean.as_ns_f64()))
}

/// What an app asks after one of its events: a `(dst, len)` message to send
/// now, then the delay to its next `AppSend`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Step(pub Option<(HostId, u32)>, pub Option<SimDuration>);

/// One host's application: its behaviour and all of its progress.
pub(crate) struct App {
    behavior: AppBehavior,
    host: HostId,
    hosts: u32,
    /// Messages sent so far (Stream, Poisson and AllToAll).
    sent: u32,
    pub(crate) ping: PingPongState,
    /// The host's child traffic stream. Not folded into the cluster's
    /// state digest: checker scenarios use only deterministic behaviors
    /// that never draw from it.
    rng: SimRng,
}

impl App {
    pub(crate) fn new(behavior: AppBehavior, host: HostId, hosts: u32, rng: SimRng) -> Self {
        App {
            behavior,
            host,
            hosts,
            sent: 0,
            ping: PingPongState::default(),
            rng,
        }
    }

    /// Whether this app is not a ping-pong initiator or finished its sweep.
    pub(crate) fn ping_done(&self) -> bool {
        !matches!(self.behavior, AppBehavior::PingPong { .. }) || self.ping.done
    }

    /// At time zero: when the first `AppSend` fires (none for passive apps).
    pub(crate) fn first_send(&mut self) -> Step {
        let first = match self.behavior {
            AppBehavior::Sink | AppBehavior::Echo => return Step::default(),
            AppBehavior::Poisson { mean_gap, .. } => exp_gap(&mut self.rng, mean_gap),
            _ => SimDuration::ZERO,
        };
        Step(None, Some(first))
    }

    /// An `AppSend` fired at `now`.
    pub(crate) fn on_send(&mut self, now: SimTime) -> Step {
        match self.behavior {
            AppBehavior::PingPong {
                peer, ref sizes, ..
            } => {
                let st = &mut self.ping;
                if st.done || st.size_ix >= sizes.len() {
                    st.done = true;
                    return Step::default();
                }
                st.sent_at = Some(now);
                Step(Some((peer, sizes[st.size_ix])), None)
            }
            AppBehavior::Stream { dst, size, count } if self.sent < count => {
                self.sent += 1;
                // Next message immediately (back-to-back; NIC queues pace it).
                let next = (self.sent < count).then_some(SimDuration::ZERO);
                Step(Some((dst, size)), next)
            }
            AppBehavior::Poisson {
                size,
                mean_gap,
                limit,
            } if limit == 0 || self.sent < limit => {
                self.sent += 1;
                let dst = other_host(&mut self.rng, self.host.idx(), self.hosts as usize);
                Step(Some((dst, size)), Some(exp_gap(&mut self.rng, mean_gap)))
            }
            AppBehavior::AllToAll { size, gap } if self.sent + 1 < self.hosts => {
                // Destination order: host+1, host+2, ... (mod n), skipping
                // self — every host starts its exchange at a different peer,
                // the standard skew for total exchanges.
                let n = self.hosts;
                let dst = HostId(narrow((u32::from(self.host.0) + 1 + self.sent) % n));
                self.sent += 1;
                Step(Some((dst, size)), (self.sent + 1 < n).then_some(gap))
            }
            _ => Step::default(),
        }
    }

    /// A `len`-byte message from `from` reached this app at `now`.
    pub(crate) fn on_deliver(&mut self, from: HostId, len: u32, now: SimTime) -> Step {
        match self.behavior {
            AppBehavior::Echo => Step(Some((from, len)), None),
            AppBehavior::PingPong {
                ref sizes,
                iters,
                warmup,
                ..
            } => {
                let st = &mut self.ping;
                // detlint::allow(S001, a pong is only delivered for an in-flight ping)
                let sent = st.sent_at.take().expect("pong matches an in-flight ping");
                if st.iter >= warmup {
                    st.samples.push((sizes[st.size_ix], now - sent));
                }
                st.iter += 1;
                if st.iter >= warmup + iters {
                    st.iter = 0;
                    st.size_ix += 1;
                }
                st.done = st.size_ix >= sizes.len();
                Step(None, (!st.done).then_some(SimDuration::ZERO))
            }
            _ => Step::default(),
        }
    }

    /// Fold every app's progress into a cluster digest: the ping-pong
    /// block of every host, then the Stream, Poisson and AllToAll sent
    /// counters of every host, zero where a host runs another app.
    pub(crate) fn digest_all(apps: &[App], d: &mut itb_sim::Digest) {
        for st in apps.iter().map(|a| &a.ping) {
            d.usize(st.size_ix);
            d.u32(st.iter);
            d.bool(st.sent_at.is_some());
            if let Some(t) = st.sent_at {
                d.u64(t.as_ps());
            }
            d.bool(st.done);
        }
        for slot in 0..3 {
            for app in apps {
                let own = match app.behavior {
                    AppBehavior::Stream { .. } => 0,
                    AppBehavior::Poisson { .. } => 1,
                    AppBehavior::AllToAll { .. } => 2,
                    _ => 3,
                };
                d.u32(if own == slot { app.sent } else { 0 });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T0: SimTime = SimTime::ZERO;

    fn app(behavior: AppBehavior, host: u16, hosts: u32) -> App {
        App::new(
            behavior,
            HostId(host),
            hosts,
            SimRng::new(7).child(u64::from(host)),
        )
    }

    /// Every message an app sends from its start when each `AppSend`
    /// fires as soon as it asks (deliveries play no part), up to `cap`.
    fn sends_until_idle(a: &mut App, cap: usize) -> Vec<(HostId, u32)> {
        let mut out = Vec::new();
        let mut step = a.first_send();
        while step.1.is_some() && out.len() < cap {
            step = a.on_send(T0);
            out.extend(step.0);
        }
        out
    }

    #[test]
    fn ping_pong_walks_warmup_iterations_and_sizes_then_stops() {
        let mut a = app(
            AppBehavior::PingPong {
                peer: HostId(1),
                sizes: vec![8, 64],
                iters: 2,
                warmup: 1,
            },
            0,
            2,
        );
        assert_eq!(a.first_send(), Step(None, Some(SimDuration::ZERO)));
        assert!(!a.ping_done());
        let mut now = T0;
        for (round, size) in [8, 8, 8, 64, 64, 64].into_iter().enumerate() {
            assert_eq!(a.on_send(now), Step(Some((HostId(1), size)), None));
            let rtt = SimDuration::from_ns(100 + round as u64);
            now += rtt;
            let step = a.on_deliver(HostId(1), size, now);
            if round < 5 {
                assert_eq!(step, Step(None, Some(SimDuration::ZERO)), "round {round}");
            } else {
                assert_eq!(step, Step::default(), "the sweep ends");
            }
        }
        assert!(a.ping_done() && a.ping.done);
        let ns = |r: u64| SimDuration::from_ns(100 + r);
        // Round 0 of each size is warm-up and goes unrecorded.
        let expected = vec![(8, ns(1)), (8, ns(2)), (64, ns(4)), (64, ns(5))];
        assert_eq!(a.ping.samples, expected);
        assert_eq!(
            a.on_send(now),
            Step::default(),
            "a finished sweep sends nothing"
        );
    }

    #[test]
    fn stream_sends_count_messages_back_to_back() {
        let mut a = app(
            AppBehavior::Stream {
                dst: HostId(2),
                size: 512,
                count: 3,
            },
            0,
            4,
        );
        assert_eq!(a.first_send(), Step(None, Some(SimDuration::ZERO)));
        let zero = Some(SimDuration::ZERO);
        assert_eq!(a.on_send(T0), Step(Some((HostId(2), 512)), zero));
        assert_eq!(a.on_send(T0), Step(Some((HostId(2), 512)), zero));
        assert_eq!(a.on_send(T0), Step(Some((HostId(2), 512)), None));
        assert_eq!(a.on_send(T0), Step::default());
        assert!(a.ping_done(), "only ping-pong initiators hold a sweep open");
    }

    #[test]
    fn all_to_all_visits_every_other_host_in_skewed_order() {
        let gap = SimDuration::from_ns(250);
        let mut a = app(AppBehavior::AllToAll { size: 64, gap }, 3, 5);
        let order: Vec<u16> = sends_until_idle(&mut a, 100)
            .into_iter()
            .map(|(dst, len)| {
                assert_eq!(len, 64);
                dst.0
            })
            .collect();
        assert_eq!(order, vec![4, 0, 1, 2], "host+1+k mod n, n - 1 sends");
        let mut b = app(AppBehavior::AllToAll { size: 64, gap }, 0, 3);
        assert_eq!(b.on_send(T0), Step(Some((HostId(1), 64)), Some(gap)));
        assert_eq!(b.on_send(T0), Step(Some((HostId(2), 64)), None));
    }

    #[test]
    fn poisson_never_targets_itself_and_honours_its_limit() {
        let mean_gap = SimDuration::from_us(1);
        let (host, hosts, limit) = (2, 4, 200);
        let mut a = app(
            AppBehavior::Poisson {
                size: 32,
                mean_gap,
                limit,
            },
            host,
            hosts,
        );
        let sends = sends_until_idle(&mut a, 1_000);
        assert_eq!(sends.len(), limit as usize);
        assert!(sends.iter().all(|&(dst, len)| dst.0 != host && len == 32));
        let mut seen: Vec<u16> = sends.iter().map(|&(dst, _)| dst.0).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen, vec![0, 1, 3], "every other host is drawn");
        // Unlimited: the stream keeps going.
        let mut b = app(
            AppBehavior::Poisson {
                size: 32,
                mean_gap,
                limit: 0,
            },
            0,
            2,
        );
        let sends = sends_until_idle(&mut b, 50);
        assert_eq!(sends.len(), 50);
        assert!(sends.iter().all(|&(dst, _)| dst == HostId(1)));
    }

    #[test]
    fn echo_answers_the_sender_and_passive_apps_stay_quiet() {
        let mut echo = app(AppBehavior::Echo, 1, 3);
        assert_eq!(echo.first_send(), Step::default());
        let from = HostId(2);
        assert_eq!(echo.on_deliver(from, 96, T0), Step(Some((from, 96)), None));
        assert_eq!(echo.on_send(T0), Step::default());
        let mut sink = app(AppBehavior::Sink, 0, 3);
        assert_eq!(sink.first_send(), Step::default());
        assert_eq!(sink.on_deliver(from, 96, T0), Step::default());
    }
}

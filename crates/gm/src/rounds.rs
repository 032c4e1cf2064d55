//! The flow engine's round cycle, shared by the hybrid [`Cluster`](crate::Cluster)
//! and [`FlowWorld`](crate::FlowWorld): the first live flow arms a round; each
//! round solves, advances, reports every completion at its exact offset and
//! re-arms while flows remain, so a round is scheduled exactly while flows live.

use itb_net::FlowNet;
use itb_sim::{EventQueue, SimDuration, SimTime};
use itb_topo::HostId;

/// A [`FlowNet`] served in rounds of `round` under one world's queue.
pub(crate) struct FlowRounds<E> {
    /// The live flows: open them through [`FlowRounds::open`]; only the
    /// round handler closes them.
    pub(crate) net: FlowNet,
    pub(crate) round: SimDuration,
    /// The world's round-boundary event.
    event: E,
    /// Flows opened (the next flow's number) and completed so far.
    pub(crate) opened: u64,
    pub(crate) completed: u64,
}

impl<E: Copy> FlowRounds<E> {
    pub(crate) fn new(net: FlowNet, round: SimDuration, event: E) -> Self {
        FlowRounds {
            net,
            round,
            event,
            opened: 0,
            completed: 0,
        }
    }

    /// Open flow `id` at `now`; the first live flow arms the round.
    pub(crate) fn open(
        &mut self,
        id: u64,
        src: HostId,
        dst: HostId,
        bytes: u64,
        now: SimTime,
        q: &mut EventQueue<E>,
    ) {
        if self.net.is_empty() {
            q.schedule(now + self.round, self.event);
        }
        self.net.open(id, src, dst, bytes);
        self.opened += 1;
    }

    /// Commit one round of service from `now` over the solved rates:
    /// `complete` gets each finished flow's id and delivery time, then the
    /// round re-arms while flows remain.
    pub(crate) fn advance(
        &mut self,
        now: SimTime,
        q: &mut EventQueue<E>,
        mut complete: impl FnMut(u64, SimTime, &mut EventQueue<E>),
    ) {
        for done in self.net.advance(self.round) {
            self.completed += 1;
            complete(done.id, now + done.offset, q);
        }
        if !self.net.is_empty() {
            q.schedule(now + self.round, self.event);
        }
    }
}

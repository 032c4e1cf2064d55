//! Checker scenarios: small, fully deterministic cluster configurations
//! whose interleavings the explorer enumerates, and the world wrapper that
//! applies [`Action`]s to them.
//!
//! Scenarios deliberately use only deterministic application behaviors
//! (`Stream` / `Sink`) — the per-host RNG streams are never drawn from, so
//! they are soundly excluded from the state digest. Retry budgets are
//! lowered (`max_retries = 3`) so connection-failure terminals fit inside
//! the depth bound.

use crate::action::Action;
use itb_core::ClusterSpec;
use itb_gm::cluster::{ClusterEvent, HostEvent};
use itb_gm::{AppBehavior, Cluster};
use itb_net::PacketId;
use itb_nic::McpFlavor;
use itb_routing::figures;
use itb_sim::{Digest, EventQueue, World};
use itb_topo::{HostId, LinkId};
use std::hash::Hash;

/// Message payload used by all scenarios: single-packet (well under the
/// MTU), so one message is one data packet plus one ACK.
const MSG_BYTES: u32 = 64;

/// A named, reproducible checker configuration: the cluster to build, the
/// traffic to run, and which fault actions the explorer may inject.
pub struct Scenario {
    /// Stable name (artifact key, fixture reference).
    pub name: &'static str,
    spec: ClusterSpec,
    behaviors: Vec<AppBehavior>,
    /// Whether [`Action::Drop`] is offered on in-flight packets.
    pub drop_faults: bool,
    /// Links eligible for [`Action::LinkDown`] / [`Action::LinkUp`].
    pub link_faults: Vec<LinkId>,
    /// Hosts eligible for [`Action::Crash`] / [`Action::Recover`].
    pub crash_faults: Vec<HostId>,
}

impl Scenario {
    /// The minimal reliability scenario: two hosts on one switch, host 0
    /// streaming `messages` single-packet messages at host 1, with packet
    /// drops (and the retransmission timeouts they provoke) as the fault
    /// alphabet.
    pub fn two_host(messages: u32) -> Self {
        let mut spec = ClusterSpec::chain(1, 2);
        spec.calib.gm.max_retries = 3;
        let behaviors = vec![
            AppBehavior::Stream {
                dst: HostId(1),
                size: MSG_BYTES,
                count: messages,
            },
            AppBehavior::Sink,
        ];
        Scenario {
            name: "two_host",
            spec,
            behaviors,
            drop_faults: true,
            link_faults: Vec::new(),
            crash_faults: Vec::new(),
        }
    }

    /// The two-host scenario with NIC crashes in the fault alphabet: either
    /// endpoint's NIC may crash and recover at any point, on top of packet
    /// drops. Crash of the receiver mid-reception exercises the flush
    /// paths; crash of the sender while an ACK is inbound exercises
    /// duplicate suppression across the loss.
    pub fn two_host_crash() -> Self {
        let mut sc = Self::two_host(1);
        sc.name = "two_host_crash";
        sc.crash_faults = vec![HostId(0), HostId(1)];
        sc
    }

    /// The two-host scenario squeezed through a single-buffer receive pool
    /// in the paper's §4 flush-on-overflow mode: two back-to-back messages
    /// compete for one buffer, so overflow flushes and the retransmissions
    /// they force are part of every schedule — the checker sweeps drops on
    /// top of that.
    pub fn two_host_tiny_pool() -> Self {
        let mut sc = Self::two_host(2);
        sc.name = "two_host_tiny_pool";
        sc.spec = sc.spec.with_recv_buffers(1).with_flush_on_overflow(true);
        sc
    }

    /// The paper's Figure 6 testbed on the ITB path (host 1 → in-transit
    /// host → host 2, flush-on-overflow receive pool): one message through
    /// the ITB route, with drops, an inter-switch cable outage and a crash
    /// of the in-transit host's NIC as the fault alphabet.
    pub fn fig6_itb() -> Self {
        let base = ClusterSpec::fig6_testbed()
            .with_mcp(McpFlavor::Itb)
            .with_flush_on_overflow(true);
        // detlint::allow(S001, fig6_testbed always carries its testbed structure)
        let tb = base.testbed.clone().expect("fig6 testbed structure");
        let mut spec = base
            .with_route_override(figures::fig8_itb_route(&tb))
            .with_route_override(figures::fig8_return_route(&tb));
        spec.calib.gm.max_retries = 3;
        let mut behaviors = vec![AppBehavior::Sink; spec.num_hosts()];
        behaviors[tb.host1.idx()] = AppBehavior::Stream {
            dst: tb.host2,
            size: MSG_BYTES,
            count: 1,
        };
        Scenario {
            name: "fig6_itb",
            spec,
            behaviors,
            drop_faults: true,
            link_faults: vec![tb.cable_a],
            crash_faults: vec![tb.itb_host],
        }
    }

    /// Number of hosts in the scenario's topology.
    pub fn num_hosts(&self) -> usize {
        self.spec.num_hosts()
    }

    /// Build the root world: cluster constructed, applications started,
    /// nothing dispatched yet.
    pub fn build(&self) -> CheckState {
        let mut cluster = self.spec.build(self.behaviors.clone());
        let mut queue = EventQueue::new();
        cluster.start(&mut queue);
        CheckState { cluster, queue }
    }

    /// Rebuild the root and replay `path` on it. The simulator is
    /// deterministic, so this reproduces the exact world the path reached
    /// — the checker's substitute for cloning world state.
    pub fn replay(&self, path: &[Action]) -> CheckState {
        let mut st = self.build();
        for &a in path {
            st.apply(a);
        }
        st
    }
}

/// A world under exploration: the cluster plus its event queue.
pub struct CheckState {
    /// The simulated cluster.
    pub cluster: Cluster,
    /// Its calendar queue.
    pub queue: EventQueue<ClusterEvent>,
}

impl CheckState {
    /// Apply one action. Returns `false` when the action is not applicable
    /// in this state (empty queue for `Step`, unknown/corrupt packet for
    /// `Drop`, crash state mismatch, …) — the world is left unchanged in
    /// that case, so replaying an over-long fixture is harmless.
    pub fn apply(&mut self, a: Action) -> bool {
        let now = self.queue.now();
        match a {
            Action::Step => match self.queue.pop() {
                Some((t, ev)) => {
                    self.cluster.handle(t, ev, &mut self.queue);
                    true
                }
                None => false,
            },
            Action::Drop { packet } => self.cluster.net.force_corrupt(PacketId(packet)),
            Action::LinkDown { link } => {
                let id = LinkId(link);
                if self.cluster.net.link_forced_down(id) {
                    return false;
                }
                self.cluster.net.set_link_forced_down(id, true);
                true
            }
            Action::LinkUp { link } => {
                let id = LinkId(link);
                if !self.cluster.net.link_forced_down(id) {
                    return false;
                }
                self.cluster.net.set_link_forced_down(id, false);
                true
            }
            Action::Crash { host } => {
                let h = HostId(host);
                if self.cluster.nic(h).is_crashed() {
                    return false;
                }
                self.cluster.handle(
                    now,
                    ClusterEvent::Host(HostEvent::NicCrash { host: h }),
                    &mut self.queue,
                );
                true
            }
            Action::Recover { host } => {
                let h = HostId(host);
                if !self.cluster.nic(h).is_crashed() {
                    return false;
                }
                self.cluster.handle(
                    now,
                    ClusterEvent::Host(HostEvent::NicRecover { host: h }),
                    &mut self.queue,
                );
                true
            }
        }
    }

    /// Enumerate the actions applicable in this state, in deterministic
    /// order: `Step` first, then (if `faults_left > 0`) drops over the
    /// in-flight uncorrupted packets in id order, link toggles, and crash
    /// toggles, per the scenario's fault alphabet.
    pub fn enabled(&self, sc: &Scenario, faults_left: u32) -> Vec<Action> {
        let mut out = Vec::new();
        if !self.queue.is_empty() {
            out.push(Action::Step);
        }
        if faults_left == 0 {
            return out;
        }
        if sc.drop_faults {
            // parked_packets() is sorted by id.
            for id in self.cluster.net.parked_packets() {
                if !self.cluster.net.packet(id).corrupted {
                    out.push(Action::Drop { packet: id.0 });
                }
            }
        }
        for &l in &sc.link_faults {
            if self.cluster.net.link_forced_down(l) {
                out.push(Action::LinkUp { link: l.0 });
            } else {
                out.push(Action::LinkDown { link: l.0 });
            }
        }
        for &h in &sc.crash_faults {
            if self.cluster.nic(h).is_crashed() {
                out.push(Action::Recover { host: h.0 });
            } else {
                out.push(Action::Crash { host: h.0 });
            }
        }
        out
    }

    /// Canonical digest of the whole world: every behavioral cluster field
    /// (see [`Cluster::state_digest`]) plus the event queue — current time,
    /// length, and each pending event's absolute `(time, rank_time)` and
    /// content in pop order. Worlds with equal digests evolve identically.
    pub fn digest(&self) -> u64 {
        let mut d = Digest::new();
        self.cluster.state_digest(&mut d);
        d.u64(self.queue.now().as_ps());
        d.usize(self.queue.len());
        for (t, rt, ev) in self.queue.iter_ordered() {
            d.u64(t.as_ps());
            d.u64(rt.as_ps());
            ev.hash(&mut d);
        }
        d.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn root_digest_is_reproducible() {
        let sc = Scenario::two_host(1);
        assert_eq!(sc.build().digest(), sc.build().digest());
    }

    #[test]
    fn step_advances_and_changes_digest() {
        let sc = Scenario::two_host(1);
        let mut st = sc.build();
        let root = st.digest();
        assert!(st.apply(Action::Step));
        assert_ne!(st.digest(), root, "a dispatched event must change state");
    }

    #[test]
    fn replay_reproduces_stepwise_application() {
        let sc = Scenario::two_host(1);
        let mut st = sc.build();
        let mut path = Vec::new();
        for _ in 0..20 {
            if !st.apply(Action::Step) {
                break;
            }
            path.push(Action::Step);
        }
        assert_eq!(sc.replay(&path).digest(), st.digest());
    }

    #[test]
    fn inapplicable_actions_are_rejected_without_effect() {
        let sc = Scenario::two_host(1);
        let mut st = sc.build();
        let root = st.digest();
        assert!(!st.apply(Action::Drop { packet: 999 }));
        assert!(!st.apply(Action::LinkUp { link: 0 }));
        assert!(!st.apply(Action::Recover { host: 0 }));
        assert_eq!(st.digest(), root);
    }

    #[test]
    fn fig6_scenario_offers_crash_and_link_faults() {
        let sc = Scenario::fig6_itb();
        let st = sc.build();
        let acts = st.enabled(&sc, 1);
        assert!(acts.contains(&Action::Step));
        assert!(acts.iter().any(|a| matches!(a, Action::LinkDown { .. })));
        assert!(acts.iter().any(|a| matches!(a, Action::Crash { .. })));
        // Budget exhausted: only Step remains.
        assert_eq!(st.enabled(&sc, 0), vec![Action::Step]);
    }
}

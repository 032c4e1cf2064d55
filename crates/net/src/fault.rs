//! Declarative fault schedules for chaos experiments.
//!
//! A [`FaultPlan`] describes everything that can go wrong in one run:
//! seeded per-link drop/corrupt probabilities, scheduled link-down
//! windows, and in-transit host crash windows. The network applies the
//! link-level faults itself (see [`crate::Network::set_fault_plan`]); host
//! crashes are carried in the plan but executed by the integrating cluster,
//! which owns the NICs.
//!
//! All faults manifest the way real Myrinet faults do: the packet still
//! traverses the wire (wormhole switches cannot un-route a worm mid-flight)
//! but arrives with a damaged CRC, so the destination NIC discards it at
//! the tail check and GM's go-back-N recovers it. In-transit hosts forward
//! damaged packets unverified — cut-through cannot check the CRC before
//! re-injecting — exactly as the paper observes.

use itb_sim::SimTime;
use itb_topo::{HostId, LinkId};
use serde::Serialize;

/// Per-link override of the plan-wide fault probabilities.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct LinkFault {
    /// The cable (both directions) the override applies to.
    pub link: LinkId,
    /// Probability a packet entering this link is dropped.
    pub drop_prob: f64,
    /// Probability a packet entering this link has its CRC damaged.
    pub corrupt_prob: f64,
}

/// A scheduled outage of one cable: every packet whose head arrives over
/// the link inside `[from, until)` is lost.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct LinkDownWindow {
    /// The cable that goes down (both directions).
    pub link: LinkId,
    /// Outage start (inclusive).
    pub from: SimTime,
    /// Outage end (exclusive).
    pub until: SimTime,
}

/// A scheduled crash of one host's NIC: at `at` the firmware dies, flushing
/// every in-transit packet it holds; until `until` all arriving packets are
/// discarded; at `until` the NIC comes back clean.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct HostCrash {
    /// The host whose NIC crashes.
    pub host: HostId,
    /// Crash instant.
    pub at: SimTime,
    /// Recovery instant.
    pub until: SimTime,
}

/// A complete seeded fault schedule for one run.
///
/// The default plan is a no-op: zero probabilities, no windows, no crashes.
/// Deterministic by construction — the same plan (same seed) produces the
/// same faults event for event.
#[derive(Debug, Clone, PartialEq, Serialize, Default)]
pub struct FaultPlan {
    /// Seed of the fault-decision RNG (independent of the traffic seed).
    pub seed: u64,
    /// Plan-wide probability a packet entering any link is dropped.
    pub drop_prob: f64,
    /// Plan-wide probability a packet entering any link is CRC-corrupted.
    pub corrupt_prob: f64,
    /// Per-link probability overrides.
    pub link_overrides: Vec<LinkFault>,
    /// Scheduled cable outages.
    pub down_windows: Vec<LinkDownWindow>,
    /// Scheduled NIC crashes (executed by the cluster layer).
    pub crashes: Vec<HostCrash>,
}

impl FaultPlan {
    /// A clean plan with the given RNG seed.
    pub fn seeded(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..FaultPlan::default()
        }
    }

    /// Set the plan-wide drop probability.
    pub fn with_drop_prob(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability out of range: {p}");
        self.drop_prob = p;
        self
    }

    /// Set the plan-wide corruption probability.
    pub fn with_corrupt_prob(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability out of range: {p}");
        self.corrupt_prob = p;
        self
    }

    /// Override the probabilities of one link.
    pub fn with_link_override(mut self, f: LinkFault) -> Self {
        self.link_overrides.push(f);
        self
    }

    /// Schedule a cable outage.
    pub fn with_down_window(mut self, link: LinkId, from: SimTime, until: SimTime) -> Self {
        assert!(from < until, "empty down window");
        self.down_windows.push(LinkDownWindow { link, from, until });
        self
    }

    /// Schedule a NIC crash.
    pub fn with_crash(mut self, host: HostId, at: SimTime, until: SimTime) -> Self {
        assert!(at < until, "empty crash window");
        self.crashes.push(HostCrash { host, at, until });
        self
    }

    /// Whether the plan injects nothing at all.
    pub fn is_noop(&self) -> bool {
        self.drop_prob == 0.0
            && self.corrupt_prob == 0.0
            && self
                .link_overrides
                .iter()
                .all(|f| f.drop_prob == 0.0 && f.corrupt_prob == 0.0)
            && self.down_windows.is_empty()
            && self.crashes.is_empty()
    }

    /// The effective `(drop, corrupt)` probabilities for one link.
    pub fn probs_for(&self, link: LinkId) -> (f64, f64) {
        self.link_overrides
            .iter()
            .rev()
            .find(|f| f.link == link)
            .map(|f| (f.drop_prob, f.corrupt_prob))
            .unwrap_or((self.drop_prob, self.corrupt_prob))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use itb_sim::SimTime;

    #[test]
    fn default_is_noop() {
        assert!(FaultPlan::default().is_noop());
        assert!(FaultPlan::seeded(42).is_noop());
    }

    #[test]
    fn builders_accumulate() {
        let p = FaultPlan::seeded(7)
            .with_drop_prob(0.01)
            .with_corrupt_prob(0.005)
            .with_link_override(LinkFault {
                link: LinkId(2),
                drop_prob: 0.5,
                corrupt_prob: 0.0,
            })
            .with_down_window(LinkId(1), SimTime::from_us(10), SimTime::from_us(20))
            .with_crash(HostId(1), SimTime::from_us(30), SimTime::from_us(40));
        assert!(!p.is_noop());
        assert_eq!(p.probs_for(LinkId(0)), (0.01, 0.005));
        assert_eq!(p.probs_for(LinkId(2)), (0.5, 0.0));
        assert_eq!(p.down_windows.len(), 1);
        assert_eq!(p.crashes.len(), 1);
    }

    #[test]
    fn last_override_wins() {
        let p = FaultPlan::default()
            .with_link_override(LinkFault {
                link: LinkId(3),
                drop_prob: 0.1,
                corrupt_prob: 0.0,
            })
            .with_link_override(LinkFault {
                link: LinkId(3),
                drop_prob: 0.9,
                corrupt_prob: 0.2,
            });
        assert_eq!(p.probs_for(LinkId(3)), (0.9, 0.2));
    }

    #[test]
    fn plan_serializes_deterministically() {
        let p = FaultPlan::seeded(9).with_drop_prob(0.25).with_down_window(
            LinkId(0),
            SimTime::ZERO,
            SimTime::from_ns(5),
        );
        let json = serde_json::to_string(&p).unwrap();
        assert!(json.contains("\"seed\":9"));
        assert!(json.contains("down_windows"));
        // Equal plans must serialize byte-for-byte identically (the CI
        // determinism check compares artifacts with cmp).
        assert_eq!(json, serde_json::to_string(&p.clone()).unwrap());
    }

    #[test]
    #[should_panic(expected = "probability out of range")]
    fn bad_probability_rejected() {
        let _ = FaultPlan::default().with_drop_prob(1.5);
    }
}

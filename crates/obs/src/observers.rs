//! One run's sampling observers — timeline sampler and health monitor —
//! fed from one frame path.
//!
//! The integrating world collects an [`ObserverPlan`] before the run and
//! builds [`Observers`] once its metric schema is final. At each sampling
//! event it fills [`Observers::frame_mut`] and calls [`Observers::sample`];
//! both observers compare that frame with the *one* previous sample kept
//! here (before the first sample, a zeroed frame at t = 0, which the
//! timeline diffs against and the health monitor ignores).

use crate::frame::{MetricsFrame, MetricsSchema};
use crate::health::{HealthConfig, HealthMonitor};
use crate::timeline::TimelineSampler;
use itb_sim::SimDuration;
use std::sync::Arc;

/// The observers a run asked for, collected before it starts.
#[derive(Debug, Default)]
pub struct ObserverPlan {
    every: Option<SimDuration>,
    timeline_ns: Option<u64>,
    health: Option<HealthMonitor>,
}

impl ObserverPlan {
    /// Ask for a timeline sampled every `interval`. Panics below 1 ns.
    pub fn timeline(&mut self, interval: SimDuration) {
        let ns = interval.as_ps() / 1_000;
        assert!(ns > 0, "timeline interval must be positive");
        self.timeline_ns = Some(ns);
        self.tighten(interval);
    }

    /// Ask for the health monitors, sampled every `interval`, with a stall
    /// watchdog that fires after `stall_budget` without progress. Panics on
    /// a zero interval or budget.
    pub fn health(&mut self, interval: SimDuration, stall_budget: SimDuration) {
        assert!(
            interval > SimDuration::ZERO,
            "sample interval must be positive"
        );
        self.health = Some(HealthMonitor::new(HealthConfig {
            stall_budget_ns: stall_budget.as_ps() / 1_000,
        }));
        self.tighten(interval);
    }

    /// The smallest interval any observer asked for (None: nothing
    /// observed).
    pub fn every(&self) -> Option<SimDuration> {
        self.every
    }

    fn tighten(&mut self, interval: SimDuration) {
        self.every = Some(self.every.map_or(interval, |cur| cur.min(interval)));
    }

    /// Build the observers over the run's final `schema` (None: nothing
    /// observed).
    pub fn build(self, schema: Arc<MetricsSchema>) -> Option<Observers> {
        Some(Observers {
            every: self.every?,
            frame: MetricsFrame::for_schema(&schema),
            prev: MetricsFrame::for_schema(&schema),
            timeline: self
                .timeline_ns
                .map(|ns| TimelineSampler::new(ns, Arc::clone(&schema))),
            health: self.health,
            schema,
        })
    }
}

/// The running observers: schema, fill buffer, previous sample and the
/// observers that consume them.
#[derive(Debug)]
pub struct Observers {
    every: SimDuration,
    schema: Arc<MetricsSchema>,
    frame: MetricsFrame,
    prev: MetricsFrame,
    timeline: Option<TimelineSampler>,
    health: Option<HealthMonitor>,
}

impl Observers {
    /// The sampling cadence.
    pub fn every(&self) -> SimDuration {
        self.every
    }

    /// The counter/link names every frame follows.
    pub fn schema(&self) -> &Arc<MetricsSchema> {
        &self.schema
    }

    /// The reusable buffer to fill before [`Self::sample`] or
    /// [`Self::finish_health`].
    pub fn frame_mut(&mut self) -> &mut MetricsFrame {
        &mut self.frame
    }

    /// Feed the filled frame to every observer, then keep it as the
    /// previous sample. `blocked` yields the blocked set, asked for only
    /// when the stall watchdog fires.
    pub fn sample(&mut self, pending: bool, blocked: impl FnOnce() -> Vec<String>) {
        if let Some(h) = &mut self.health {
            if h.observe_frame(&self.frame, &self.prev, &self.schema, pending) {
                h.flag_stall(self.frame.at_ns, blocked());
            }
        }
        if let Some(t) = &mut self.timeline {
            t.record_frame(&self.frame, &self.prev);
        }
        self.prev.copy_from(&self.frame);
    }

    /// Whether the watchdog still has a stall to find: traffic is
    /// `pending` and no stall is flagged yet.
    pub fn stall_open(&self, pending: bool) -> bool {
        pending && self.health.as_ref().is_some_and(|h| !h.in_stall())
    }

    /// Take the timeline (None if not observed or already taken).
    pub fn take_timeline(&mut self) -> Option<TimelineSampler> {
        self.timeline.take()
    }

    /// Take the health monitor after feeding it the filled frame as a
    /// final sample (None if not observed or already taken). That frame is
    /// no timeline sample, so it does not become the previous sample.
    pub fn finish_health(
        &mut self,
        pending: bool,
        blocked: impl FnOnce() -> Vec<String>,
    ) -> Option<HealthMonitor> {
        let mut h = self.health.take()?;
        if h.observe_frame(&self.frame, &self.prev, &self.schema, pending) {
            h.flag_stall(self.frame.at_ns, blocked());
        }
        Some(h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn observers(timeline: bool, health: bool) -> Observers {
        let mut plan = ObserverPlan::default();
        if timeline {
            plan.timeline(SimDuration::from_ns(1000));
        }
        if health {
            plan.health(SimDuration::from_ns(500), SimDuration::from_ns(10_000));
        }
        let schema = MetricsSchema::new(vec!["net.delivered".into()], vec!["h0-s0".into()]);
        plan.build(schema).unwrap()
    }

    fn fill(o: &mut Observers, at: u64, delivered: u64) {
        let f = o.frame_mut();
        f.at_ns = at;
        f.counters[0] = delivered;
    }

    #[test]
    fn cadence_is_the_smallest_interval_and_nothing_builds_without_observers() {
        assert_eq!(observers(true, true).every(), SimDuration::from_ns(500));
        assert_eq!(observers(true, false).every(), SimDuration::from_ns(1000));
        let schema = MetricsSchema::new(vec![], vec![]);
        assert!(ObserverPlan::default().build(schema).is_none());
    }

    #[test]
    fn final_health_frame_is_not_a_timeline_base() {
        let mut o = observers(true, true);
        fill(&mut o, 1000, 4);
        o.sample(true, Vec::new);
        fill(&mut o, 1500, 1); // regressed, seen by health only
        let h = o.finish_health(true, Vec::new).unwrap();
        fill(&mut o, 2000, 6);
        o.sample(true, Vec::new);
        let rows = o.take_timeline().unwrap().rows();
        assert_eq!(rows[1].interval_ns, 1000);
        assert_eq!(rows[1].delta.counter("net.delivered"), 2);
        let rep = h.finish(1500);
        assert_eq!(rep.samples, 2);
        assert_eq!(
            rep.violations[0].detail,
            "counter net.delivered regressed: 4 -> 1"
        );
    }
}

//! The packet-lifecycle tracer.

use crate::stage::Stage;
use itb_sim::SimTime;
use serde::Serialize;

/// One recorded lifecycle moment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct StageEvent {
    /// The network's stable packet id.
    pub packet: u64,
    /// What happened.
    pub stage: Stage,
    /// Where (host or switch index, layer-dependent; 0 when unused).
    pub node: u32,
    /// When.
    pub t: SimTime,
}

/// A bounded recorder of [`StageEvent`]s, disabled by default.
///
/// Hot paths pay one branch while it is disabled; when enabled it keeps at
/// most its capacity of records and counts the ones it drops. Records carry
/// machine-readable stages and packet ids, and one tracer is shared by
/// every layer of the stack.
#[derive(Debug, Clone)]
pub struct PacketTracer {
    enabled: bool,
    cap: usize,
    events: Vec<StageEvent>,
    dropped: u64,
}

impl Default for PacketTracer {
    fn default() -> Self {
        Self::new(65_536)
    }
}

impl PacketTracer {
    /// A disabled tracer with room for `cap` events.
    pub fn new(cap: usize) -> Self {
        PacketTracer {
            enabled: false,
            cap,
            events: Vec::new(),
            dropped: 0,
        }
    }

    /// Start recording.
    pub fn enable(&mut self) {
        self.enabled = true;
    }

    /// Whether recording is active.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Record one stage; drops (and counts) once the buffer is full.
    #[inline]
    pub fn record(&mut self, packet: u64, stage: Stage, node: u32, t: SimTime) {
        if !self.enabled {
            return;
        }
        if self.events.len() >= self.cap {
            self.dropped += 1;
            return;
        }
        self.events.push(StageEvent {
            packet,
            stage,
            node,
            t,
        });
    }

    /// All events in recording order.
    pub fn events(&self) -> &[StageEvent] {
        &self.events
    }

    /// Events of one packet, in recording order.
    pub fn for_packet(&self, packet: u64) -> Vec<StageEvent> {
        self.events
            .iter()
            .filter(|e| e.packet == packet)
            .copied()
            .collect()
    }

    /// First event with a given stage.
    pub fn first(&self, stage: Stage) -> Option<&StageEvent> {
        self.events.iter().find(|e| e.stage == stage)
    }

    /// Distinct packet ids seen, in first-appearance order.
    pub fn packets(&self) -> Vec<u64> {
        let mut seen = std::collections::BTreeSet::new();
        let mut out = Vec::new();
        for e in &self.events {
            if seen.insert(e.packet) {
                out.push(e.packet);
            }
        }
        out
    }

    /// Number of events dropped because the buffer filled up.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Clear all events and the dropped count (keeps the enable state).
    pub fn clear(&mut self) {
        self.events.clear();
        self.dropped = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_by_default_records_nothing() {
        let mut t = PacketTracer::new(8);
        assert!(!t.is_enabled());
        t.record(1, Stage::HostInject, 0, SimTime::from_ns(1));
        assert!(t.events().is_empty());
        assert_eq!(t.dropped(), 0);
    }

    #[test]
    fn enabled_records_in_order_and_queries_work() {
        let mut t = PacketTracer::new(8);
        t.enable();
        t.record(7, Stage::HostInject, 0, SimTime::from_ns(1));
        t.record(7, Stage::NetInject, 0, SimTime::from_ns(2));
        t.record(9, Stage::HostInject, 1, SimTime::from_ns(3));
        assert_eq!(t.events().len(), 3);
        assert_eq!(t.for_packet(7).len(), 2);
        assert_eq!(t.first(Stage::NetInject).unwrap().t, SimTime::from_ns(2));
        assert_eq!(t.packets(), vec![7, 9]);
    }

    #[test]
    fn overflow_enforces_cap_and_counts_drops() {
        let mut t = PacketTracer::new(2);
        t.enable();
        for i in 0..5 {
            t.record(i, Stage::NetHead, 0, SimTime::from_ns(i));
        }
        assert_eq!(t.events().len(), 2, "cap enforced");
        assert_eq!(t.dropped(), 3);
        // Clearing resets both; the enable state survives.
        t.clear();
        assert_eq!(t.dropped(), 0);
        assert!(t.events().is_empty());
        assert!(t.is_enabled());
        t.record(9, Stage::NetTail, 0, SimTime::from_ns(9));
        assert_eq!(t.events().len(), 1);
    }
}

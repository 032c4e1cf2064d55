//! Network-level counters.

use serde::Serialize;

/// Counters maintained by [`crate::Network`].
#[derive(Debug, Clone, Copy, Default, Serialize)]
pub struct NetStats {
    /// Packets injected by hosts.
    pub injected: u64,
    /// Packets re-injected by in-transit hosts.
    pub reinjected: u64,
    /// Packets fully delivered into a host.
    pub delivered: u64,
    /// Wire bytes delivered into hosts.
    pub bytes_delivered: u64,
    /// Packets garbled by a probabilistic drop fault (the packet completes
    /// its traversal but the destination's CRC check discards it).
    pub fault_drops: u64,
    /// Packets CRC-corrupted by a probabilistic corruption fault.
    pub fault_corrupts: u64,
    /// Packets lost to a scheduled link-down window.
    pub link_down_drops: u64,
    /// Packets CRC-damaged on direct request (the model checker's
    /// deterministic drop action; never incremented by seeded fault plans).
    pub forced_corrupts: u64,
}

impl NetStats {
    /// Every counter with its metric name, in field order.
    pub fn counters(&self) -> [(&'static str, u64); 8] {
        [
            ("injected", self.injected),
            ("reinjected", self.reinjected),
            ("delivered", self.delivered),
            ("bytes_delivered", self.bytes_delivered),
            ("fault_drops", self.fault_drops),
            ("fault_corrupts", self.fault_corrupts),
            ("link_down_drops", self.link_down_drops),
            ("forced_corrupts", self.forced_corrupts),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_zeroed() {
        assert!(NetStats::default().counters().iter().all(|&(_, v)| v == 0));
    }
}

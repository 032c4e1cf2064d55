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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_zeroed() {
        let s = NetStats::default();
        assert_eq!(s.injected, 0);
        assert_eq!(s.reinjected, 0);
        assert_eq!(s.delivered, 0);
        assert_eq!(s.bytes_delivered, 0);
        assert_eq!(s.fault_drops, 0);
        assert_eq!(s.fault_corrupts, 0);
        assert_eq!(s.link_down_drops, 0);
        assert_eq!(s.forced_corrupts, 0);
    }
}

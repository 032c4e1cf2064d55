//! Per-NIC counters.

use serde::Serialize;

/// Counters maintained by one [`crate::Nic`].
#[derive(Debug, Clone, Copy, Default, Serialize)]
pub struct NicStats {
    /// Completed host sends.
    pub sends: u64,
    /// Messages delivered to the host.
    pub recvs: u64,
    /// Early Recv Packet events handled (ITB firmware only).
    pub early_recv_events: u64,
    /// In-transit packets detected.
    pub itb_detects: u64,
    /// In-transit forwards completed.
    pub itb_forwards: u64,
    /// In-transit forwards that had to wait on the ITB-pending flag.
    pub itb_pending_serviced: u64,
    /// Packets flushed for lack of a receive buffer.
    pub flushed: u64,
    /// Packets dropped because the trailing CRC check failed.
    pub crc_drops: u64,
    /// Times the NIC asserted receive flow control (no buffer free,
    /// backpressure mode).
    pub rx_stalls: u64,
    /// Packets lost to an injected NIC crash: in-transit packets flushed at
    /// the crash instant plus arrivals discarded while down.
    pub crash_flushes: u64,
}

impl NicStats {
    /// Every counter with its metric name, in field order.
    pub fn counters(&self) -> [(&'static str, u64); 10] {
        [
            ("sends", self.sends),
            ("recvs", self.recvs),
            ("early_recv_events", self.early_recv_events),
            ("itb_detects", self.itb_detects),
            ("itb_forwards", self.itb_forwards),
            ("itb_pending_serviced", self.itb_pending_serviced),
            ("flushed", self.flushed),
            ("crc_drops", self.crc_drops),
            ("rx_stalls", self.rx_stalls),
            ("crash_flushes", self.crash_flushes),
        ]
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn default_zeroed() {
        let s = super::NicStats::default();
        assert!(s.counters().iter().all(|&(_, v)| v == 0));
    }
}

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

#[cfg(test)]
mod tests {
    #[test]
    fn default_zeroed() {
        let s = super::NicStats::default();
        assert_eq!(s.sends, 0);
        assert_eq!(s.recvs, 0);
        assert_eq!(s.early_recv_events, 0);
        assert_eq!(s.itb_detects, 0);
        assert_eq!(s.itb_forwards, 0);
        assert_eq!(s.itb_pending_serviced, 0);
        assert_eq!(s.flushed, 0);
        assert_eq!(s.crc_drops, 0);
        assert_eq!(s.rx_stalls, 0);
        assert_eq!(s.crash_flushes, 0);
    }
}

//! Host-side GM configuration.

use itb_sim::SimDuration;
use serde::Serialize;

/// Host-software timing and protocol constants.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct GmConfig {
    /// Maximum payload bytes per packet (GM segments longer messages).
    pub mtu: u32,
    /// Host CPU cost of posting a send (library call, token, doorbell).
    pub o_send: SimDuration,
    /// Extra host cost per additional packet of a multi-packet message.
    pub o_send_per_packet: SimDuration,
    /// Host CPU cost from NIC completion to the application seeing the
    /// message.
    pub o_recv: SimDuration,
    /// Cost of generating an ACK packet at the receiver.
    pub o_ack: SimDuration,
    /// Whether the reliability layer runs (per-packet cumulative ACKs,
    /// go-back-N retransmission). The paper's GM always has it; turning it
    /// off gives a clean transport for microbenchmarks.
    pub reliability: bool,
    /// Retransmission timeout for the oldest unacknowledged packet.
    pub retrans_timeout: SimDuration,
    /// Ceiling on the exponentially backed-off retransmission timeout. The
    /// effective timeout after `k` fruitless rounds is
    /// `min(retrans_timeout * 2^k, retrans_backoff_cap)`; any ACK progress
    /// resets `k` to zero.
    pub retrans_backoff_cap: SimDuration,
    /// Consecutive fruitless retransmission rounds before the connection is
    /// declared failed and its pending traffic abandoned (surfaced as a
    /// `ConnectionFailed` indication).
    ///
    /// `0` means **unlimited**: the sender retries forever at the capped
    /// backoff interval and never declares the connection failed — GM's
    /// historical behaviour, where a dead peer simply stalls the flow until
    /// an operator intervenes. The retry counter and backoff exponent keep
    /// advancing (so a late ACK still resets both), but the failure path is
    /// never taken. Nonzero values trade that liveness for bounded failure
    /// detection; the model checker's kill-flow fixtures rely on a small
    /// cap to reach the `ConnectionFailed` terminal.
    pub max_retries: u32,
    /// Maximum packets in flight (unacknowledged) per connection — GM's
    /// send-token flow control. Only meaningful with reliability on.
    pub send_window: u32,
}

impl Default for GmConfig {
    /// Calibrated against GM-1.2-era latencies on a 450 MHz PIII (short
    /// message half-round-trip ≈ 12–14 µs; see EXPERIMENTS.md).
    fn default() -> Self {
        GmConfig {
            mtu: 4096,
            o_send: SimDuration::from_ns(3_000),
            o_send_per_packet: SimDuration::from_ns(400),
            o_recv: SimDuration::from_ns(3_000),
            o_ack: SimDuration::from_ns(400),
            reliability: true,
            retrans_timeout: SimDuration::from_ms(1),
            retrans_backoff_cap: SimDuration::from_ms(32),
            max_retries: 25,
            send_window: 8,
        }
    }
}

impl GmConfig {
    /// Number of packets a message of `len` bytes needs.
    pub fn packets_for(&self, len: u32) -> u32 {
        if len == 0 {
            1
        } else {
            len.div_ceil(self.mtu)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn segmentation_counts() {
        let c = GmConfig::default();
        assert_eq!(c.packets_for(0), 1);
        assert_eq!(c.packets_for(1), 1);
        assert_eq!(c.packets_for(4096), 1);
        assert_eq!(c.packets_for(4097), 2);
        assert_eq!(c.packets_for(12_288), 3);
    }

    #[test]
    fn defaults_are_sane() {
        let c = GmConfig::default();
        assert!(c.reliability);
        assert!(c.retrans_timeout > c.o_send);
        assert!(c.retrans_backoff_cap >= c.retrans_timeout);
        assert!(c.max_retries > 0);
        assert!(c.mtu >= 512);
    }
}

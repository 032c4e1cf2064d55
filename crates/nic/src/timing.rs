//! Cycle-cost model of the MCP firmware.
//!
//! The LANai's on-chip RISC processor executes the MCP; we price each
//! handler block in processor cycles at the LANai-7 clock (66 MHz,
//! 15.151 ns/cycle). The defaults are calibrated so the two quantities the
//! paper measures come out at the published values:
//!
//! * **ITB support overhead** (Figure 7): the modified MCP's longer receive
//!   path costs [`McpTiming::itb_support_extra_cycles`] cycles on every received
//!   packet (≈ 8 cycles ≈ 121 ns ≈ the paper's 125 ns average), plus
//!   CPU-contention effects for very short packets whose tail arrives while
//!   the Early-Recv handler still runs (the paper's ≤ 300 ns ceiling);
//! * **per-ITB forwarding delay** (Figure 8): detect + reprogram + DMA
//!   start sums to ≈ 1.25 µs at the NIC; with the extra host-cable traversal
//!   the measured path difference lands at the paper's ≈ 1.3 µs.

use itb_sim::{Bandwidth, SimDuration};
use serde::Serialize;

/// All firmware and host-interface timing constants of one NIC.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct McpTiming {
    /// LANai processor cycle time.
    pub cycle: SimDuration,
    /// Event-handler dispatch latency, in cycles (state save + priority
    /// scan + branch).
    pub dispatch_cycles: u32,
    /// Early-Recv type check, in cycles (read the two type bytes and
    /// compare — the paper's fast ITB detection).
    pub early_check_cycles: u32,
    /// Extra cycles the ITB-enabled firmware spends in the ordinary receive
    /// path (longer dispatch tables/flag checks) — the Figure 7 overhead.
    pub itb_support_extra_cycles: u32,
    /// Programming the send DMA for an in-transit re-injection, in cycles
    /// (header rewrite bookkeeping + DMA registers).
    pub itb_program_cycles: u32,
    /// Programming the send DMA for an ordinary send, in cycles.
    pub send_program_cycles: u32,
    /// Receive-completion bookkeeping (buffer accounting, CRC status,
    /// RDMA programming), in cycles.
    pub recv_finish_cycles: u32,
    /// Completion processing after the last RDMA chunk (recv-token update,
    /// host notification), in cycles.
    pub recv_deliver_cycles: u32,
    /// Send-DMA engine start latency (fetch descriptor, arbitration) —
    /// pure hardware, applies after the programming handler retires.
    pub dma_start: SimDuration,
    /// Host I/O bus (PCI) burst bandwidth for the host DMA engine.
    pub pci_bw: Bandwidth,
    /// Host DMA per-transfer setup cost.
    pub dma_setup: SimDuration,
    /// Host DMA chunk size in bytes (SDMA/RDMA transfers are split into
    /// chunks so send and receive share the engine fairly).
    pub dma_chunk: u32,
    /// SRAM send buffers (stock MCP: 2).
    pub send_buffers: u8,
    /// SRAM receive buffers (stock MCP: 2; the paper's proposed circular
    /// pool is modelled by raising this).
    pub recv_buffers: u8,
    /// LANai SRAM contention: the on-chip processor is the lowest-priority
    /// memory master (§3: host I/O bus > packet DMAs > CPU, two accesses
    /// per clock), so firmware handlers run slower while the host DMA is
    /// moving data. Percentage slowdown applied to handler cycles while a
    /// host-DMA transfer is in flight; 0 disables the effect (the default —
    /// the headline calibration folds average contention into the block
    /// costs, and this knob exposes the mechanism for sensitivity studies).
    pub sram_contention_pct: u32,
    /// What happens when a packet arrives and no receive buffer is free:
    /// `false` (stock GM) = assert receive flow control and stall the wire
    /// until a buffer frees; `true` (the paper's §4 circular-pool policy
    /// for in-transit traffic) = flush the packet and let GM retransmit.
    /// Flushing is mandatory for in-transit pools under load — stalling
    /// would reintroduce the channel dependency the ITB just broke.
    pub flush_on_overflow: bool,
}

impl McpTiming {
    /// Defaults for the testbed NICs (LANai 7 at 66 MHz on 64-bit/33 MHz
    /// PCI). See DESIGN.md §5 for the calibration story.
    pub fn lanai7() -> Self {
        McpTiming {
            cycle: SimDuration::from_ps(15_151),
            dispatch_cycles: 10,   // ≈ 152 ns
            early_check_cycles: 8, // ≈ 121 ns
            itb_support_extra_cycles: 8,
            itb_program_cycles: 48, // ≈ 727 ns
            send_program_cycles: 40,
            recv_finish_cycles: 45, // ≈ 682 ns
            recv_deliver_cycles: 30,
            dma_start: SimDuration::from_ns(230),
            pci_bw: Bandwidth::from_mbytes_per_sec(264),
            dma_setup: SimDuration::from_ns(150),
            dma_chunk: 1024,
            send_buffers: 2,
            recv_buffers: 2,
            flush_on_overflow: false,
            sram_contention_pct: 0,
        }
    }

    /// Cost of `n` cycles.
    #[inline]
    pub fn cycles(&self, n: u32) -> SimDuration {
        self.cycle * u64::from(n)
    }

    /// Expected ITB forwarding latency at an in-transit NIC: Early-Recv
    /// dispatch + type check + send-DMA programming + DMA start. This is
    /// the firmware part of the paper's ~1.3 µs (the rest is the extra host
    /// cable the detour adds).
    pub fn itb_forward_latency(&self) -> SimDuration {
        self.cycles(self.dispatch_cycles + self.early_check_cycles + self.itb_program_cycles)
            + self.dma_start
    }

    /// The constant receive-path cost of merely supporting ITBs — the
    /// Figure 7 overhead.
    pub fn itb_support_overhead(&self) -> SimDuration {
        self.cycles(self.itb_support_extra_cycles)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lanai7_cycle_time() {
        let t = McpTiming::lanai7();
        // 66 MHz → 15.15 ns.
        assert!((t.cycle.as_ns_f64() - 15.15).abs() < 0.01);
        assert_eq!(t.cycles(2), t.cycle * 2);
    }

    #[test]
    fn calibration_matches_paper_figures() {
        let t = McpTiming::lanai7();
        let support = t.itb_support_overhead().as_ns_f64();
        assert!(
            (support - 125.0).abs() < 15.0,
            "Fig 7 support overhead should be ≈125 ns, got {support}"
        );
        let fwd = t.itb_forward_latency().as_us_f64();
        assert!(
            (1.0..1.35).contains(&fwd),
            "Fig 8 firmware forward latency should be ≈1.25 us, got {fwd}"
        );
    }

    #[test]
    fn stock_buffer_counts() {
        let t = McpTiming::lanai7();
        assert_eq!(t.send_buffers, 2);
        assert_eq!(t.recv_buffers, 2);
    }
}

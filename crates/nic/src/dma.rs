//! The shared host-DMA engine.
//!
//! The LANai has one host-DMA engine; the SDMA and RDMA state machines
//! queue transfers on it and it services them FIFO. Each transfer costs a
//! setup plus the chunk bytes at PCI burst rate.

use crate::events::DmaJob;
use crate::timing::McpTiming;
use itb_sim::SimTime;
use std::collections::VecDeque;
use std::hash::Hash;

/// FIFO host-DMA engine of one NIC.
#[derive(Debug, Default)]
pub struct HostDma {
    busy: bool,
    queue: VecDeque<DmaJob>,
}

impl HostDma {
    /// New idle engine.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether a transfer is in progress.
    pub fn is_busy(&self) -> bool {
        self.busy
    }

    /// Queue depth (excluding the in-progress transfer).
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Submit a transfer. Returns `Some((job, completion_time))` when the
    /// engine was idle and starts immediately; the caller schedules the
    /// completion event. Returns `None` when queued behind other work.
    pub fn submit(
        &mut self,
        job: DmaJob,
        now: SimTime,
        t: &McpTiming,
    ) -> Option<(DmaJob, SimTime)> {
        if self.busy {
            self.queue.push_back(job);
            None
        } else {
            self.busy = true;
            Some((job, now + Self::cost(job, t)))
        }
    }

    /// Called when the in-progress transfer completes. Returns the next
    /// transfer to start, if any, with its completion time.
    pub fn complete(&mut self, now: SimTime, t: &McpTiming) -> Option<(DmaJob, SimTime)> {
        debug_assert!(self.busy);
        match self.queue.pop_front() {
            Some(job) => Some((job, now + Self::cost(job, t))),
            None => {
                self.busy = false;
                None
            }
        }
    }

    /// Fold the engine's behavioral state — busy flag plus the queued
    /// transfers in FIFO order — into a model-checker digest.
    pub fn state_digest(&self, d: &mut itb_sim::Digest) {
        d.bool(self.busy);
        d.usize(self.queue.len());
        for job in &self.queue {
            job.hash(d);
        }
    }

    fn cost(job: DmaJob, t: &McpTiming) -> itb_sim::SimDuration {
        let bytes = match job {
            DmaJob::SdmaChunk { bytes, .. } | DmaJob::RdmaChunk { bytes, .. } => bytes,
        };
        t.dma_setup + t.pci_bw.transfer_time(u64::from(bytes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sdma(bytes: u32, last: bool) -> DmaJob {
        DmaJob::SdmaChunk {
            token: 1,
            bytes,
            last,
        }
    }

    #[test]
    fn idle_engine_starts_immediately() {
        let t = McpTiming::lanai7();
        let mut d = HostDma::new();
        let (job, done) = d.submit(sdma(1024, true), SimTime::ZERO, &t).unwrap();
        assert_eq!(job, sdma(1024, true));
        // 150ns setup + 1024 * 3.787ns ≈ 4.03us.
        assert!((done.as_us_f64() - 4.03).abs() < 0.05, "{done}");
        assert!(d.is_busy());
    }

    #[test]
    fn busy_engine_queues_fifo() {
        let t = McpTiming::lanai7();
        let mut d = HostDma::new();
        d.submit(sdma(512, false), SimTime::ZERO, &t).unwrap();
        assert!(d.submit(sdma(256, false), SimTime::ZERO, &t).is_none());
        assert!(d
            .submit(
                DmaJob::RdmaChunk {
                    packet: itb_net::PacketId(7),
                    bytes: 128,
                    last: true
                },
                SimTime::ZERO,
                &t
            )
            .is_none());
        assert_eq!(d.pending(), 2);
        // First completion starts the 256-byte SDMA.
        let (next, _) = d.complete(SimTime::from_us(2), &t).unwrap();
        assert_eq!(next, sdma(256, false));
        // Then the RDMA.
        let (next, _) = d.complete(SimTime::from_us(3), &t).unwrap();
        assert!(matches!(next, DmaJob::RdmaChunk { bytes: 128, .. }));
        // Then idle.
        assert!(d.complete(SimTime::from_us(4), &t).is_none());
        assert!(!d.is_busy());
    }

    #[test]
    fn state_digest_bytes_are_pinned() {
        // The queued jobs' bytes reach every ledger `state=` digest, so
        // they are written out here by hand: busy flag, queue length as a
        // u64, then per job a one-byte tag, the token or packet id (u64),
        // the chunk bytes (u32) and the last flag as one byte.
        let t = McpTiming::lanai7();
        let mut dma = HostDma::new();
        dma.submit(sdma(64, false), SimTime::ZERO, &t).unwrap();
        dma.submit(
            DmaJob::SdmaChunk {
                token: 0x0102_0304_0506_0708,
                bytes: 0x0a0b_0c0d,
                last: true,
            },
            SimTime::ZERO,
            &t,
        );
        dma.submit(
            DmaJob::RdmaChunk {
                packet: itb_net::PacketId(0x1112_1314_1516_1718),
                bytes: 0x1a1b_1c1d,
                last: false,
            },
            SimTime::ZERO,
            &t,
        );
        let mut got = itb_sim::Digest::new();
        dma.state_digest(&mut got);
        let mut want = itb_sim::Digest::new();
        want.bytes(&[
            1, // busy
            2, 0, 0, 0, 0, 0, 0, 0, // two queued jobs
            0, // SdmaChunk
            8, 7, 6, 5, 4, 3, 2, 1, // token
            0x0d, 0x0c, 0x0b, 0x0a, // bytes
            1,    // last
            1,    // RdmaChunk
            0x18, 0x17, 0x16, 0x15, 0x14, 0x13, 0x12, 0x11, // packet
            0x1d, 0x1c, 0x1b, 0x1a, // bytes
            0,    // last
        ]);
        assert_eq!(got.finish(), want.finish());
    }

    #[test]
    fn setup_dominates_tiny_transfers() {
        let t = McpTiming::lanai7();
        let mut d = HostDma::new();
        let (_, done) = d.submit(sdma(4, true), SimTime::ZERO, &t).unwrap();
        assert!(done.as_ns_f64() < 200.0, "{done}");
    }
}

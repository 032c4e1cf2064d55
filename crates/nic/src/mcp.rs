//! The Myrinet Control Program model: SDMA / Send / Recv / RDMA state
//! machines on one firmware CPU, in original and ITB-extended flavours.
//!
//! Control flow follows the paper's Figures 4 and 5:
//!
//! * **Send path** — a host send request stages the packet into an SRAM
//!   send buffer via chunked host-DMA (SDMA), then the Send machine
//!   programs the packet send DMA and the network serializes the packet.
//! * **Recv path** — an arriving packet streams into a receive buffer; on
//!   the tail the Recv machine runs completion bookkeeping, RDMA drains the
//!   buffer to host memory, and the host is notified.
//! * **ITB path** (flavour [`McpFlavor::Itb`]) — the LANai raises the
//!   *Early Recv Packet* event when the first four bytes arrive; the
//!   handler checks the type bytes. For an ITB packet, if the send DMA is
//!   free the handler immediately reprograms it and re-injection starts
//!   while the packet is still being received (virtual cut-through); if
//!   busy, the *ITB packet pending* flag defers the re-injection to the
//!   moment the send DMA frees, at high priority. Reception continues to
//!   completion regardless, per the paper: if the re-injected packet is
//!   stopped by flow control, the remainder waits in its buffer.

use crate::dma::HostDma;
use crate::events::{CpuWork, DmaJob, NicEvent, NicOutput, NicSched, SendToken};
use crate::stats::NicStats;
use crate::timing::McpTiming;
use itb_net::{HostIndication, NetSched, Network, PacketDesc, PacketId};
use itb_obs::Stage;
use itb_routing::wire::{TYPE_GM, TYPE_ITB};
use itb_sim::{narrow, FxHashMap, SimTime};
use itb_topo::HostId;
use std::collections::VecDeque;

/// Which firmware runs on this NIC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum McpFlavor {
    /// Stock GM-1.2pre16 control program.
    Original,
    /// The paper's modified control program with ITB support.
    Itb,
}

/// A queued host send request.
#[derive(Debug)]
struct SendJob {
    token: SendToken,
    /// Pre-reserved network packet id, so `host.inject` is traced against
    /// the id the packet will carry once it actually enters the wire.
    packet: PacketId,
    desc: Option<PacketDesc>,
    wire_len: u32,
    staged: u32,
    staging: bool,
}

/// Receive-side state of one in-flight packet at this NIC.
#[derive(Debug)]
struct RecvState {
    received: u32,
    complete: bool,
    kind: RecvKind,
    /// Whether this reception holds one of the SRAM receive buffers (false
    /// for flushed/deferred packets, whose bytes go on the floor / wait on
    /// the wire). Keeps buffer accounting exact across crash flushes.
    owns_buffer: bool,
}

#[derive(Debug, PartialEq, Eq)]
enum RecvKind {
    /// Waiting for a receive buffer; the wire into this host is paused
    /// (receive flow control). Admitted when a buffer frees.
    Deferred,
    /// Type not yet examined (head just arrived).
    Unknown,
    /// Ordinary GM packet destined for this host.
    Normal,
    /// In-transit packet being (or about to be) re-injected.
    InTransit { injecting: bool },
    /// Dropped for lack of a receive buffer; bytes are discarded.
    Flushed,
}

/// SRAM buffer accounting of one NIC at a point in time (see
/// [`Nic::buffer_audit`]). The receive-pool invariant every healthy run
/// must satisfy is `recv_free + recv_owned == recv_total`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NicBufferAudit {
    /// Receive-pool capacity.
    pub recv_total: u64,
    /// Free receive buffers.
    pub recv_free: u64,
    /// Receive buffers owned by live receptions (`owns_buffer`).
    pub recv_owned: u64,
    /// Send-pool capacity.
    pub send_total: u64,
    /// Free send buffers.
    pub send_free: u64,
    /// In-transit packets still awaiting the send DMA.
    pub itb_pending: u64,
    /// Arrivals deferred for lack of a receive buffer.
    pub deferred_heads: u64,
}

/// One network adapter: LANai + MCP.
pub struct Nic {
    // detlint::allow(T003, identity: fixed at construction; the digest covers one NIC per host in index order)
    host: HostId,
    // detlint::allow(T003, per-run firmware selection: fixed at construction and never mutated)
    flavor: McpFlavor,
    // detlint::allow(T003, per-run timing constants: fixed at construction and never mutated)
    timing: McpTiming,
    /// Firmware CPU availability (handlers serialize on this).
    cpu_free_at: SimTime,
    dma: HostDma,
    send_queue: VecDeque<SendJob>,
    send_buffers_free: u8,
    recv_buffers_free: u8,
    recv: FxHashMap<u64, RecvState>,
    /// The paper's "ITB packet pending" flag (a queue, since several may
    /// arrive while the send DMA is busy).
    itb_pending: VecDeque<PacketId>,
    /// Packets whose head arrived while no buffer was free (backpressure
    /// mode); admitted in arrival order as buffers free up.
    deferred_heads: VecDeque<PacketId>,
    /// Crashed (fault injection): the firmware is dead; every arriving
    /// packet is discarded until [`Nic::recover`].
    crashed: bool,
    outputs: Vec<NicOutput>,
    // detlint::allow(T003, diagnostics counters: never read by a transition)
    stats: NicStats,
}

impl Nic {
    /// A NIC for `host` running `flavor` firmware with `timing` constants.
    pub fn new(host: HostId, flavor: McpFlavor, timing: McpTiming) -> Self {
        Nic {
            host,
            flavor,
            cpu_free_at: SimTime::ZERO,
            dma: HostDma::new(),
            send_queue: VecDeque::new(),
            send_buffers_free: timing.send_buffers,
            recv_buffers_free: timing.recv_buffers,
            recv: FxHashMap::default(),
            itb_pending: VecDeque::new(),
            deferred_heads: VecDeque::new(),
            crashed: false,
            outputs: Vec::new(),
            timing,
            stats: NicStats::default(),
        }
    }

    /// This NIC's host.
    pub fn host(&self) -> HostId {
        self.host
    }

    /// Counters.
    pub fn stats(&self) -> &NicStats {
        &self.stats
    }

    /// Whether this NIC is currently crashed (fault injection).
    pub fn is_crashed(&self) -> bool {
        self.crashed
    }

    /// Point-in-time SRAM buffer accounting for the end-of-run leak audit:
    /// every receive buffer must be either free or owned by a live
    /// reception (`owns_buffer`), through every path including crash
    /// flushes and deferred heads. Send buffers are audited against the
    /// queued/staging send jobs holding them.
    pub fn buffer_audit(&self) -> NicBufferAudit {
        NicBufferAudit {
            recv_total: u64::from(self.timing.recv_buffers),
            recv_free: u64::from(self.recv_buffers_free),
            recv_owned: self.recv.values().filter(|r| r.owns_buffer).count() as u64,
            send_total: u64::from(self.timing.send_buffers),
            send_free: u64::from(self.send_buffers_free),
            itb_pending: self.itb_pending.len() as u64,
            deferred_heads: self.deferred_heads.len() as u64,
        }
    }

    /// Fold every behavioral field of this NIC — CPU availability, DMA
    /// engine, send jobs, receive-pool ownership, pending/deferred queues
    /// and the crash flag — into a model-checker digest. Receptions are
    /// folded in packet-id order so the hash-map iteration order never
    /// leaks in. Pure counters ([`Nic::stats`]) are excluded: they never
    /// influence a future transition.
    pub fn state_digest(&self, d: &mut itb_sim::Digest) {
        d.bool(self.crashed);
        d.u64(self.cpu_free_at.as_ps());
        d.u8(self.send_buffers_free);
        d.u8(self.recv_buffers_free);
        self.dma.state_digest(d);
        d.usize(self.send_queue.len());
        for j in &self.send_queue {
            d.u64(j.token);
            d.u64(j.packet.0);
            d.bool(j.desc.is_some());
            d.u32(j.wire_len);
            d.u32(j.staged);
            d.bool(j.staging);
        }
        let mut ids: Vec<u64> = self.recv.keys().copied().collect();
        ids.sort_unstable();
        d.usize(ids.len());
        for id in ids {
            let st = &self.recv[&id];
            d.u64(id);
            d.u32(st.received);
            d.bool(st.complete);
            match st.kind {
                RecvKind::Deferred => d.u8(0),
                RecvKind::Unknown => d.u8(1),
                RecvKind::Normal => d.u8(2),
                RecvKind::InTransit { injecting } => {
                    d.u8(3);
                    d.bool(injecting);
                }
                RecvKind::Flushed => d.u8(4),
            }
            d.bool(st.owns_buffer);
        }
        d.usize(self.itb_pending.len());
        for p in &self.itb_pending {
            d.u64(p.0);
        }
        d.usize(self.deferred_heads.len());
        for p in &self.deferred_heads {
            d.u64(p.0);
        }
        d.usize(self.outputs.len());
    }

    /// Debug: (token, staging, staged, wire_len, desc_taken) per send job.
    pub fn send_queue_debug(&self) -> Vec<(u64, bool, u32, u32, bool)> {
        self.send_queue
            .iter()
            .map(|j| (j.token, j.staging, j.staged, j.wire_len, j.desc.is_none()))
            .collect()
    }

    /// Drain outputs for the GM layer: append them to `buf`, keeping this
    /// NIC's buffer capacity, so the event loop allocates nothing per event.
    pub fn drain_outputs_into(&mut self, buf: &mut Vec<NicOutput>) {
        buf.append(&mut self.outputs);
    }

    /// Whether outputs are waiting to be drained.
    pub fn has_outputs(&self) -> bool {
        !self.outputs.is_empty()
    }

    /// Occupy the CPU for `cycles` starting no earlier than `now`; returns
    /// the completion time. While the host DMA moves data, the processor —
    /// the lowest-priority SRAM master — is slowed by the configured
    /// contention factor.
    fn run_cpu(&mut self, now: SimTime, cycles: u32) -> SimTime {
        let cycles = if self.dma.is_busy() && self.timing.sram_contention_pct > 0 {
            cycles + cycles * self.timing.sram_contention_pct / 100
        } else {
            cycles
        };
        let start = now.max(self.cpu_free_at);
        let done = start + self.timing.cycles(cycles);
        self.cpu_free_at = done;
        done
    }

    // ------------------------------------------------------------------
    // Host (GM) entry points
    // ------------------------------------------------------------------

    /// Submit one packet for transmission. The GM layer has already encoded
    /// the header from its route table.
    pub fn submit_send<S>(
        &mut self,
        token: SendToken,
        desc: PacketDesc,
        now: SimTime,
        net: &mut Network,
        sched: &mut S,
    ) where
        S: NicSched + NetSched,
    {
        let wire_len = narrow::<u32, _>(desc.header.len()) + desc.payload_len + 1;
        let packet = net.allocate_packet_id();
        net.trace(packet, Stage::HostInject, u32::from(self.host.0), now);
        self.send_queue.push_back(SendJob {
            token,
            packet,
            desc: Some(desc),
            wire_len,
            staged: 0,
            staging: false,
        });
        self.pump_sdma(now, sched);
    }

    /// Start staging queued sends into free SRAM buffers (as many as fit).
    fn pump_sdma<S: NicSched>(&mut self, now: SimTime, sched: &mut S) {
        loop {
            if self.send_buffers_free == 0 {
                return;
            }
            let Some(job) = self.send_queue.iter_mut().find(|j| !j.staging) else {
                return;
            };
            self.send_buffers_free -= 1;
            job.staging = true;
            let token = job.token;
            let total = job.wire_len;
            // Queue the SDMA chunks.
            let chunk = self.timing.dma_chunk;
            let mut off = 0;
            while off < total {
                let bytes = chunk.min(total - off);
                off += bytes;
                let jobd = DmaJob::SdmaChunk {
                    token,
                    bytes,
                    last: off == total,
                };
                if let Some((j, done)) = self.dma.submit(jobd, now, &self.timing) {
                    sched.nic_at(
                        done,
                        NicEvent::Dma {
                            host: self.host,
                            job: j,
                        },
                    );
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Fault injection: NIC crash
    // ------------------------------------------------------------------

    /// Crash this NIC: the firmware dies on the spot. Every reception it
    /// holds that is not already committed downstream is flushed — pending
    /// in-transit forwards, unclassified heads and deferred packets — and
    /// until [`Nic::recover`] every arriving packet is discarded. This is
    /// the paper's in-transit host failure scenario: packets parked in the
    /// ITB host's buffers are simply lost and GM retransmission recovers
    /// them. Packets already re-injecting (bytes on the wire, cut-through)
    /// and packets already in the host RDMA path run to completion; a
    /// wormhole cannot be un-sent.
    pub fn crash<S>(&mut self, now: SimTime, net: &mut Network, sched: &mut S)
    where
        S: NicSched + NetSched,
    {
        if self.crashed {
            return;
        }
        self.crashed = true;
        // Pending forwards never happen; their receptions flush below.
        self.itb_pending.clear();
        self.deferred_heads.clear();
        let victims: Vec<u64> = self
            .recv
            .iter()
            .filter(|(_, st)| {
                matches!(
                    st.kind,
                    RecvKind::Unknown
                        | RecvKind::Deferred
                        | RecvKind::InTransit { injecting: false }
                )
            })
            .map(|(&k, _)| k)
            .collect();
        for k in victims {
            self.flush_for_crash(PacketId(k), now, net, sched);
        }
        // A dead NIC exerts no backpressure: bytes stream in and burn.
        net.set_host_rx_paused(self.host, false, now, sched);
    }

    /// Bring a crashed NIC back with empty queues and a full buffer pool
    /// view (the state it crashed with was flushed at crash time).
    pub fn recover(&mut self) {
        self.crashed = false;
    }

    /// Flush one held reception at crash time, recycling its buffer if it
    /// owned one.
    fn flush_for_crash<S>(
        &mut self,
        packet: PacketId,
        now: SimTime,
        net: &mut Network,
        sched: &mut S,
    ) where
        S: NicSched + NetSched,
    {
        let Some(st) = self.recv.get_mut(&packet.0) else {
            return;
        };
        let owned = st.owns_buffer;
        let complete = st.complete;
        st.kind = RecvKind::Flushed;
        st.owns_buffer = false;
        self.stats.crash_flushes += 1;
        self.outputs.push(NicOutput::Flushed {
            host: self.host,
            packet,
        });
        if complete {
            self.recv.remove(&packet.0);
            net.retire(packet);
        }
        if owned {
            self.on_buffer_freed(now, net, sched);
        }
    }

    // ------------------------------------------------------------------
    // Network indications
    // ------------------------------------------------------------------

    /// Route one network indication for this host into the firmware.
    pub fn on_indication<S>(
        &mut self,
        ind: HostIndication,
        now: SimTime,
        net: &mut Network,
        sched: &mut S,
    ) where
        S: NicSched + NetSched,
    {
        match ind {
            HostIndication::HeadArrived { packet, .. } => self.on_head(packet, now, net, sched),
            HostIndication::BytesArrived {
                packet, received, ..
            } => self.on_bytes(packet, received, now, net, sched),
            HostIndication::PacketComplete {
                packet, received, ..
            } => self.on_complete(packet, received, now, net, sched),
            HostIndication::InjectionComplete { packet, .. } => {
                self.on_injection_complete(packet, now, net, sched)
            }
        }
    }

    fn on_head<S>(&mut self, packet: PacketId, now: SimTime, net: &mut Network, sched: &mut S)
    where
        S: NicSched + NetSched,
    {
        // A crashed NIC discards everything that reaches it.
        if self.crashed {
            self.recv.insert(
                packet.0,
                RecvState {
                    received: 0,
                    complete: false,
                    kind: RecvKind::Flushed,
                    owns_buffer: false,
                },
            );
            self.stats.crash_flushes += 1;
            self.outputs.push(NicOutput::Flushed {
                host: self.host,
                packet,
            });
            return;
        }
        // Buffer admission happens at the head.
        if self.recv_buffers_free == 0 {
            if self.timing.flush_on_overflow {
                // The paper's circular-pool policy: drop and let GM resend.
                self.recv.insert(
                    packet.0,
                    RecvState {
                        received: 0,
                        complete: false,
                        kind: RecvKind::Flushed,
                        owns_buffer: false,
                    },
                );
                self.stats.flushed += 1;
                self.outputs.push(NicOutput::Flushed {
                    host: self.host,
                    packet,
                });
            } else {
                // Stock GM: assert receive flow control; the wire stalls
                // until a buffer is programmed.
                self.recv.insert(
                    packet.0,
                    RecvState {
                        received: 0,
                        complete: false,
                        kind: RecvKind::Deferred,
                        owns_buffer: false,
                    },
                );
                self.deferred_heads.push_back(packet);
                self.stats.rx_stalls += 1;
                net.set_host_rx_paused(self.host, true, now, sched);
            }
            return;
        }
        self.recv_buffers_free -= 1;
        self.recv.insert(
            packet.0,
            RecvState {
                received: 0,
                complete: false,
                kind: RecvKind::Unknown,
                owns_buffer: true,
            },
        );
        self.classify(packet, now, net, sched);
    }

    /// Run the head-of-packet firmware path once the packet owns a buffer.
    fn classify<S>(&mut self, packet: PacketId, now: SimTime, net: &mut Network, sched: &mut S)
    where
        S: NicSched + NetSched,
    {
        match self.flavor {
            McpFlavor::Itb => {
                // The LANai raises the high-priority Early Recv Packet event
                // once four bytes are in; the handler checks the type.
                self.stats.early_recv_events += 1;
                let done = self.run_cpu(
                    now,
                    self.timing.dispatch_cycles + self.timing.early_check_cycles,
                );
                sched.nic_at(
                    done,
                    NicEvent::Cpu {
                        host: self.host,
                        work: CpuWork::EarlyRecv { packet },
                    },
                );
            }
            McpFlavor::Original => {
                // Stock firmware classifies the packet when it processes the
                // reception; nothing happens at the head. (It cannot see ITB
                // packets: the mapper never installs ITB routes for it.)
                debug_assert_ne!(
                    net.packet_type(packet),
                    Some(TYPE_ITB),
                    "ITB packet reached an original-MCP NIC"
                );
                let complete = {
                    // detlint::allow(S001, admission inserts the recv state before any event references it)
                    let st = self.recv.get_mut(&packet.0).expect("admitted packet");
                    st.kind = RecvKind::Normal;
                    st.complete
                };
                // A deferred packet may have fully arrived before admission.
                if complete {
                    self.start_recv_finish(packet, now, net, sched);
                }
            }
        }
    }

    /// A receive buffer became free: admit the oldest deferred packet, if
    /// any, and release the receive flow control.
    fn on_buffer_freed<S>(&mut self, now: SimTime, net: &mut Network, sched: &mut S)
    where
        S: NicSched + NetSched,
    {
        self.recv_buffers_free += 1;
        let Some(packet) = self.deferred_heads.pop_front() else {
            return;
        };
        self.recv_buffers_free -= 1;
        if let Some(st) = self.recv.get_mut(&packet.0) {
            debug_assert_eq!(st.kind, RecvKind::Deferred);
            st.kind = RecvKind::Unknown;
            st.owns_buffer = true;
        }
        if self.deferred_heads.is_empty() {
            net.set_host_rx_paused(self.host, false, now, sched);
        }
        self.classify(packet, now, net, sched);
    }

    fn on_bytes<S>(
        &mut self,
        packet: PacketId,
        received: u32,
        now: SimTime,
        net: &mut Network,
        sched: &mut S,
    ) where
        S: NicSched + NetSched,
    {
        let Some(st) = self.recv.get_mut(&packet.0) else {
            return;
        };
        st.received = received;
        if let RecvKind::InTransit { injecting: true } = st.kind {
            // Virtual cut-through: release bytes to the send DMA as they
            // arrive (3 header bytes vanished with the ITB group).
            net.extend_available(self.host, packet, received.saturating_sub(3), now, sched);
        }
    }

    fn on_complete<S>(
        &mut self,
        packet: PacketId,
        received: u32,
        now: SimTime,
        net: &mut Network,
        sched: &mut S,
    ) where
        S: NicSched + NetSched,
    {
        let Some(st) = self.recv.get_mut(&packet.0) else {
            return;
        };
        st.received = received;
        st.complete = true;
        match st.kind {
            RecvKind::Flushed => {
                // Bytes fully discarded; forget the packet entirely.
                self.recv.remove(&packet.0);
                net.retire(packet);
            }
            RecvKind::InTransit { .. } => {
                // Nothing: the send side finishes the forward. Final extend
                // already happened via on_bytes.
            }
            RecvKind::Unknown | RecvKind::Deferred => {
                // Either a very short packet whose tail beat the Early-Recv
                // handler, or a packet still awaiting a buffer: the
                // classification path picks the tail processing up.
            }
            RecvKind::Normal => {
                self.start_recv_finish(packet, now, net, sched);
            }
        }
    }

    fn on_injection_complete<S>(
        &mut self,
        packet: PacketId,
        now: SimTime,
        net: &mut Network,
        sched: &mut S,
    ) where
        S: NicSched + NetSched,
    {
        // Either a fresh send finished or an in-transit forward finished.
        if let Some(st) = self.recv.get(&packet.0) {
            if matches!(st.kind, RecvKind::InTransit { .. }) {
                debug_assert!(st.complete, "forward cannot outrun reception");
                self.recv.remove(&packet.0);
                self.stats.itb_forwards += 1;
                self.on_buffer_freed(now, net, sched);
                self.maybe_start_pending_itb(now, net, sched);
                return;
            }
        }
        // Fresh send: find and retire the job.
        if let Some(pos) = self
            .send_queue
            .iter()
            .position(|j| j.staging && j.desc.is_none())
        {
            // detlint::allow(S001, pos was found by position in this queue)
            let job = self.send_queue.remove(pos).expect("position valid");
            self.send_buffers_free += 1;
            self.outputs.push(NicOutput::SendComplete {
                host: self.host,
                token: job.token,
            });
            self.stats.sends += 1;
            // A freed send buffer may unblock staging; a freed send DMA may
            // unblock a pending ITB forward (high priority — check first).
            self.maybe_start_pending_itb(now, net, sched);
            self.pump_sdma(now, sched);
        }
    }

    /// Tail processing of a normal packet: CRC verification, Recv-machine
    /// completion bookkeeping, then RDMA. The ITB firmware's longer receive
    /// path costs a little extra on every packet — the Figure 7 overhead.
    fn start_recv_finish<S>(
        &mut self,
        packet: PacketId,
        now: SimTime,
        net: &mut Network,
        sched: &mut S,
    ) where
        S: NicSched + NetSched,
    {
        // The LANai checks the trailing CRC once the tail is in; a damaged
        // packet is discarded here and GM's retransmission recovers it.
        if net.packet(packet).corrupted {
            self.recv.remove(&packet.0);
            self.on_buffer_freed(now, net, sched);
            net.retire(packet);
            self.stats.crc_drops += 1;
            self.outputs.push(NicOutput::Flushed {
                host: self.host,
                packet,
            });
            return;
        }
        let mut cycles = self.timing.recv_finish_cycles;
        if self.flavor == McpFlavor::Itb {
            cycles += self.timing.itb_support_extra_cycles;
        }
        let done = self.run_cpu(now, cycles);
        // Traced at handler completion, so breakdowns see the CPU cost.
        net.trace(packet, Stage::McpRecvFinish, u32::from(self.host.0), done);
        sched.nic_at(
            done,
            NicEvent::Cpu {
                host: self.host,
                work: CpuWork::RecvFinish { packet },
            },
        );
    }

    /// Paper Figure 5: "ITB packet pending & send free → Send ITB packet".
    fn maybe_start_pending_itb<S>(&mut self, now: SimTime, net: &mut Network, sched: &mut S)
    where
        S: NicSched + NetSched,
    {
        if net.host_tx_busy(self.host) {
            return;
        }
        let Some(packet) = self.itb_pending.pop_front() else {
            return;
        };
        self.stats.itb_pending_serviced += 1;
        let done = self.run_cpu(now, self.timing.itb_program_cycles);
        sched.nic_at(
            done,
            NicEvent::Cpu {
                host: self.host,
                work: CpuWork::ItbForward { packet },
            },
        );
    }

    // ------------------------------------------------------------------
    // NIC events
    // ------------------------------------------------------------------

    /// Handle a NIC event addressed to this host.
    pub fn handle<S>(&mut self, now: SimTime, ev: NicEvent, net: &mut Network, sched: &mut S)
    where
        S: NicSched + NetSched,
    {
        match ev {
            NicEvent::Cpu { work, .. } => self.on_cpu(work, now, net, sched),
            NicEvent::Dma { job, .. } => self.on_dma(job, now, net, sched),
        }
    }

    fn on_cpu<S>(&mut self, work: CpuWork, now: SimTime, net: &mut Network, sched: &mut S)
    where
        S: NicSched + NetSched,
    {
        match work {
            CpuWork::EarlyRecv { packet } => {
                net.trace(packet, Stage::McpEarlyRecv, u32::from(self.host.0), now);
                let Some(st) = self.recv.get_mut(&packet.0) else {
                    return;
                };
                if st.kind != RecvKind::Unknown {
                    // The packet was flushed (e.g. by a crash) between the
                    // head event and this handler firing.
                    return;
                }
                let ty = net.packet_type(packet);
                if ty == Some(TYPE_ITB) {
                    self.stats.itb_detects += 1;
                    net.trace(packet, Stage::McpItbDetect, u32::from(self.host.0), now);
                    // Queue behind the send DMA *and* behind any in-transit
                    // packets already waiting on the pending flag — jumping
                    // ahead of them would reorder same-flow packets (the
                    // send DMA can be momentarily idle while a popped
                    // pending packet's reprogramming handler is still on
                    // the CPU).
                    if net.host_tx_busy(self.host) || !self.itb_pending.is_empty() {
                        st.kind = RecvKind::InTransit { injecting: false };
                        self.itb_pending.push_back(packet);
                    } else {
                        st.kind = RecvKind::InTransit { injecting: false };
                        // Program the send DMA right from the Recv machine,
                        // saving a dispatch cycle (paper Figure 4's dashed
                        // path).
                        let done = self.run_cpu(now, self.timing.itb_program_cycles);
                        sched.nic_at(
                            done,
                            NicEvent::Cpu {
                                host: self.host,
                                work: CpuWork::ItbForward { packet },
                            },
                        );
                    }
                } else {
                    debug_assert_eq!(ty, Some(TYPE_GM), "unexpected packet type {ty:?}");
                    st.kind = RecvKind::Normal;
                    // If the tail already arrived (very short packet), the
                    // deferred tail processing runs now.
                    if st.complete {
                        self.start_recv_finish(packet, now, net, sched);
                    }
                }
            }
            CpuWork::ItbForward { packet } => {
                let Some(st) = self.recv.get_mut(&packet.0) else {
                    return;
                };
                if !matches!(st.kind, RecvKind::InTransit { .. }) {
                    // Crash-flushed after the forward was programmed: the
                    // send DMA never runs for a dead firmware.
                    return;
                }
                st.kind = RecvKind::InTransit { injecting: true };
                // Strip ITB|Length, then hand to the send DMA after its
                // start latency. Bytes available so far: received − 3.
                net.strip_itb_group(packet);
                let avail = if st.complete {
                    u32::MAX // clamped to wire length inside
                } else {
                    st.received.saturating_sub(3)
                };
                // The DMA start latency is pure hardware after the handler
                // retires: hand the packet to the network at `start`.
                net.trace(packet, Stage::McpItbForward, u32::from(self.host.0), now);
                let start = now + self.timing.dma_start;
                net.reinject(self.host, packet, avail, start, sched);
            }
            CpuWork::SendProgram { token } => {
                // Launch the staged packet into the network.
                let Some(job) = self.send_queue.iter_mut().find(|j| j.token == token) else {
                    return;
                };
                // detlint::allow(S001, descriptors are programmed exactly once before send)
                let desc = job.desc.take().expect("programmed once");
                let wire = job.wire_len;
                let id = job.packet;
                let start = now + self.timing.dma_start;
                net.inject_allocated(id, self.host, desc, wire, start, sched);
            }
            CpuWork::RecvFinish { packet } => {
                // Start draining the packet to host memory.
                let Some(st) = self.recv.get_mut(&packet.0) else {
                    return;
                };
                debug_assert_eq!(st.kind, RecvKind::Normal);
                let total = st.received;
                let chunk = self.timing.dma_chunk;
                let mut off = 0;
                while off < total {
                    let bytes = chunk.min(total - off);
                    off += bytes;
                    let jobd = DmaJob::RdmaChunk {
                        packet,
                        bytes,
                        last: off == total,
                    };
                    if let Some((j, done)) = self.dma.submit(jobd, now, &self.timing) {
                        sched.nic_at(
                            done,
                            NicEvent::Dma {
                                host: self.host,
                                job: j,
                            },
                        );
                    }
                }
            }
            CpuWork::RecvDeliver { packet } => {
                net.trace(packet, Stage::NicDeliver, u32::from(self.host.0), now);
                // Hand the message up and recycle the buffer.
                // detlint::allow(S001, delivery events fire only for admitted packets)
                let st = self.recv.remove(&packet.0).expect("delivering a packet");
                self.on_buffer_freed(now, net, sched);
                let ps = net.retire(packet);
                debug_assert_eq!(ps.desc.header.packet_type(), Some(TYPE_GM));
                self.stats.recvs += 1;
                self.outputs.push(NicOutput::RecvComplete {
                    host: self.host,
                    packet,
                    desc: ps.desc,
                    received: st.received,
                });
            }
        }
    }

    fn on_dma<S>(&mut self, job: DmaJob, now: SimTime, net: &mut Network, sched: &mut S)
    where
        S: NicSched + NetSched,
    {
        let _ = net;
        // Start the next queued transfer.
        if let Some((next, done)) = self.dma.complete(now, &self.timing) {
            sched.nic_at(
                done,
                NicEvent::Dma {
                    host: self.host,
                    job: next,
                },
            );
        }
        match job {
            DmaJob::SdmaChunk { token, bytes, last } => {
                if let Some(j) = self.send_queue.iter_mut().find(|j| j.token == token) {
                    j.staged += bytes;
                    if last {
                        debug_assert_eq!(j.staged, j.wire_len);
                        // Packet fully in SRAM: the Send machine programs
                        // the send DMA.
                        let done = self.run_cpu(now, self.timing.send_program_cycles);
                        sched.nic_at(
                            done,
                            NicEvent::Cpu {
                                host: self.host,
                                work: CpuWork::SendProgram { token },
                            },
                        );
                    }
                }
            }
            DmaJob::RdmaChunk { packet, last, .. } => {
                if last {
                    let done = self.run_cpu(now, self.timing.recv_deliver_cycles);
                    sched.nic_at(
                        done,
                        NicEvent::Cpu {
                            host: self.host,
                            work: CpuWork::RecvDeliver { packet },
                        },
                    );
                }
            }
        }
    }
}

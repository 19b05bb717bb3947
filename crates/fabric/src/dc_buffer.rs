//! Dual-Channel Buffers: one per commit path, with independent FIFOs for
//! status and run-time data (paper §III-B).
//!
//! The dual-channel split is the paper's fix for commit-time bursts: all
//! run-time data retiring in a cycle can be buffered *in that cycle* even
//! when status (checkpoint) data is being generated simultaneously, so
//! nothing has to linger inside the core's own structures longer than in
//! the unmodified design.

use crate::packet::{Packet, PacketKind};
use std::collections::VecDeque;

/// Capacity of one DC-Buffer (entries per channel FIFO).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DcBufferConfig {
    /// Run-time FIFO depth.
    pub runtime_depth: usize,
    /// Status FIFO depth.
    pub status_depth: usize,
}

impl Default for DcBufferConfig {
    fn default() -> Self {
        // Small FIFOs: the DC-Buffer only decouples the commit burst from
        // the fabric; the paper's design goal is that extracted data not
        // linger on-core longer than in the unmodified design.
        DcBufferConfig { runtime_depth: 4, status_depth: 8 }
    }
}

/// One Dual-Channel Buffer.
#[derive(Debug, Clone)]
pub struct DcBuffer {
    cfg: DcBufferConfig,
    runtime: VecDeque<Packet>,
    status: VecDeque<Packet>,
}

impl DcBuffer {
    /// Creates an empty buffer.
    pub fn new(cfg: DcBufferConfig) -> DcBuffer {
        DcBuffer { cfg, runtime: VecDeque::new(), status: VecDeque::new() }
    }

    /// Whether the channel FIFO for `kind` has room for one more packet.
    pub fn can_push(&self, kind: PacketKind) -> bool {
        match kind {
            PacketKind::Runtime => self.runtime.len() < self.cfg.runtime_depth,
            PacketKind::Status => self.status.len() < self.cfg.status_depth,
        }
    }

    /// Attempts to enqueue; returns the packet back when the target
    /// channel is full (the caller must stall commit).
    ///
    /// # Errors
    ///
    /// `Err(pkt)` if the channel FIFO for the packet's kind is full.
    pub fn try_push(&mut self, pkt: Packet) -> Result<(), Packet> {
        if !self.can_push(pkt.kind()) {
            return Err(pkt);
        }
        match pkt.kind() {
            PacketKind::Runtime => self.runtime.push_back(pkt),
            PacketKind::Status => self.status.push_back(pkt),
        }
        Ok(())
    }

    /// Peeks the head packet of a channel.
    pub fn head(&self, kind: PacketKind) -> Option<&Packet> {
        match kind {
            PacketKind::Runtime => self.runtime.front(),
            PacketKind::Status => self.status.front(),
        }
    }

    /// Returns a packet to the head of a channel (used by the NoC when a
    /// multicast could only be partially delivered). Bypasses the
    /// capacity check: the slot was freed by the corresponding `pop`.
    pub fn push_front(&mut self, kind: PacketKind, pkt: Packet) {
        match kind {
            PacketKind::Runtime => self.runtime.push_front(pkt),
            PacketKind::Status => self.status.push_front(pkt),
        }
    }

    /// Pops the head packet of a channel.
    pub fn pop(&mut self, kind: PacketKind) -> Option<Packet> {
        match kind {
            PacketKind::Runtime => self.runtime.pop_front(),
            PacketKind::Status => self.status.pop_front(),
        }
    }

    /// Drops everything queued on both channels, returning how many
    /// packets were discarded (recovery squash).
    pub fn clear(&mut self) -> usize {
        let dropped = self.len();
        self.runtime.clear();
        self.status.clear();
        dropped
    }

    /// Total queued packets across both channels.
    pub fn len(&self) -> usize {
        self.runtime.len() + self.status.len()
    }

    /// Whether both channels are empty.
    pub fn is_empty(&self) -> bool {
        self.runtime.is_empty() && self.status.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{DestMask, Payload};

    fn mem_pkt(seq: u64) -> Packet {
        Packet {
            seq,
            dest: DestMask::single(0),
            payload: Payload::Mem { seg: 0, addr: 0x100, size: 8, data: seq, is_store: false },
            created_at: 0,
        }
    }

    fn status_pkt(seq: u64) -> Packet {
        Packet {
            seq,
            dest: DestMask::single(0),
            payload: Payload::RcpChunk { seg: 0, chunk: 0, total: 1 },
            created_at: 0,
        }
    }

    #[test]
    fn channels_are_independent() {
        let mut b = DcBuffer::new(DcBufferConfig { runtime_depth: 1, status_depth: 1 });
        b.try_push(mem_pkt(0)).unwrap();
        // Runtime full, but status still accepts — the dual-channel point.
        assert!(b.try_push(mem_pkt(1)).is_err());
        b.try_push(status_pkt(2)).unwrap();
        assert!(b.try_push(status_pkt(3)).is_err());
        assert_eq!(b.len(), 2);
    }

    #[test]
    fn fifo_order() {
        let mut b = DcBuffer::new(DcBufferConfig::default());
        for i in 0..4 {
            b.try_push(mem_pkt(i)).unwrap();
        }
        for i in 0..4 {
            assert_eq!(b.pop(PacketKind::Runtime).unwrap().seq, i);
        }
        assert!(b.is_empty());
    }

    #[test]
    fn rejected_packet_is_returned_intact() {
        let mut b = DcBuffer::new(DcBufferConfig { runtime_depth: 1, status_depth: 1 });
        b.try_push(mem_pkt(7)).unwrap();
        let p = mem_pkt(8);
        let back = b.try_push(p.clone()).unwrap_err();
        assert_eq!(back, p);
    }
}

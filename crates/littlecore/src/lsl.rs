//! The Load-Store Log: dual-way FIFOs buffering forwarded data
//! (paper Fig. 4 b).
//!
//! Because the little core consumes the log strictly in order, the LSL is
//! built from FIFOs rather than a way-associative structure — the paper's
//! complexity reduction. One way holds run-time records (loads, stores,
//! CSR results), the other holds status (checkpoint) chunks, which are
//! assembled back into [`StatusRecord`]s as the final chunk arrives.

use crate::config::LslConfig;
use meek_fabric::{Packet, PacketKind, PacketSink, Payload};
use meek_isa::state::RegCheckpoint;
use std::collections::VecDeque;

/// One run-time entry: a load, store, or CSR result to replay against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RuntimeRecord {
    /// A logged memory access.
    Mem {
        /// Segment the record belongs to.
        seg: u32,
        /// Effective address the big core used.
        addr: u64,
        /// Access size in bytes.
        size: u8,
        /// Load result / store payload.
        data: u64,
        /// `true` for stores.
        is_store: bool,
    },
    /// A logged CSR read result (non-repeatable).
    Csr {
        /// Segment the record belongs to.
        seg: u32,
        /// CSR address.
        addr: u16,
        /// Value the big core observed.
        data: u64,
    },
}

impl RuntimeRecord {
    /// The segment this record belongs to.
    pub fn seg(&self) -> u32 {
        match *self {
            RuntimeRecord::Mem { seg, .. } | RuntimeRecord::Csr { seg, .. } => seg,
        }
    }
}

/// An assembled register checkpoint with its segment metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct StatusRecord {
    /// Segment this checkpoint ends (ERCP of `seg`, SRCP of `seg + 1`).
    pub seg: u32,
    /// Replay length of segment `seg` in instructions.
    pub inst_count: u64,
    /// The checkpoint.
    pub cp: RegCheckpoint,
}

/// The Load-Store Log.
#[derive(Debug, Clone)]
pub struct LoadStoreLog {
    cfg: LslConfig,
    /// Status-way chunks one checkpoint occupies (the fabric's chunking).
    chunks_per_cp: usize,
    runtime: VecDeque<RuntimeRecord>,
    status_chunks: usize,
    status: VecDeque<StatusRecord>,
}

impl LoadStoreLog {
    /// Creates an empty log whose checkpoints arrive in `chunks_per_cp`
    /// status chunks each.
    pub fn new(cfg: LslConfig, chunks_per_cp: usize) -> LoadStoreLog {
        LoadStoreLog {
            cfg,
            chunks_per_cp,
            runtime: VecDeque::new(),
            status_chunks: 0,
            status: VecDeque::new(),
        }
    }

    /// Entries currently in the run-time way.
    pub fn runtime_len(&self) -> usize {
        self.runtime.len()
    }

    /// Assembled checkpoints waiting to be consumed.
    pub fn status_len(&self) -> usize {
        self.status.len()
    }

    /// Whether both ways are empty.
    pub fn is_empty(&self) -> bool {
        self.runtime.is_empty() && self.status.is_empty() && self.status_chunks == 0
    }

    /// Pops the next run-time record (in-order consumption).
    pub fn pop_runtime(&mut self) -> Option<RuntimeRecord> {
        self.runtime.pop_front()
    }

    /// Peeks the next run-time record.
    pub fn peek_runtime(&self) -> Option<&RuntimeRecord> {
        self.runtime.front()
    }

    /// Drops the run-time records of segments before `seg`: a checker
    /// that abandoned a segment after a detection leaves the rest of its
    /// log behind, and records may still have been in flight through the
    /// fabric when the segment finished.
    pub fn drop_stale_runtime(&mut self, seg: u32) {
        while self.runtime.front().is_some_and(|r| r.seg() < seg) {
            self.runtime.pop_front();
        }
    }

    /// Pops the next assembled checkpoint and frees the status-way
    /// chunks it occupied.
    pub fn pop_status(&mut self) -> Option<StatusRecord> {
        let rec = self.status.pop_front()?;
        self.status_chunks = self.status_chunks.saturating_sub(self.chunks_per_cp);
        Some(rec)
    }

    /// Drops every assembled checkpoint of a segment before `seg`: the
    /// checker no longer needs it as an SRCP or an ERCP.
    pub fn drop_stale_status(&mut self, seg: u32) {
        while self.status.front().is_some_and(|r| r.seg < seg) {
            self.pop_status();
        }
    }

    /// Takes checkpoint `seg` once the stale ones before it are dropped,
    /// if it has been assembled.
    pub fn take_status(&mut self, seg: u32) -> Option<StatusRecord> {
        self.drop_stale_status(seg);
        if self.status.front()?.seg == seg {
            self.pop_status()
        } else {
            None
        }
    }

    /// Drops everything (MSU reset on mode switch / reallocation).
    pub fn clear(&mut self) {
        self.runtime.clear();
        self.status.clear();
        self.status_chunks = 0;
    }
}

impl PacketSink for LoadStoreLog {
    fn can_accept(&self, kind: PacketKind) -> bool {
        match kind {
            PacketKind::Runtime => self.runtime.len() < self.cfg.runtime_capacity,
            PacketKind::Status => self.status_chunks < self.cfg.status_capacity_chunks,
        }
    }

    fn deliver(&mut self, pkt: Packet, _now: u64) {
        match pkt.payload {
            Payload::Mem { seg, addr, size, data, is_store } => {
                self.runtime.push_back(RuntimeRecord::Mem { seg, addr, size, data, is_store });
            }
            Payload::Csr { seg, addr, data } => {
                self.runtime.push_back(RuntimeRecord::Csr { seg, addr, data });
            }
            Payload::RcpChunk { .. } => {
                self.status_chunks += 1;
            }
            Payload::RcpEnd { seg, inst_count, cp } => {
                // The in-flight chunks of this checkpoint are consumed by
                // the assembly; the assembled record takes their place
                // until applied.
                self.status.push_back(StatusRecord { seg, inst_count, cp: *cp });
                self.status_chunks += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use meek_fabric::DestMask;

    const CHUNKS: usize = 17;

    fn mem_packet(seq: u64, addr: u64, data: u64, is_store: bool) -> Packet {
        Packet {
            seq,
            dest: DestMask::single(0),
            payload: Payload::Mem { seg: 0, addr, size: 8, data, is_store },
            created_at: 0,
        }
    }

    fn rcp_end(seq: u64, seg: u32, inst_count: u64) -> Packet {
        Packet {
            seq,
            dest: DestMask::single(0),
            payload: Payload::RcpEnd {
                seg,
                inst_count,
                cp: Box::new(RegCheckpoint::zeroed(0x1000)),
            },
            created_at: 7,
        }
    }

    /// Delivers checkpoint `seg` as its `CHUNKS` status chunks.
    fn deliver_checkpoint(lsl: &mut LoadStoreLog, seg: u32, inst_count: u64) {
        for c in 0..CHUNKS as u8 - 1 {
            lsl.deliver(
                Packet {
                    seq: c as u64,
                    dest: DestMask::single(0),
                    payload: Payload::RcpChunk { seg, chunk: c, total: CHUNKS as u8 },
                    created_at: 0,
                },
                0,
            );
        }
        lsl.deliver(rcp_end(CHUNKS as u64 - 1, seg, inst_count), 0);
    }

    #[test]
    fn runtime_fifo_order() {
        let mut lsl = LoadStoreLog::new(LslConfig::default(), CHUNKS);
        lsl.deliver(mem_packet(0, 0x10, 1, false), 0);
        lsl.deliver(mem_packet(1, 0x18, 2, true), 0);
        assert_eq!(lsl.runtime_len(), 2);
        assert_eq!(
            lsl.pop_runtime(),
            Some(RuntimeRecord::Mem { seg: 0, addr: 0x10, size: 8, data: 1, is_store: false })
        );
        assert_eq!(
            lsl.pop_runtime(),
            Some(RuntimeRecord::Mem { seg: 0, addr: 0x18, size: 8, data: 2, is_store: true })
        );
        assert_eq!(lsl.pop_runtime(), None);
    }

    #[test]
    fn capacity_enforced() {
        let mut lsl =
            LoadStoreLog::new(LslConfig { runtime_capacity: 2, status_capacity_chunks: 1 }, CHUNKS);
        assert!(lsl.can_accept(PacketKind::Runtime));
        lsl.deliver(mem_packet(0, 0, 0, false), 0);
        lsl.deliver(mem_packet(1, 8, 0, false), 0);
        assert!(!lsl.can_accept(PacketKind::Runtime));
        assert!(lsl.can_accept(PacketKind::Status));
        lsl.deliver(rcp_end(2, 0, 10), 0);
        assert!(!lsl.can_accept(PacketKind::Status));
    }

    #[test]
    fn checkpoint_assembly() {
        let mut lsl = LoadStoreLog::new(LslConfig::default(), CHUNKS);
        for c in 0..16 {
            lsl.deliver(
                Packet {
                    seq: c,
                    dest: DestMask::single(0),
                    payload: Payload::RcpChunk { seg: 3, chunk: c as u8, total: 17 },
                    created_at: 0,
                },
                c,
            );
        }
        assert_eq!(lsl.status_len(), 0, "not assembled until the final chunk");
        lsl.deliver(rcp_end(16, 3, 555), 99);
        let rec = lsl.pop_status().expect("assembled");
        assert_eq!(rec.seg, 3);
        assert_eq!(rec.inst_count, 555);
        assert!(lsl.is_empty(), "popping the checkpoint freed its chunks");
    }

    #[test]
    fn popping_a_checkpoint_frees_its_chunks() {
        let cfg = LslConfig { status_capacity_chunks: CHUNKS, ..LslConfig::default() };
        let mut lsl = LoadStoreLog::new(cfg, CHUNKS);
        deliver_checkpoint(&mut lsl, 1, 10);
        assert!(!lsl.can_accept(PacketKind::Status), "one checkpoint fills the status way");
        assert_eq!(lsl.pop_status().map(|r| r.seg), Some(1));
        assert!(lsl.can_accept(PacketKind::Status), "the freed chunks admit a new one");
        assert_eq!(lsl.pop_status(), None);
    }

    #[test]
    fn take_status_drops_stale_checkpoints_first() {
        let mut lsl = LoadStoreLog::new(LslConfig::default(), CHUNKS);
        for seg in [1, 2, 4] {
            deliver_checkpoint(&mut lsl, seg, 10);
        }
        assert_eq!(lsl.take_status(3), None, "checkpoint 3 never arrived");
        assert_eq!(lsl.status_len(), 1, "checkpoints 1 and 2 were dropped as stale");
        assert_eq!(lsl.take_status(4).map(|r| r.seg), Some(4));
        assert!(lsl.is_empty());
    }

    #[test]
    fn clear_resets_everything() {
        let mut lsl = LoadStoreLog::new(LslConfig::default(), CHUNKS);
        lsl.deliver(mem_packet(0, 0, 0, false), 0);
        lsl.deliver(rcp_end(1, 0, 1), 0);
        lsl.clear();
        assert!(lsl.is_empty());
        assert!(lsl.can_accept(PacketKind::Runtime));
        assert!(lsl.can_accept(PacketKind::Status));
    }

    #[test]
    fn csr_records_flow_through_runtime_way() {
        let mut lsl = LoadStoreLog::new(LslConfig::default(), CHUNKS);
        lsl.deliver(
            Packet {
                seq: 0,
                dest: DestMask::single(0),
                payload: Payload::Csr { seg: 0, addr: 0xC00, data: 42 },
                created_at: 0,
            },
            0,
        );
        assert_eq!(lsl.pop_runtime(), Some(RuntimeRecord::Csr { seg: 0, addr: 0xC00, data: 42 }));
    }
}

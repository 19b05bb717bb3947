//! Packet types carried by the forwarding fabric.

use meek_isa::state::RegCheckpoint;

/// The two data categories the DEU extracts (paper Fig. 2): run-time data
/// between checkpoints, status data at checkpoints.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PacketKind {
    /// Load/store/CSR records produced between RCPs.
    Runtime,
    /// Register-checkpoint data produced at RCPs.
    Status,
}

/// A bitmask of destination little cores (multicast capable).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct DestMask(pub u16);

impl DestMask {
    /// Little cores a mask can address: one bit each.
    pub const MAX_CORES: usize = u16::BITS as usize;

    /// A mask targeting a single little core.
    ///
    /// # Panics
    ///
    /// Panics if `core >= DestMask::MAX_CORES`.
    pub fn single(core: usize) -> DestMask {
        assert!(core < Self::MAX_CORES, "destination core {core} out of range");
        DestMask(1 << core)
    }

    /// Union of two masks.
    ///
    /// # Panics
    ///
    /// Panics if `core >= DestMask::MAX_CORES`.
    pub fn with(self, core: usize) -> DestMask {
        assert!(core < Self::MAX_CORES, "destination core {core} out of range");
        DestMask(self.0 | (1 << core))
    }

    /// Whether `core` is targeted.
    pub fn contains(self, core: usize) -> bool {
        core < Self::MAX_CORES && self.0 & (1 << core) != 0
    }

    /// Removes `core` from the mask.
    pub fn remove(&mut self, core: usize) {
        if core < Self::MAX_CORES {
            self.0 &= !(1 << core);
        }
    }

    /// Whether no destinations remain.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Number of destinations.
    pub fn count(self) -> u32 {
        self.0.count_ones()
    }

    /// Iterates over destination core indices.
    pub fn iter(self) -> impl Iterator<Item = usize> {
        (0..Self::MAX_CORES).filter(move |&i| self.contains(i))
    }
}

/// Packet payloads.
#[derive(Debug, Clone, PartialEq)]
pub enum Payload {
    /// A run-time memory record: one retired load or store.
    Mem {
        /// Segment the record belongs to (assigned by the DEU).
        seg: u32,
        /// Effective address.
        addr: u64,
        /// Access size in bytes.
        size: u8,
        /// Load result / store payload.
        data: u64,
        /// `true` for stores.
        is_store: bool,
    },
    /// A run-time CSR record (non-repeatable instruction result).
    Csr {
        /// Segment the record belongs to (assigned by the DEU).
        seg: u32,
        /// CSR address.
        addr: u16,
        /// The value the big core read.
        data: u64,
    },
    /// A bandwidth-occupying chunk of an in-flight register checkpoint.
    /// Carries no architectural data; the final chunk ([`Payload::RcpEnd`])
    /// holds the checkpoint.
    RcpChunk {
        /// Segment id this checkpoint closes.
        seg: u32,
        /// Chunk index (0-based).
        chunk: u8,
        /// Total chunks in this checkpoint transfer.
        total: u8,
    },
    /// The final chunk of a checkpoint transfer, carrying the register
    /// checkpoint itself.
    RcpEnd {
        /// Segment id this checkpoint closes (it is the ERCP of `seg` and
        /// the SRCP of `seg + 1`).
        seg: u32,
        /// Number of instructions in segment `seg` — the replay length,
        /// maintained by the DEU's instruction-timeout counter and
        /// forwarded with the checkpoint.
        inst_count: u64,
        /// The architectural register checkpoint.
        cp: Box<RegCheckpoint>,
    },
}

impl Payload {
    /// The packet kind implied by this payload.
    pub fn kind(&self) -> PacketKind {
        match self {
            Payload::Mem { .. } | Payload::Csr { .. } => PacketKind::Runtime,
            Payload::RcpChunk { .. } | Payload::RcpEnd { .. } => PacketKind::Status,
        }
    }
}

/// A packet traversing the fabric.
#[derive(Debug, Clone, PartialEq)]
pub struct Packet {
    /// Global order stamp within its kind (assigned by the DEU); the
    /// fabric preserves per-destination, per-kind seq order.
    pub seq: u64,
    /// Destination little cores.
    pub dest: DestMask,
    /// Payload.
    pub payload: Payload,
    /// Big-core cycle at which the DEU produced the packet.
    pub created_at: u64,
}

impl Packet {
    /// The packet's kind (from its payload).
    pub fn kind(&self) -> PacketKind {
        self.payload.kind()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dest_mask_ops() {
        let m = DestMask::single(2).with(5);
        assert!(m.contains(2));
        assert!(m.contains(5));
        assert!(!m.contains(3));
        assert_eq!(m.count(), 2);
        assert_eq!(m.iter().collect::<Vec<_>>(), vec![2, 5]);
        let mut m2 = m;
        m2.remove(2);
        assert!(!m2.contains(2));
        assert!(!m2.is_empty());
        m2.remove(5);
        assert!(m2.is_empty());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn dest_mask_bounds() {
        let _ = DestMask::single(16);
    }

    #[test]
    fn payload_kinds() {
        assert_eq!(
            Payload::Mem { seg: 0, addr: 0, size: 8, data: 0, is_store: false }.kind(),
            PacketKind::Runtime
        );
        assert_eq!(Payload::Csr { seg: 0, addr: 0xC00, data: 1 }.kind(), PacketKind::Runtime);
        assert_eq!(Payload::RcpChunk { seg: 0, chunk: 0, total: 17 }.kind(), PacketKind::Status);
        assert_eq!(
            Payload::RcpEnd { seg: 0, inst_count: 1, cp: Box::new(RegCheckpoint::zeroed(0)) }
                .kind(),
            PacketKind::Status
        );
    }
}

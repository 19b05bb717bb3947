//! The MEEK data-forwarding fabric.
//!
//! The big core's DEU extracts two kinds of data at commit (paper §III):
//!
//! * **run-time data** — addresses and data of loads, stores and other
//!   non-repeatable (CSR) instructions, produced between checkpoints;
//! * **status data** — Register Checkpoints (RCPs), the architectural
//!   register files captured at segment boundaries.
//!
//! Each commit path owns a **Dual-Channel Buffer** ([`DcBuffer`]) with
//! independent FIFOs for the two kinds, so a burst of retiring memory
//! operations can be absorbed in the same cycle that a checkpoint is being
//! streamed out. Downstream, one of two interconnects routes packets to
//! the little cores' Load-Store Logs:
//!
//! * [`FabricKind::F2`] — the paper's bespoke fabric: 256-bit datapath,
//!   two packets per big-core cycle, half-duplex multicast (status data
//!   needed by two little cores is sent once), FSM-preserved ordering;
//! * [`FabricKind::Axi`] — the baseline of Fig. 9: a 128-bit shared bus
//!   arbitrating one packet per little-core cycle, unicast only.
//!
//! Both are one type, [`Fabric`]: the DC-Buffers, admission, flushing,
//! statistics and the oldest-eligible-head search are shared, and
//! [`Fabric::tick`] runs the arbitration of its kind ([`noc`] or
//! [`axi`]). The system crate switches kinds to regenerate the paper's
//! backpressure decomposition. The set of interconnects is closed, so a
//! fabric is a plain value: cloning a system clones its fabric.

pub mod axi;
pub mod dc_buffer;
pub mod noc;
pub mod packet;

pub use dc_buffer::{DcBuffer, DcBufferConfig};
pub use packet::{DestMask, Packet, PacketKind, Payload};

/// Statistics common to both interconnects, feeding Fig. 9.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FabricStats {
    /// Packets accepted into DC-Buffers.
    pub pushed: u64,
    /// Packet deliveries into LSLs (a multicast counts once per
    /// destination reached).
    pub delivered: u64,
    /// Bus/NoC transactions performed (a multicast counts once on F2 but
    /// once per destination on AXI).
    pub transactions: u64,
    /// Transactions avoided by selective broadcast (F2 only).
    pub multicast_saved: u64,
    /// Cycles in which a head packet could not move because every
    /// destination LSL was full (forwarding backpressure).
    pub blocked_cycles: u64,
    /// Cycles in which at least one transaction moved.
    pub busy_cycles: u64,
    /// Packets dropped by recovery squashes ([`Fabric::flush`]): data
    /// extracted for segments a rollback discarded before delivery.
    pub squashed: u64,
}

/// A destination for forwarded packets — a little core's Load-Store Log.
///
/// The fabric only needs admission control and delivery; the LSL itself
/// lives in `meek-littlecore`.
pub trait PacketSink {
    /// Whether one more packet of `kind` can currently be accepted.
    fn can_accept(&self, kind: PacketKind) -> bool;

    /// Delivers a packet. Called only when `can_accept` returned `true`
    /// this cycle. `now` is the big-core cycle of delivery.
    fn deliver(&mut self, pkt: Packet, now: u64);
}

/// Which interconnect forwards extracted data (the Fig. 9 ablation),
/// with the per-kind constants of each design.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FabricKind {
    /// The paper's bespoke fabric (§III-B).
    F2,
    /// The full-featured AXI-Interconnect baseline.
    Axi,
}

impl FabricKind {
    /// Every built-in kind, in stable sweep order.
    pub const ALL: [FabricKind; 2] = [FabricKind::F2, FabricKind::Axi];

    /// Packets F2 moves per big-core cycle (paper: 2).
    pub(crate) const F2_PACKETS_PER_CYCLE: u32 = 2;

    /// Big-core cycles per AXI bus beat: one beat per little-core cycle,
    /// the little domain running at half the big core's frequency.
    pub(crate) const AXI_CYCLES_PER_BEAT: u64 = 2;

    /// Stable lower-case name (CLI values, coverage-feature keys,
    /// corpus persistence, serve wire format).
    pub fn name(self) -> &'static str {
        match self {
            FabricKind::F2 => "f2",
            FabricKind::Axi => "axi",
        }
    }

    /// Inverse of [`FabricKind::name`].
    pub fn from_name(name: &str) -> Option<FabricKind> {
        match name {
            "f2" => Some(FabricKind::F2),
            "axi" => Some(FabricKind::Axi),
            _ => None,
        }
    }

    /// Number of 64-bit payload words one packet carries — determines how
    /// many packets a 65-word register checkpoint needs (wider F2 packets
    /// mean fewer transactions than 128-bit AXI beats).
    pub const fn payload_words(self) -> u32 {
        match self {
            FabricKind::F2 => 4,  // 256-bit datapath
            FabricKind::Axi => 2, // 128-bit bus
        }
    }

    /// Traversal latency in big-core cycles: grid hops plus clock-domain
    /// crossing on F2, the bus on AXI. A packet is eligible to move once
    /// it is this many cycles old.
    pub(crate) const fn latency(self) -> u64 {
        match self {
            FabricKind::F2 => 4,
            FabricKind::Axi => 8,
        }
    }
}

/// The packet interconnect between the big core's DC-Buffers and the
/// little cores' LSLs: one DC-Buffer per commit path, drained by the
/// arbitration of its [`FabricKind`].
#[derive(Debug, Clone)]
pub struct Fabric {
    kind: FabricKind,
    buffers: Vec<DcBuffer>,
    stats: FabricStats,
}

impl Fabric {
    /// Creates an empty fabric of `kind` with `lanes` commit paths, each
    /// with a DC-Buffer of capacity `dc`.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is zero.
    pub fn new(kind: FabricKind, lanes: usize, dc: DcBufferConfig) -> Fabric {
        assert!(lanes > 0, "a fabric needs at least one lane");
        Fabric {
            kind,
            buffers: (0..lanes).map(|_| DcBuffer::new(dc)).collect(),
            stats: FabricStats::default(),
        }
    }

    /// Attempts to enqueue a packet on commit path `lane`. Returns the
    /// packet back if the corresponding FIFO is full — the commit stage
    /// must then stall (data-collection backpressure).
    ///
    /// # Errors
    ///
    /// Returns `Err(pkt)` when the lane's FIFO for the packet's kind is
    /// full.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is not a commit path of this fabric.
    pub fn try_push(&mut self, lane: usize, pkt: Packet) -> Result<(), Packet> {
        assert!(lane < self.buffers.len(), "lane {lane} out of range");
        let r = self.buffers[lane].try_push(pkt);
        if r.is_ok() {
            self.stats.pushed += 1;
        }
        r
    }

    /// Whether commit path `lane`'s FIFO for `kind` has room for one
    /// more packet: [`Fabric::try_push`] of such a packet then succeeds.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is not a commit path of this fabric.
    pub fn can_push(&self, lane: usize, kind: PacketKind) -> bool {
        self.buffers[lane].can_push(kind)
    }

    /// Advances one big-core cycle, moving packets toward the sinks:
    /// sink `i` is the destination `DestMask` bit `i` names.
    pub fn tick<S: PacketSink>(&mut self, now: u64, sinks: &mut [S]) {
        match self.kind {
            FabricKind::F2 => self.tick_f2(now, sinks),
            FabricKind::Axi => self.tick_axi(now, sinks),
        }
    }

    /// Whether all internal buffers are empty (used at drain/quiesce).
    pub fn is_empty(&self) -> bool {
        self.buffers.iter().all(DcBuffer::is_empty)
    }

    /// Packets currently queued across every internal buffer — the
    /// instantaneous forwarding backlog, sampled per cycle by
    /// time-series observers (ROB occupancy vs fabric depth figures).
    pub fn depth(&self) -> usize {
        self.buffers.iter().map(DcBuffer::len).sum()
    }

    /// Drops every queued packet — the fabric half of a recovery
    /// rollback: in-flight run-time records and checkpoint chunks of
    /// squashed segments must not reach any LSL after the roll-back
    /// point. Counts the drops in [`FabricStats::squashed`].
    pub fn flush(&mut self) {
        for buf in &mut self.buffers {
            self.stats.squashed += buf.clear() as u64;
        }
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> FabricStats {
        self.stats
    }

    /// Finds the (lane, kind) whose head packet has the lowest seq among
    /// heads that have crossed the fabric's latency, excluding kinds
    /// flagged in `skip` (indexed by `PacketKind as usize`). Once the
    /// oldest packet of a kind is blocked, no younger packet of that kind
    /// may overtake it — F2's ordering FSMs (§III-B), and on AXI the one
    /// master port the commit lanes are serialised through. Per-lane
    /// FIFOs plus this rule give a per-kind total order at every
    /// destination.
    fn lowest_head(&self, now: u64, skip: [bool; 2]) -> Option<(usize, PacketKind)> {
        let latency = self.kind.latency();
        let mut best: Option<(u64, usize, PacketKind)> = None;
        for (lane, buf) in self.buffers.iter().enumerate() {
            for kind in [PacketKind::Runtime, PacketKind::Status] {
                if skip[kind as usize] {
                    continue;
                }
                if let Some(p) = buf.head(kind) {
                    if p.created_at + latency <= now && best.is_none_or(|(s, _, _)| p.seq < s) {
                        best = Some((p.seq, lane, kind));
                    }
                }
            }
        }
        best.map(|(_, lane, kind)| (lane, kind))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_default_zero() {
        let s = FabricStats::default();
        assert_eq!(s.pushed, 0);
        assert_eq!(s.delivered, 0);
    }
}

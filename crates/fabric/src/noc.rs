//! F2: the Half-duplex Multicast NoC (paper §III-B).
//!
//! A 256-bit, 1-to-N Manhattan-grid network that transmits up to two
//! packets per big-core cycle while preserving per-destination order, and
//! selectively broadcasts status data to every little core that can
//! currently receive it (eliminating the duplicated SRCP/ERCP transfers
//! a unicast bus would perform).

use crate::{Fabric, FabricKind, PacketSink};

impl Fabric {
    /// One F2 cycle: up to [`FabricKind::F2_PACKETS_PER_CYCLE`] packets,
    /// oldest eligible head first, each multicast to every destination
    /// that can accept it.
    ///
    /// Generic over the sink type, but kept out of line, one call per
    /// cycle, as the per-kind trait object kept it before the fabric was
    /// closed. Letting both loops inline into the system's per-cycle
    /// tick grows the hottest function and bought nothing: 30
    /// alternating pairs of `meek-difftest --cases 150 --threads 1` on a
    /// 2-vCPU x86-64 VM differed by under 1 %, inside the run-to-run
    /// noise.
    #[inline(never)]
    pub(crate) fn tick_f2<S: PacketSink>(&mut self, now: u64, sinks: &mut [S]) {
        let mut budget = FabricKind::F2_PACKETS_PER_CYCLE;
        let mut skip = [false; 2];
        let mut moved = false;
        let mut saw_blocked = false;
        while budget > 0 {
            let Some((lane, kind)) = self.lowest_head(now, skip) else {
                break;
            };
            let head = self.buffers[lane].head(kind).expect("head exists");
            // Selective broadcast: deliver to every targeted core that can
            // accept this cycle.
            let mut ready = 0u16;
            for c in head.dest.iter() {
                if c < sinks.len() && sinks[c].can_accept(kind) {
                    ready |= 1 << c;
                }
            }
            if ready == 0 {
                // Forwarding backpressure: the oldest packet of this kind
                // cannot move, so the whole kind stalls this cycle
                // (younger packets must not overtake it at a shared
                // destination).
                skip[kind as usize] = true;
                saw_blocked = true;
                continue;
            }
            let mut pkt = self.buffers[lane].pop(kind).expect("head exists");
            let reached = u64::from(ready.count_ones());
            loop {
                let c = ready.trailing_zeros() as usize;
                ready &= ready - 1;
                pkt.dest.remove(c);
                if ready != 0 {
                    sinks[c].deliver(pkt.clone(), now);
                    continue;
                }
                if pkt.dest.is_empty() {
                    // The last reachable destination takes the packet by
                    // move — sinks never read the dest mask.
                    sinks[c].deliver(pkt, now);
                } else {
                    sinks[c].deliver(pkt.clone(), now);
                    // Some destinations were full: the packet stays at
                    // the head of its FIFO for the remaining
                    // destinations, and younger packets of this kind
                    // must wait behind it.
                    self.buffers[lane].push_front(kind, pkt);
                    skip[kind as usize] = true;
                }
                break;
            }
            self.stats.delivered += reached;
            self.stats.transactions += 1;
            self.stats.multicast_saved += reached - 1;
            moved = true;
            budget -= 1;
        }
        if moved {
            self.stats.busy_cycles += 1;
        }
        if saw_blocked {
            self.stats.blocked_cycles += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{DestMask, Packet, PacketKind, Payload};
    use crate::DcBufferConfig;

    /// Packets created at cycle 0 become eligible at the F2 latency, so
    /// the clocks start there.
    const L: u64 = FabricKind::F2.latency();

    fn f2() -> Fabric {
        Fabric::new(FabricKind::F2, 4, DcBufferConfig::default())
    }

    /// A test sink with per-kind capacity.
    #[derive(Debug, Default)]
    pub(crate) struct TestSink {
        pub runtime: Vec<Packet>,
        pub status: Vec<Packet>,
        pub runtime_cap: usize,
        pub status_cap: usize,
    }

    impl TestSink {
        pub(crate) fn unbounded() -> TestSink {
            TestSink { runtime_cap: usize::MAX, status_cap: usize::MAX, ..TestSink::default() }
        }
    }

    impl PacketSink for TestSink {
        fn can_accept(&self, kind: PacketKind) -> bool {
            match kind {
                PacketKind::Runtime => self.runtime.len() < self.runtime_cap,
                PacketKind::Status => self.status.len() < self.status_cap,
            }
        }

        fn deliver(&mut self, pkt: Packet, _now: u64) {
            match pkt.kind() {
                PacketKind::Runtime => self.runtime.push(pkt),
                PacketKind::Status => self.status.push(pkt),
            }
        }
    }

    fn mem_pkt(seq: u64, dest: DestMask) -> Packet {
        Packet {
            seq,
            dest,
            payload: Payload::Mem { seg: 0, addr: seq * 8, size: 8, data: seq, is_store: false },
            created_at: 0,
        }
    }

    fn status_pkt(seq: u64, dest: DestMask) -> Packet {
        Packet {
            seq,
            dest,
            payload: Payload::RcpChunk { seg: 1, chunk: 0, total: 1 },
            created_at: 0,
        }
    }

    fn run_ticks(f2: &mut Fabric, sinks: &mut [TestSink], from: u64, to: u64) {
        for now in from..to {
            f2.tick(now, sinks);
        }
    }

    #[test]
    fn bandwidth_two_packets_per_cycle() {
        let mut f2 = f2();
        for i in 0..6 {
            f2.try_push((i % 4) as usize, mem_pkt(i, DestMask::single(0))).unwrap();
        }
        let mut sinks = vec![TestSink::unbounded()];
        run_ticks(&mut f2, &mut sinks, L, L + 1);
        assert_eq!(sinks[0].runtime.len(), 2, "exactly 2 packets per cycle");
        run_ticks(&mut f2, &mut sinks, L + 1, L + 3);
        assert_eq!(sinks[0].runtime.len(), 6);
        assert!(f2.is_empty());
    }

    #[test]
    fn per_destination_order_preserved() {
        let mut f2 = f2();
        // Spread seq 0..8 across lanes out of lane order.
        for (lane, seq) in [(3usize, 0u64), (1, 1), (0, 2), (2, 3), (1, 4), (3, 5), (0, 6), (2, 7)]
        {
            f2.try_push(lane, mem_pkt(seq, DestMask::single(0))).unwrap();
        }
        let mut sinks = vec![TestSink::unbounded()];
        run_ticks(&mut f2, &mut sinks, L, L + 10);
        let seqs: Vec<u64> = sinks[0].runtime.iter().map(|p| p.seq).collect();
        assert_eq!(seqs, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn multicast_counts_one_transaction() {
        let mut f2 = f2();
        f2.try_push(0, status_pkt(0, DestMask::single(0).with(1))).unwrap();
        let mut sinks = vec![TestSink::unbounded(), TestSink::unbounded()];
        run_ticks(&mut f2, &mut sinks, L, L + 2);
        assert_eq!(sinks[0].status.len(), 1);
        assert_eq!(sinks[1].status.len(), 1);
        let s = f2.stats();
        assert_eq!(s.transactions, 1);
        assert_eq!(s.delivered, 2);
        assert_eq!(s.multicast_saved, 1);
    }

    #[test]
    fn partial_multicast_waits_for_full_sink() {
        let mut f2 = f2();
        f2.try_push(0, status_pkt(0, DestMask::single(0).with(1))).unwrap();
        let mut sinks = vec![
            TestSink::unbounded(),
            TestSink { status_cap: 0, runtime_cap: usize::MAX, ..TestSink::default() },
        ];
        run_ticks(&mut f2, &mut sinks, L, L + 2);
        assert_eq!(sinks[0].status.len(), 1, "ready sink served immediately");
        assert_eq!(sinks[1].status.len(), 0);
        assert!(!f2.is_empty(), "packet still queued for the full sink");
        // Open up the second sink.
        sinks[1].status_cap = 10;
        run_ticks(&mut f2, &mut sinks, L + 2, L + 4);
        assert_eq!(sinks[1].status.len(), 1);
        assert_eq!(sinks[0].status.len(), 1, "no duplicate delivery");
        assert!(f2.is_empty());
    }

    #[test]
    fn hop_latency_delays_eligibility() {
        let mut f2 = f2();
        f2.try_push(0, mem_pkt(0, DestMask::single(0))).unwrap();
        let mut sinks = vec![TestSink::unbounded()];
        run_ticks(&mut f2, &mut sinks, 0, L);
        assert!(sinks[0].runtime.is_empty());
        run_ticks(&mut f2, &mut sinks, L, L + 1);
        assert_eq!(sinks[0].runtime.len(), 1);
    }

    #[test]
    fn blocked_cycles_counted() {
        let mut f2 = f2();
        f2.try_push(0, mem_pkt(0, DestMask::single(0))).unwrap();
        let mut sinks = vec![TestSink { runtime_cap: 0, status_cap: 0, ..TestSink::default() }];
        run_ticks(&mut f2, &mut sinks, L, L + 3);
        assert_eq!(f2.stats().blocked_cycles, 3);
        assert_eq!(f2.stats().delivered, 0);
    }

    #[test]
    fn runtime_not_blocked_by_stuck_status() {
        // Head-of-line blocking across kinds must not occur: the dual
        // FIFOs exist precisely to let runtime flow while status waits.
        let mut f2 = f2();
        f2.try_push(0, status_pkt(0, DestMask::single(0))).unwrap();
        f2.try_push(0, mem_pkt(1, DestMask::single(0))).unwrap();
        let mut sinks = vec![TestSink { runtime_cap: 8, status_cap: 0, ..TestSink::default() }];
        run_ticks(&mut f2, &mut sinks, L, L + 1);
        assert_eq!(sinks[0].runtime.len(), 1);
        assert_eq!(sinks[0].status.len(), 0);
    }
}

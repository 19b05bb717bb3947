//! The AXI-Interconnect baseline of Fig. 9.
//!
//! A full-featured but generic interconnect: a single 128-bit shared bus
//! that arbitrates round-robin among the commit paths' DC-Buffers and
//! moves **one packet per little-core cycle** (the little domain runs at
//! half the big core's frequency, so one packet every two big cycles).
//! There is no multicast: status data needed by two little cores is sent
//! twice. The paper measures this design costing 16.7% geomean slowdown
//! on PARSEC versus F2's <5%.

use crate::{Fabric, FabricKind, PacketSink};

impl Fabric {
    /// One AXI cycle: on a beat boundary, the oldest eligible head moves
    /// to one destination that can accept it.
    ///
    /// Kept out of line for the reason given on `tick_f2`.
    #[inline(never)]
    pub(crate) fn tick_axi<S: PacketSink>(&mut self, now: u64, sinks: &mut [S]) {
        // One beat per `AXI_CYCLES_PER_BEAT` big-core cycles.
        if !now.is_multiple_of(FabricKind::AXI_CYCLES_PER_BEAT) {
            return;
        }
        let mut skip = [false; 2];
        let mut saw_blocked = false;
        while let Some((lane, kind)) = self.lowest_head(now, skip) {
            let head = self.buffers[lane].head(kind).expect("head exists");
            // Unicast: serve one targeted core that can accept.
            let Some(core) =
                head.dest.iter().find(|&c| c < sinks.len() && sinks[c].can_accept(kind))
            else {
                // The oldest packet of this kind is blocked: stall the
                // kind so younger packets cannot overtake it.
                skip[kind as usize] = true;
                saw_blocked = true;
                continue;
            };
            let mut pkt = self.buffers[lane].pop(kind).expect("head exists");
            pkt.dest.remove(core);
            if pkt.dest.is_empty() {
                // Sole destination takes the packet by move — sinks
                // never read the dest mask.
                sinks[core].deliver(pkt, now);
            } else {
                sinks[core].deliver(pkt.clone(), now);
                // Remaining destinations need their own bus beats.
                self.buffers[lane].push_front(kind, pkt);
            }
            self.stats.delivered += 1;
            self.stats.transactions += 1;
            self.stats.busy_cycles += 1;
            if saw_blocked {
                self.stats.blocked_cycles += 1;
            }
            return; // one packet per beat
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

    /// Packets created at cycle 0 become eligible at the AXI latency, so
    /// the clocks start there (a beat boundary: the latency is even).
    const L: u64 = FabricKind::Axi.latency();

    fn axi() -> Fabric {
        Fabric::new(FabricKind::Axi, 4, DcBufferConfig::default())
    }

    #[derive(Debug, Default)]
    struct Sink {
        got: Vec<Packet>,
        cap: usize,
    }

    impl PacketSink for Sink {
        fn can_accept(&self, _kind: PacketKind) -> bool {
            self.got.len() < self.cap
        }

        fn deliver(&mut self, pkt: Packet, _now: u64) {
            self.got.push(pkt);
        }
    }

    fn mem_pkt(seq: u64, dest: DestMask) -> Packet {
        Packet {
            seq,
            dest,
            payload: Payload::Mem { seg: 0, addr: seq, size: 8, data: seq, is_store: true },
            created_at: 0,
        }
    }

    fn status_pkt(seq: u64, dest: DestMask) -> Packet {
        Packet {
            seq,
            dest,
            payload: Payload::RcpChunk { seg: 0, chunk: 0, total: 1 },
            created_at: 0,
        }
    }

    fn run(axi: &mut Fabric, sinks: &mut [Sink], from: u64, to: u64) {
        for now in from..to {
            axi.tick(now, sinks);
        }
    }

    #[test]
    fn one_packet_per_two_cycles() {
        let mut axi = axi();
        for i in 0..4 {
            axi.try_push(0, mem_pkt(i, DestMask::single(0))).unwrap();
        }
        let mut sinks = vec![Sink { cap: usize::MAX, ..Sink::default() }];
        run(&mut axi, &mut sinks, L, L + 4);
        assert_eq!(sinks[0].got.len(), 2, "one beat per 2 big cycles");
        run(&mut axi, &mut sinks, L + 4, L + 8);
        assert_eq!(sinks[0].got.len(), 4);
    }

    #[test]
    fn multicast_requires_two_beats() {
        let mut axi = axi();
        axi.try_push(0, status_pkt(0, DestMask::single(0).with(1))).unwrap();
        let mut sinks = vec![
            Sink { cap: usize::MAX, ..Sink::default() },
            Sink { cap: usize::MAX, ..Sink::default() },
        ];
        run(&mut axi, &mut sinks, L, L + 2);
        assert_eq!(sinks[0].got.len() + sinks[1].got.len(), 1, "first beat");
        run(&mut axi, &mut sinks, L + 2, L + 4);
        assert_eq!(sinks[0].got.len(), 1);
        assert_eq!(sinks[1].got.len(), 1);
        assert_eq!(axi.stats().transactions, 2, "no multicast on AXI");
        assert_eq!(axi.stats().multicast_saved, 0);
    }

    #[test]
    fn round_robin_serves_all_lanes() {
        let mut axi = axi();
        for lane in 0..4 {
            axi.try_push(lane, mem_pkt(lane as u64, DestMask::single(0))).unwrap();
        }
        let mut sinks = vec![Sink { cap: usize::MAX, ..Sink::default() }];
        run(&mut axi, &mut sinks, L, L + 8);
        assert_eq!(sinks[0].got.len(), 4);
        assert!(axi.is_empty());
    }

    #[test]
    fn blocked_when_sink_full() {
        let mut axi = axi();
        axi.try_push(0, mem_pkt(0, DestMask::single(0))).unwrap();
        let mut sinks = vec![Sink { cap: 0, ..Sink::default() }];
        run(&mut axi, &mut sinks, L, L + 6);
        assert_eq!(axi.stats().delivered, 0);
        assert!(axi.stats().blocked_cycles >= 3);
    }

    #[test]
    fn bus_latency_gates_first_beat() {
        let mut axi = axi();
        axi.try_push(0, mem_pkt(0, DestMask::single(0))).unwrap();
        let mut sinks = vec![Sink { cap: usize::MAX, ..Sink::default() }];
        run(&mut axi, &mut sinks, 0, L);
        assert!(sinks[0].got.is_empty());
        run(&mut axi, &mut sinks, L, L + 2);
        assert_eq!(sinks[0].got.len(), 1);
    }
}

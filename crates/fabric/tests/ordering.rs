//! Property tests: both interconnects must deliver every packet exactly
//! once per destination and preserve per-destination, per-kind order —
//! the correctness contract replay depends on.

use meek_fabric::{
    DcBufferConfig, DestMask, Fabric, FabricKind, Packet, PacketKind, PacketSink, Payload,
};
use proptest::prelude::*;

#[derive(Debug, Default)]
struct RecordingSink {
    got: Vec<(u64, PacketKind)>,
    runtime_cap: usize,
    status_cap: usize,
    runtime_in: usize,
    status_in: usize,
}

impl PacketSink for RecordingSink {
    fn can_accept(&self, kind: PacketKind) -> bool {
        match kind {
            PacketKind::Runtime => self.runtime_in < self.runtime_cap,
            PacketKind::Status => self.status_in < self.status_cap,
        }
    }

    fn deliver(&mut self, pkt: Packet, _now: u64) {
        match pkt.kind() {
            PacketKind::Runtime => self.runtime_in += 1,
            PacketKind::Status => self.status_in += 1,
        }
        self.got.push((pkt.seq, pkt.kind()));
    }
}

impl RecordingSink {
    fn drain_some(&mut self, n: usize) {
        // Model the little core consuming log entries.
        self.runtime_in = self.runtime_in.saturating_sub(n);
        self.status_in = self.status_in.saturating_sub(n);
    }
}

#[derive(Debug, Clone)]
struct PacketPlan {
    kind_status: bool,
    dests: Vec<usize>,
    lane: usize,
}

fn plan_strategy() -> impl Strategy<Value = Vec<PacketPlan>> {
    prop::collection::vec(
        (any::<bool>(), prop::collection::btree_set(0usize..4, 1..=2), 0usize..4).prop_map(
            |(kind_status, dests, lane)| PacketPlan {
                kind_status,
                dests: dests.into_iter().collect(),
                lane,
            },
        ),
        1..120,
    )
}

fn fabric(kind: FabricKind) -> Fabric {
    Fabric::new(kind, 4, DcBufferConfig::default())
}

fn run_fabric(mut fabric: Fabric, plans: &[PacketPlan], tight_sinks: bool) -> Vec<RecordingSink> {
    let cap = if tight_sinks { 3 } else { usize::MAX };
    let mut sinks: Vec<RecordingSink> = (0..4)
        .map(|_| RecordingSink { runtime_cap: cap, status_cap: cap, ..RecordingSink::default() })
        .collect();
    let mut now = 0u64;
    let mut queue: Vec<Packet> = plans
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let mut dest = DestMask::default();
            for &d in &p.dests {
                dest = dest.with(d);
            }
            Packet {
                seq: i as u64,
                dest,
                payload: if p.kind_status {
                    Payload::RcpChunk { seg: 1, chunk: 0, total: 1 }
                } else {
                    Payload::Mem { seg: 1, addr: i as u64 * 8, size: 8, data: 0, is_store: false }
                },
                created_at: 0,
            }
        })
        .collect();
    queue.reverse();
    let mut pending: Option<(usize, Packet)> = None;
    loop {
        // Push as many packets as the DC-Buffers accept.
        loop {
            let (lane, pkt) = match pending.take() {
                Some(x) => x,
                None => match queue.pop() {
                    Some(p) => {
                        let lane = plans[p.seq as usize].lane;
                        (lane, p)
                    }
                    None => break,
                },
            };
            match fabric.try_push(lane, pkt) {
                Ok(()) => {}
                Err(p) => {
                    pending = Some((lane, p));
                    break;
                }
            }
        }
        fabric.tick(now, &mut sinks);
        if tight_sinks && now.is_multiple_of(3) {
            for s in &mut sinks {
                s.drain_some(2);
            }
        }
        now += 1;
        if pending.is_none() && queue.is_empty() && fabric.is_empty() {
            break;
        }
        assert!(now < 1_000_000, "fabric failed to drain");
    }
    sinks
}

fn check_delivery(plans: &[PacketPlan], sinks: &[RecordingSink]) {
    // Exactly-once delivery per destination.
    for (i, p) in plans.iter().enumerate() {
        for &d in &p.dests {
            let n = sinks[d].got.iter().filter(|(seq, _)| *seq == i as u64).count();
            assert_eq!(n, 1, "packet {i} delivered {n} times to dest {d}");
        }
    }
    // Per-destination, per-kind order.
    for sink in sinks {
        for kind in [PacketKind::Runtime, PacketKind::Status] {
            let seqs: Vec<u64> =
                sink.got.iter().filter(|(_, k)| *k == kind).map(|(s, _)| *s).collect();
            let mut sorted = seqs.clone();
            sorted.sort_unstable();
            assert_eq!(seqs, sorted, "out-of-order {kind:?} delivery");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn f2_delivers_exactly_once_in_order(plans in plan_strategy(), tight in any::<bool>()) {
        let sinks = run_fabric(fabric(FabricKind::F2), &plans, tight);
        check_delivery(&plans, &sinks);
    }

    #[test]
    fn axi_delivers_exactly_once_in_order(plans in plan_strategy(), tight in any::<bool>()) {
        let sinks = run_fabric(fabric(FabricKind::Axi), &plans, tight);
        check_delivery(&plans, &sinks);
    }

    #[test]
    fn f2_multicast_saves_transactions(n in 1usize..40) {
        let plans: Vec<PacketPlan> = (0..n)
            .map(|i| PacketPlan { kind_status: true, dests: vec![0, 1], lane: i % 4 })
            .collect();
        let mut fabric = fabric(FabricKind::F2);
        let sinks = {
            let mut sinks: Vec<RecordingSink> = (0..4)
                .map(|_| RecordingSink { runtime_cap: usize::MAX, status_cap: usize::MAX, ..RecordingSink::default() })
                .collect();
            let mut now = 0;
            for (i, p) in plans.iter().enumerate() {
                let mut dest = DestMask::default();
                for &d in &p.dests { dest = dest.with(d); }
                let pkt = Packet { seq: i as u64, dest, payload: Payload::RcpChunk { seg: 1, chunk: 0, total: 1 }, created_at: 0 };
                while fabric.try_push(p.lane, pkt.clone()).is_err() {
                    fabric.tick(now, &mut sinks);
                    now += 1;
                }
            }
            while !fabric.is_empty() {
                fabric.tick(now, &mut sinks);
                now += 1;
            }
            sinks
        };
        check_delivery(&plans, &sinks);
        let stats = fabric.stats();
        prop_assert_eq!(stats.transactions, n as u64, "one transaction per 2-dest multicast");
        prop_assert_eq!(stats.multicast_saved, n as u64, "each multicast saves one transaction");
    }
}

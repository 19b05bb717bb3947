//! Criterion micro-benchmarks for the forwarding fabrics: F2 vs the
//! AXI-Interconnect moving the same packet mix (the Fig. 9 substrate).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use meek_fabric::{
    DcBufferConfig, DestMask, Fabric, FabricKind, Packet, PacketKind, PacketSink, Payload,
};

struct NullSink;

impl PacketSink for NullSink {
    fn can_accept(&self, _kind: PacketKind) -> bool {
        true
    }

    fn deliver(&mut self, _pkt: Packet, _now: u64) {}
}

fn packets(n: u64) -> Vec<Packet> {
    (0..n)
        .map(|seq| Packet {
            seq,
            dest: DestMask::single((seq % 4) as usize),
            payload: Payload::Mem {
                seg: 1,
                addr: 0x1000_0000 + seq * 8,
                size: 8,
                data: seq,
                is_store: seq % 3 == 0,
            },
            created_at: 0,
        })
        .collect()
}

fn drive(kind: FabricKind, pkts: &[Packet]) -> u64 {
    let mut fabric = Fabric::new(kind, 4, DcBufferConfig::default());
    let mut sinks = [NullSink, NullSink, NullSink, NullSink];
    let mut now = 0u64;
    let mut it = pkts.iter().cloned();
    let mut next = it.next();
    loop {
        while let Some(p) = next.take() {
            match fabric.try_push((p.seq % 4) as usize, p) {
                Ok(()) => next = it.next(),
                Err(p) => {
                    next = Some(p);
                    break;
                }
            }
        }
        fabric.tick(now, &mut sinks);
        now += 1;
        if next.is_none() && fabric.is_empty() {
            return now;
        }
    }
}

fn bench_fabrics(c: &mut Criterion) {
    let pkts = packets(2_000);
    let mut g = c.benchmark_group("fabric");
    g.throughput(Throughput::Elements(pkts.len() as u64));
    g.bench_function("f2_route_2k_packets", |b| b.iter(|| drive(FabricKind::F2, &pkts)));
    g.bench_function("axi_route_2k_packets", |b| b.iter(|| drive(FabricKind::Axi, &pkts)));
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_fabrics
}
criterion_main!(benches);

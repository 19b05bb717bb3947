//! Micro-benchmarks for the big-core timing model: how many simulated
//! instructions per second the vanilla core sustains, and the TAGE
//! predictor's update rate.

use criterion::{Criterion, Throughput};
use meek_bigcore::{BigCoreConfig, Tage, TageConfig};
use meek_core::run_vanilla;
use meek_workloads::{parsec3, Workload};

fn bench_bigcore(c: &mut Criterion) {
    let wl = Workload::build(&parsec3()[0], 1);
    const N: u64 = 20_000;
    let mut g = c.benchmark_group("cores");
    g.throughput(Throughput::Elements(N));
    g.bench_function("bigcore_sim_20k_insts", |b| {
        b.iter(|| run_vanilla(&BigCoreConfig::sonic_boom(), &wl, N))
    });
    g.finish();
}

fn bench_tage(c: &mut Criterion) {
    let mut g = c.benchmark_group("cores");
    const N: u64 = 100_000;
    g.throughput(Throughput::Elements(N));
    g.bench_function("tage_predict_update", |b| {
        b.iter(|| {
            let mut t = Tage::new(TageConfig::default());
            let mut x = 0x1234_5678u64;
            for i in 0..N {
                let pc = 0x1000 + (i % 257) * 4;
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let taken = x & 3 != 0;
                let p = t.predict(pc);
                t.update(pc, taken, p);
            }
            t.mispredicts
        })
    });
    g.finish();
}

/// Runs the whole suite.
pub fn all(c: &mut Criterion) {
    bench_bigcore(c);
    bench_tage(c);
}

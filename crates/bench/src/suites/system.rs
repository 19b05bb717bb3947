//! Benchmark of the full MEEK SoC simulation rate — the cost of
//! regenerating the paper's figures — and of building one SoC.

use criterion::{Criterion, Throughput};
use meek_core::Sim;
use meek_workloads::{parsec3, Workload};

fn bench_system(c: &mut Criterion) {
    let wl = Workload::build(&parsec3()[0], 1);
    const N: u64 = 10_000;
    let mut g = c.benchmark_group("system");
    g.throughput(Throughput::Elements(N));
    g.bench_function("meek_4core_10k_insts", |b| {
        b.iter(|| Sim::builder(&wl, N).build_unobserved().expect("valid").run().report.cycles)
    });
    g.bench_function("meek_2core_10k_insts", |b| {
        b.iter(|| {
            Sim::builder(&wl, N)
                .little_cores(2)
                .build_unobserved()
                .expect("valid")
                .run()
                .report
                .cycles
        })
    });
    // Construction alone, on a short run: the fixed cost every difftest
    // case and classified fault pays before its first cycle.
    g.throughput(Throughput::Elements(1));
    g.bench_function("build_4core", |b| {
        b.iter(|| Sim::builder(&wl, 1_000).little_cores(4).build_unobserved().expect("valid"))
    });
    g.finish();
}

/// Runs the whole suite.
pub fn all(c: &mut Criterion) {
    bench_system(c);
}

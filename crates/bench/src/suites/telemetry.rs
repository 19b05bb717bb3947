//! Benchmark of the telemetry layer: the same 10k-instruction system
//! run with the [`MetricsObserver`] attached versus fully unobserved —
//! the pair that keeps the observer's cost honest and pins the
//! `NoObserver` hot path the difftest case-rate gate rides on.

use criterion::{Criterion, Throughput};
use meek_core::Sim;
use meek_telemetry::MetricsObserver;
use meek_workloads::{parsec3, Workload};

fn bench_metrics_observer(c: &mut Criterion) {
    let wl = Workload::build(&parsec3()[0], 1);
    const N: u64 = 10_000;
    let mut g = c.benchmark_group("telemetry");
    g.throughput(Throughput::Elements(N));
    g.bench_function("unobserved_run", |b| {
        b.iter(|| Sim::builder(&wl, N).build_unobserved().expect("valid").run().report.cycles)
    });
    g.bench_function("metrics_observer_overhead", |b| {
        b.iter(|| {
            let mut m = MetricsObserver::new(64);
            Sim::builder(&wl, N).observe(&mut m).build().expect("valid").run().report.cycles
        })
    });
    g.finish();
}

/// Runs the whole suite.
pub fn all(c: &mut Criterion) {
    bench_metrics_observer(c);
}

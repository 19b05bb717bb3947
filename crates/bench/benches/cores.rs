//! `cargo bench` harness for the cores suite; the bodies live in
//! [`meek_bench::suites::cores`] so `meek-bench-export` can run them
//! in-process for the committed perf baseline.

use criterion::{criterion_group, criterion_main, Criterion};

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(15);
    targets = meek_bench::suites::cores::all
}
criterion_main!(benches);

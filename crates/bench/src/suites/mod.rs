//! The criterion benchmark suites, as library code.
//!
//! Each suite exposes `all(&mut Criterion)` running its benchmarks, so
//! the same bodies serve two callers: the `cargo bench` harnesses under
//! `benches/` (thin wrappers), and `meek-bench-export`, which runs the
//! baseline suites **in-process**, collects the shim's
//! [`criterion::BenchResult`]s, and emits / checks the committed
//! `BENCH_baseline.json` perf trajectory.

pub mod analyze;
pub mod campaign;
pub mod cores;
pub mod difftest;
pub mod fuzz;
pub mod progs;
pub mod recover;
pub mod system;
pub mod telemetry;

/// One suite runner: fills the passed harness with its benchmarks.
pub type SuiteFn = fn(&mut criterion::Criterion);

/// The suites the committed perf baseline covers, by stable name.
pub const BASELINE_SUITES: [(&str, SuiteFn); 9] = [
    ("system", system::all),
    ("cores", cores::all),
    ("telemetry", telemetry::all),
    ("recover", recover::all),
    ("difftest", difftest::all),
    ("fuzz", fuzz::all),
    ("progs", progs::all),
    ("campaign", campaign::all),
    ("analyze", analyze::all),
];

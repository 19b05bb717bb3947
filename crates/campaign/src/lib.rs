//! **meek-campaign** — a sharded, deterministic, multi-threaded
//! fault-injection campaign engine for the MEEK simulator.
//!
//! The paper's coverage and detection-latency results (§V-B, Fig. 7)
//! come from campaigns of 5 000–10 000 injected faults per workload.
//! Running those serially is the harness bottleneck, not the simulator:
//! every fault is an independent simulation. This crate turns a
//! campaign into a grid of self-contained *shards* (workload ×
//! fault-batch), runs them on a work-stealing thread pool, and hands
//! each shard's [`ShardResult`] (its [`DetectionRecord`]s, counters and
//! optional trace, samples and metrics) to one caller closure, where the
//! shard renders itself. Three properties the serial loops never had:
//!
//! * **Determinism**: per-shard RNG streams are derived from the
//!   campaign seed, and results are re-sequenced into shard order
//!   before the caller sees them, so output is byte-identical at
//!   `--threads 1` and `--threads 16`.
//! * **Build sharing**: workload programs are synthesised once per
//!   benchmark in a [`WorkloadCache`] and shared by `Arc`, so codegen
//!   cost is O(benchmarks) instead of O(faults).
//! * **Streaming**: the caller gets each shard's result as soon as the
//!   ordered prefix completes, not at campaign end.
//!
//! # Quickstart
//!
//! ```
//! use meek_campaign::{run_campaign, CampaignSpec, Executor};
//! use meek_workloads::parsec3;
//!
//! let mut spec = CampaignSpec::new(vec![parsec3()[0].clone()], 4, 0xF00D);
//! spec.faults_per_shard = 2;
//! let mut csv = Vec::new();
//! let summary = run_campaign(&spec, &Executor::new(2), |shard| {
//!     // The header leads the first row of the file.
//!     let header = csv.is_empty();
//!     shard.write_records_csv(&mut csv, header)
//! })
//! .unwrap();
//! let total = &summary.overall.counts;
//! assert_eq!(total.detected + total.masked as usize + total.pending, 4);
//! let rows = String::from_utf8(csv).unwrap().lines().count();
//! assert_eq!(rows, if total.detected > 0 { total.detected + 1 } else { 0 });
//! ```
//!
//! A [`CampaignJob`] is the campaign as its front ends name it: the
//! `meek-campaign` binary reads one from its flags, `meek-serve` from a
//! job's JSON, and [`CampaignJob::to_spec`] expands it. [`cli`] is the
//! flag reader and exit-code rule every MEEK command line shares:
//!
//! ```text
//! cargo run --release -p meek-campaign -- --suite specint --faults 1000 --threads 8
//! ```
//!
//! [`DetectionRecord`]: meek_core::fault::DetectionRecord
//! [`WorkloadCache`]: meek_workloads::WorkloadCache

pub mod cli;
pub mod engine;
pub mod executor;
pub mod job;
pub mod seed;
pub mod sink;
pub mod spec;

pub use engine::{run_campaign, run_shard, CampaignSummary};
pub use executor::Executor;
pub use job::CampaignJob;
pub use seed::{fnv1a, parse_seed, splitmix};
pub use sink::{CampaignRecord, LatencyStats, ShardResult, ShardSummary};
#[doc(hidden)]
pub use sink::{CsvSink, RecordSink};
pub use spec::{resolve_suite, CampaignSpec, CampaignWorkload, ShardSpec};

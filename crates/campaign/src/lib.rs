//! **meek-campaign** — a sharded, deterministic, multi-threaded
//! fault-injection campaign engine for the MEEK simulator.
//!
//! The paper's coverage and detection-latency results (§V-B, Fig. 7)
//! come from campaigns of 5 000–10 000 injected faults per workload.
//! Running those serially is the harness bottleneck, not the simulator:
//! every fault is an independent simulation. This crate turns a
//! campaign into a grid of self-contained *shards* (workload ×
//! fault-batch), runs them on a work-stealing thread pool, and streams
//! the resulting [`DetectionRecord`]s through pluggable sinks — with
//! three properties the serial loops never had:
//!
//! * **Determinism**: per-shard RNG streams are derived from the
//!   campaign seed, and results are re-sequenced into shard order
//!   before they reach a sink, so output is byte-identical at
//!   `--threads 1` and `--threads 16`.
//! * **Build sharing**: workload programs are synthesised once per
//!   benchmark in a [`WorkloadCache`] and shared by `Arc`, so codegen
//!   cost is O(benchmarks) instead of O(faults).
//! * **Streaming**: sinks see each shard's records as soon as the
//!   ordered prefix completes, not at campaign end.
//!
//! # Quickstart
//!
//! ```
//! use meek_campaign::{run_campaign, AggregateSink, CampaignSpec, Executor, RecordSink};
//! use meek_workloads::parsec3;
//!
//! let mut spec = CampaignSpec::new(vec![parsec3()[0].clone()], 4, 0xF00D);
//! spec.faults_per_shard = 2;
//! let mut agg = AggregateSink::new();
//! let summary = {
//!     let mut sinks: Vec<&mut dyn RecordSink> = vec![&mut agg];
//!     run_campaign(&spec, &Executor::new(2), &mut sinks).unwrap()
//! };
//! assert_eq!(summary.detected + summary.masked as usize + summary.pending, 4);
//! ```
//!
//! The `meek-campaign` binary wraps this as a CLI:
//!
//! ```text
//! cargo run --release -p meek-campaign -- --suite specint --faults 1000 --threads 8
//! ```
//!
//! [`DetectionRecord`]: meek_core::fault::DetectionRecord
//! [`WorkloadCache`]: meek_workloads::WorkloadCache

pub mod engine;
pub mod executor;
pub mod seed;
pub mod sink;
pub mod spec;

pub use engine::{run_campaign, run_shard, CampaignSummary, ShardResult};
pub use executor::Executor;
pub use seed::{fnv1a, parse_seed, splitmix};
pub use sink::{
    AggregateSink, CampaignRecord, CsvSink, JsonlSink, LatencyStats, MetricsSink, RecordSink,
    SampleSink, ShardSummary, TraceSink,
};
pub use spec::{resolve_suite, CampaignSpec, CampaignWorkload, ShardSpec};

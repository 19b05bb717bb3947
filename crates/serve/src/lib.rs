//! **meek-serve** — a long-running job daemon for the MEEK harness:
//! campaigns, difftests and fuzz runs as *jobs* on a shared worker
//! pool, with streaming results, resumable checkpoints, and a live
//! metrics feed.
//!
//! The batch CLIs (`meek-campaign`, `meek-difftest`, `meek-fuzz`) run
//! one workload to completion in the foreground. The paper-scale
//! experiments — thousands of faults per workload across suites — are
//! hours of machine time, and a single process that dies at 95 % takes
//! everything with it. `meek-serve` closes the ROADMAP's
//! campaign-as-a-service item:
//!
//! * **Jobs over a socket**: clients submit typed [`proto::JobSpec`]s
//!   (campaign / difftest / fuzz) as one-line JSON frames over a Unix
//!   or TCP socket, with per-job priorities and cancellation. A job is
//!   the same value its batch CLI parses from flags — [`CampaignJob`],
//!   [`DifftestJob`], or [`FuzzSettings`] plus a chunk grain, each
//!   defined and validated in the crate that runs it; [`proto`] is the
//!   wire format only, each frame a [`json::Json`] value from
//!   `meek-telemetry` (re-exported here as [`json`]).
//! * **One shared pool**: every job's units (campaign shards, difftest
//!   case batches, fuzz chunks) drain through a single priority
//!   work-stealing pool ([`sched`]), so a quick high-priority difftest
//!   overtakes a week-long campaign without a second daemon.
//! * **Streaming, deterministic output**: units are re-sequenced into
//!   deterministic order and appended to per-job spool files through
//!   the very sinks the batch CLIs use — a socket-submitted campaign's
//!   `records.csv` is **byte-identical** to `meek-campaign`'s at any
//!   worker count, which the e2e tests assert.
//! * **Resumable checkpoints**: after every unit the job's watermark,
//!   output byte offsets and counters are committed atomically
//!   ([`spool`]); a restarted daemon truncates un-checkpointed bytes
//!   and resumes mid-job — still byte-identical, even across a
//!   `kill -9` (the CI smoke does exactly that).
//! * **Live metrics**: a `metrics` request streams JSON snapshots of
//!   pool occupancy and per-job throughput; `tail` follows any output
//!   channel (records / trace / samples / results) from any offset.
//!
//! # In-process quickstart
//!
//! ```
//! use meek_serve::daemon::{Daemon, ServeConfig};
//! use meek_serve::proto::{CampaignJob, JobSpec, JobState};
//! use std::time::Duration;
//!
//! let spool = std::env::temp_dir().join(format!("meek-serve-doc-{}", std::process::id()));
//! let daemon = Daemon::start(ServeConfig::new(&spool)).unwrap();
//! let job = JobSpec::Campaign(CampaignJob {
//!     suite: "mcf".into(),
//!     faults: 4,
//!     shard_faults: 2,
//!     ..CampaignJob::default()
//! });
//! let id = daemon.submit(job, 0).unwrap();
//! let status = daemon.wait(id, Duration::from_secs(120)).unwrap();
//! assert_eq!(status.state, JobState::Done);
//! assert_eq!(status.counters["faults"], 4);
//! assert!(daemon.job_dir(id).join("records.csv").exists());
//! # std::fs::remove_dir_all(&spool).unwrap();
//! ```
//!
//! The `meek-serve` binary fronts this as a daemon plus client
//! subcommands (`serve`, `submit`, `status`, `cancel`, `tail`,
//! `metrics`, `shutdown`).

pub mod client;
pub mod daemon;
pub mod jobs;
pub mod proto;
pub mod sched;
pub mod spool;

/// The workspace's JSON reader and writer, re-exported for the
/// benchmark crate's `meek_serve::json::Json`.
pub use meek_telemetry::json;

pub use client::{request, stream_request, Endpoint};
pub use daemon::{Daemon, ServeConfig};
pub use proto::{
    CampaignJob, Channel, DifftestJob, FuzzSettings, JobSpec, JobState, JobStatus, Request,
};
pub use sched::{Pool, PoolHandle};
pub use spool::{JobProgress, Spool};

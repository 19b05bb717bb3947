//! **MEEK** — *Make Each Error Count*: heterogeneous parallel error
//! detection for out-of-order superscalar processors.
//!
//! This crate is the paper's primary contribution: it assembles the big
//! core (`meek-bigcore`), the little checker cores (`meek-littlecore`),
//! and the forwarding fabric (`meek-fabric`) into a full error-detecting
//! SoC, and adds everything that lives *between* those components in the
//! paper:
//!
//! * the **DEU** ([`deu`]) — the commit-stage Data Extraction Unit,
//!   including the commit-order shadow register state it reads in place
//!   of the PRFs, run-time/status packet generation, RCP triggering
//!   (LSL-full / 5000-instruction timeout / kernel trap), and the LSQ
//!   parity double-check of footnote 2;
//! * **segmentation** ([`segments`]) — checker-thread scheduling of
//!   segments onto little cores (the OS's `b.hook`/`l.mode` management);
//! * the **OS model** ([`os`]) — Algorithms 1 and 2 (context switches and
//!   the checker-thread programming model) and the Fig. 5 page-fault
//!   deadlock with its one-instruction-behind fix;
//! * **fault injection** ([`fault`]) — bit flips in forwarded data, with
//!   detection-latency measurement (Fig. 7);
//! * the **system** ([`system`]) — the two-clock-domain simulation loop
//!   (3.2 GHz big domain, 1.6 GHz little domain) and run reports with the
//!   stall decomposition of Fig. 9.
//!
//! # Quickstart
//!
//! Every simulation is constructed through the typed, validating
//! [`sim::SimBuilder`] and run with [`sim::Sim::try_run`], which drains
//! it through [`sim::Sim::run_to_commit`], the one loop that ticks a
//! system. It yields a structured [`sim::RunOutcome`]
//! (report + final state + per-segment timeline), or
//! [`sim::RunError::Livelock`] if the system fails to drain within its
//! derived cycle bound. [`sim::Sim::run`] panics with that error's text
//! instead, for callers to whom a livelock is a simulator bug.
//! Instrumentation attaches as [`sim::Observer`]s, which receive every
//! [`sim::SimEvent`] instead of polling debug strings. The caller owns
//! the observer and the run borrows it:
//!
//! ```
//! use meek_core::sim::{Sim, TraceLog};
//! use meek_workloads::{parsec3, Workload};
//!
//! let profile = &parsec3()[0]; // blackscholes
//! let wl = Workload::build(profile, 1);
//! let mut trace = TraceLog::new(0);
//! let outcome = Sim::builder(&wl, 20_000)
//!     .little_cores(4)
//!     .observe(&mut trace)
//!     .build()
//!     .expect("a valid configuration")
//!     .try_run()
//!     .expect("the system drains");
//! assert_eq!(outcome.report.failed_segments, 0, "clean run must verify");
//! assert!(outcome.report.verified_segments > 0);
//! // The timeline and the event trace expose what the run actually did.
//! assert_eq!(outcome.timeline.len() as u64, outcome.report.verified_segments);
//! let closed = trace.snapshot().into_iter().filter(|e| e.name() == "segment_closed").count();
//! assert_eq!(closed as u64, outcome.report.verified_segments);
//! ```
//!
//! Faults, recovery policies and fabric choices compose on the same
//! builder — see [`sim`] for the full scenario-matrix surface.
//!
//! This crate writes no JSON: exporting a run is `meek-telemetry`'s
//! job (`JsonlEventSink`, `MetricsObserver`), next to the one JSON
//! writer every tool renders through.

pub mod deu;
pub mod fault;
pub mod os;
pub mod report;
pub mod segments;
pub mod sim;
pub mod system;

pub use deu::{DeuHook, DeuState, BIG_CORE_NS_PER_CYCLE};
pub use fault::{
    random_fault_specs, rcp_register_index, CorruptedField, DetectionRecord, FaultSite, FaultSpec,
    MaskRecord,
};
pub use meek_recover::{RecoveryPolicy, RecoveryReport};
pub use report::{RunReport, StallBreakdown};
pub use segments::SegmentManager;
pub use sim::{
    validate_config, BuildError, NoObserver, Observer, ObserverSet, RunError, RunOutcome,
    SampleRow, SamplingObserver, SegmentSpan, Sim, SimBuilder, SimEvent, TickSample, TraceLog,
};
pub use system::{cycle_cap, run_vanilla, FabricKind, MeekConfig, MeekSystem};

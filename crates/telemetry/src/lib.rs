//! **meek-telemetry** — the observability and export layer of the MEEK
//! reproduction: a deterministic metrics registry plus a host-time
//! span profiler, the [`Observer`](meek_core::sim::Observer)s that
//! export live runs ([`MetricsObserver`] feeds the registry,
//! [`JsonlEventSink`] writes the event stream), and the workspace's one
//! JSON reader and writer ([`json`]): every JSON line the tools emit is
//! a [`Json`] value rendered by [`Json::render`].
//!
//! Two strictly separated time domains:
//!
//! * **Sim domain** ([`Registry`], [`MetricsObserver`]) — counters,
//!   gauges and log2-bucket histograms over cycles/commits/counts.
//!   Integer-only, no wall-clock, rendered as stable text
//!   ([`Registry::render`]) and merged in deterministic order
//!   ([`Registry::merge`]) — so `meek-campaign --metrics` output is
//!   byte-identical at any `--threads`, like every other campaign
//!   artifact.
//! * **Host domain** ([`prof`]) — an explicitly enabled span profiler
//!   (`meek-difftest --prof`) measuring where the *harness* spends
//!   wall-clock time, exported as chrome://tracing JSON. Host timings
//!   never enter a [`Registry`].
//!
//! The [`Registry::render_prom`] Prometheus text exposition serves
//! scrape-style consumers (`meek-serve metrics --prom`).

pub mod json;
pub mod observer;
pub mod prof;
pub mod registry;

pub use json::Json;
pub use observer::{event_json, JsonlEventSink, MetricsObserver};
pub use registry::{bucket, bucket_bound, Hist, Registry, BUCKETS};

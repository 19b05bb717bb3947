//! The host-time span profiler.
//!
//! A process-global, explicitly enabled recorder of named spans —
//! `let _s = prof::span("golden_run");` costs one relaxed atomic load
//! when profiling is off, so instrumentation can stay in release hot
//! paths. Spans carry **host** wall-clock durations (`Instant`), which
//! makes the output machine-dependent by design: this is the
//! self-profiling side of telemetry (where does `meek-difftest` spend
//! its time), strictly separated from the deterministic sim-domain
//! [`crate::Registry`]. Never fold span timings into sim metrics.
//!
//! [`chrome_trace`] renders collected spans in the Chrome tracing JSON
//! array format — load the file at `chrome://tracing` or
//! <https://ui.perfetto.dev>.

use crate::obj;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);
static EVENTS: Mutex<Vec<SpanEvent>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();
static NEXT_TID: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Small stable per-thread id (allocation order), used as the
    /// chrome-trace `tid` — thread names are not portable across runs.
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

/// Turns span recording on (idempotent). Spans entered before the call
/// are not recorded.
pub fn enable() {
    let _ = EPOCH.get_or_init(Instant::now);
    ENABLED.store(true, Ordering::Release);
}

/// Whether spans are currently being recorded.
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Acquire)
}

/// One completed span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanEvent {
    /// Static span name (phase label).
    pub name: &'static str,
    /// Recording thread's stable id.
    pub tid: u64,
    /// Microseconds since [`enable`].
    pub start_us: u64,
    /// Span duration in microseconds.
    pub dur_us: u64,
}

/// An in-flight span: records itself on drop. Returned by [`span`];
/// hold it for the extent of the phase (`let _s = prof::span(...)`).
#[must_use = "a span records on drop; binding it to _ ends it immediately"]
pub struct Span {
    name: &'static str,
    start: Option<Instant>,
}

/// Opens a span named `name`. When profiling is disabled this is one
/// atomic load and the guard is inert.
pub fn span(name: &'static str) -> Span {
    Span { name, start: is_enabled().then(Instant::now) }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        let Some(epoch) = EPOCH.get() else { return };
        let start_us = start.duration_since(*epoch).as_micros() as u64;
        let dur_us = start.elapsed().as_micros() as u64;
        let ev = SpanEvent { name: self.name, tid: TID.with(|t| *t), start_us, dur_us };
        EVENTS.lock().expect("profiler event lock").push(ev);
    }
}

/// Drains every recorded span, sorted by start time (ties by thread
/// then name) so the output order does not depend on lock arrival
/// order.
pub fn take() -> Vec<SpanEvent> {
    let mut evs = std::mem::take(&mut *EVENTS.lock().expect("profiler event lock"));
    evs.sort_by(|a, b| (a.start_us, a.tid, a.name).cmp(&(b.start_us, b.tid, b.name)));
    evs
}

/// Renders spans as a Chrome tracing JSON document (complete `"X"`
/// events, microsecond timestamps, one `tid` row per worker thread),
/// one event per line.
pub fn chrome_trace(events: &[SpanEvent]) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    for (i, ev) in events.iter().enumerate() {
        let line = obj! {
            "name": ev.name, "ph": "X", "pid": 0u64, "tid": ev.tid, "ts": ev.start_us,
            "dur": ev.dur_us,
        };
        out.push_str(&line.render());
        out.push_str(if i + 1 == events.len() { "\n" } else { ",\n" });
    }
    out.push_str("]}\n");
    out
}

/// Aggregates spans into `(name, total_us, count)` rows, sorted by
/// total time descending (ties by name) — the "where did the time go"
/// table printed alongside a trace.
pub fn summary(events: &[SpanEvent]) -> Vec<(&'static str, u64, u64)> {
    let mut totals: std::collections::BTreeMap<&'static str, (u64, u64)> =
        std::collections::BTreeMap::new();
    for ev in events {
        let e = totals.entry(ev.name).or_insert((0, 0));
        e.0 += ev.dur_us;
        e.1 += 1;
    }
    let mut rows: Vec<(&'static str, u64, u64)> =
        totals.into_iter().map(|(n, (t, c))| (n, t, c)).collect();
    rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    // One test drives the whole lifecycle: the recorder is process
    // global, so independent #[test] fns would race each other's
    // enable/take.
    #[test]
    fn spans_record_only_when_enabled_and_render_as_chrome_trace() {
        {
            let _off = span("before_enable");
        }
        enable();
        assert!(is_enabled());
        {
            let _a = span("outer");
            let _b = span("inner");
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let evs = take();
        assert!(evs.iter().all(|e| e.name != "before_enable"));
        assert_eq!(evs.len(), 2);
        assert!(evs.iter().any(|e| e.name == "outer" && e.dur_us >= 1000));
        let json = chrome_trace(&evs);
        assert!(json.starts_with("{\"traceEvents\":[\n"));
        assert!(json.trim_end().ends_with("]}"));
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 2);
        assert!(!json.contains("}\n{\""), "events are comma-separated");
        let rows = summary(&evs);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].2, 1);
        assert!(take().is_empty(), "take drains");
    }
}

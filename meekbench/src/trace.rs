//! Host-time spans for the traced run.
//!
//! The benchmark wraps every public call its timed loop makes in a
//! span, tagged with the unit (case or shard) it belongs to. The
//! program's own `meek_telemetry::prof` spans (`golden_run`,
//! `lockstep_replay`, `system_check`, …) are switched on for the same
//! phase and nested under the benchmark's spans by time containment, so
//! a call's self time splits off its children without any span being
//! added inside the program.

use meek_telemetry::prof;
use std::cmp::Reverse;
use std::time::Instant;

/// One completed span. Times are nanoseconds since tracing began.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// What was called.
    pub name: &'static str,
    /// The case or shard the call served.
    pub unit: u64,
    /// Start time.
    pub start_ns: u64,
    /// End time.
    pub end_ns: u64,
    /// Index of the innermost span containing this one.
    pub parent: Option<usize>,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans around calls when on; a no-op pass-through when off.
/// On or off, it notes when each unit starts, for the loop's pace.
pub struct Tracer {
    on: bool,
    t0: Instant,
    unit: u64,
    spans: Vec<Span>,
    unit_starts_s: Vec<f64>,
}

impl Tracer {
    fn new(on: bool) -> Tracer {
        Tracer { on, t0: Instant::now(), unit: 0, spans: Vec::new(), unit_starts_s: Vec::new() }
    }

    /// A tracer that records no spans (the untraced run).
    pub fn off() -> Tracer {
        Tracer::new(false)
    }

    /// A recording tracer. Also switches the program's profiler on; its
    /// clock starts at the same instant as ours, to within its
    /// microsecond resolution.
    pub fn on() -> Tracer {
        prof::enable();
        Tracer::new(true)
    }

    /// Starts unit `id`: notes the time, and tags the spans that follow.
    pub fn unit(&mut self, id: u64) {
        self.unit = id;
        self.unit_starts_s.push(self.elapsed_s());
    }

    /// Seconds since the tracer was made.
    pub fn elapsed_s(&self) -> f64 {
        self.t0.elapsed().as_secs_f64()
    }

    /// When each unit started, in seconds since the tracer was made.
    pub fn unit_starts_s(&self) -> &[f64] {
        &self.unit_starts_s
    }

    /// Runs `f`, recording it as a span named `name` when tracing.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let start_ns = self.t0.elapsed().as_nanos() as u64;
        let out = f();
        let end_ns = self.t0.elapsed().as_nanos() as u64;
        self.spans.push(Span { name, unit: self.unit, start_ns, end_ns, parent: None });
        out
    }

    /// Ends tracing: collects the program's spans and nests them.
    pub fn finish(self) -> Trace {
        let program = prof::take()
            .into_iter()
            .map(|ev| Span {
                name: ev.name,
                unit: 0,
                start_ns: ev.start_us * 1000,
                end_ns: (ev.start_us + ev.dur_us) * 1000,
                parent: None,
            })
            .collect();
        Trace { spans: nest(self.spans, program) }
    }
}

/// Joins the benchmark's spans (`outer`: sequential, never nested in
/// each other) with the program's (`inner`: recorded inside them) into
/// one list in which every inner span points at the innermost span
/// containing it and carries that span's unit.
pub fn nest(outer: Vec<Span>, mut inner: Vec<Span>) -> Vec<Span> {
    let mut spans = outer;
    spans.sort_by_key(|s| s.start_ns);
    let n_outer = spans.len();
    inner.sort_by_key(|s| (s.start_ns, Reverse(s.end_ns)));
    let mut stack: Vec<usize> = Vec::new();
    for mut s in inner {
        while let Some(&top) = stack.last() {
            if spans[top].start_ns <= s.start_ns && s.end_ns <= spans[top].end_ns {
                break;
            }
            stack.pop();
        }
        s.parent = match stack.last() {
            Some(&p) => Some(p),
            // An outermost program span belongs to the benchmark span
            // that was open at its midpoint. Program times are truncated
            // to whole microseconds, so the midpoint (not the edges) is
            // what reliably falls inside.
            None => {
                let mid = (s.start_ns + s.end_ns) / 2 + 500;
                spans[..n_outer].partition_point(|o| o.start_ns <= mid).checked_sub(1)
            }
        };
        if let Some(p) = s.parent {
            s.unit = spans[p].unit;
        }
        stack.push(spans.len());
        spans.push(s);
    }
    spans
}

/// The spans of one traced phase.
pub struct Trace {
    spans: Vec<Span>,
}

impl Trace {
    /// Durations (ns) of the spans named `name`, in call order.
    pub fn durations_ns(&self, name: &str) -> Vec<u64> {
        self.spans.iter().filter(|s| s.name == name).map(Span::dur_ns).collect()
    }

    /// Total time (ns) inside spans named `name`, children included.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.durations_ns(name).iter().sum()
    }

    /// Total self time (ns) of spans named `name`: their duration minus
    /// the part their direct children cover.
    pub fn self_ns(&self, name: &str) -> u64 {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        self.spans
            .iter()
            .zip(&child_ns)
            .filter(|(s, _)| s.name == name)
            .map(|(s, &c)| s.dur_ns().saturating_sub(c))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, unit: u64, start_ns: u64, end_ns: u64) -> Span {
        Span { name, unit, start_ns, end_ns, parent: None }
    }

    #[test]
    fn program_spans_nest_under_the_call_that_contains_them() {
        let outer = vec![span("cosim", 0, 1_000, 90_000), span("classify", 0, 91_000, 99_000)];
        // The program's clock reads whole microseconds.
        let inner = vec![
            span("golden_run", 0, 1_000, 11_000),
            span("system_check", 0, 30_000, 89_000),
            span("sim_build", 0, 30_000, 40_000),
        ];
        let spans = nest(outer, inner);
        let parent_of = |name: &str| {
            let s = spans.iter().find(|s| s.name == name).unwrap();
            s.parent.map(|p| spans[p].name)
        };
        assert_eq!(parent_of("cosim"), None);
        assert_eq!(parent_of("classify"), None);
        assert_eq!(parent_of("golden_run"), Some("cosim"));
        assert_eq!(parent_of("system_check"), Some("cosim"));
        assert_eq!(parent_of("sim_build"), Some("system_check"));
        let t = Trace { spans };
        // cosim's self time excludes its direct children only.
        assert_eq!(t.self_ns("cosim"), 89_000 - 10_000 - 59_000);
        assert_eq!(t.self_ns("system_check"), 59_000 - 10_000);
        assert_eq!(t.total_ns("cosim"), 89_000);
    }

    #[test]
    fn program_spans_take_the_unit_of_their_call() {
        let outer = vec![span("cosim", 0, 0, 10_000), span("cosim", 1, 12_345, 30_000)];
        // Truncated to the microsecond, this span appears to start
        // before its call did; its midpoint still places it.
        let inner = vec![span("golden_run", 0, 12_000, 20_000)];
        let spans = nest(outer, inner);
        let g = spans.iter().find(|s| s.name == "golden_run").unwrap();
        assert_eq!(g.unit, 1);
        assert_eq!(spans[g.parent.unwrap()].unit, 1);
    }

    #[test]
    fn tracer_off_records_nothing() {
        let mut t = Tracer::off();
        assert_eq!(t.span("x", || 7), 7);
        assert!(t.spans.is_empty());
    }
}

//! The deterministic metrics registry.
//!
//! Counters, gauges and fixed log2-bucket histograms keyed by name.
//! Everything is integer arithmetic over [`BTreeMap`]s: rendering a
//! registry and merging two registries are order-independent of *how*
//! the values were produced, so metrics collected across worker threads
//! and merged in a deterministic order (e.g. campaign shard order) are
//! byte-identical at any `--threads`.
//! No wall-clock anywhere — sim-domain metrics count cycles and
//! commits; host time lives in [`crate::prof`] only.
//!
//! Keys are plain identifiers with an optional brace-enclosed label
//! list: `detection_latency_cycles{site=mem_data}`. The label syntax is
//! carried through the text format verbatim and re-quoted as Prometheus
//! labels by [`Registry::render_prom`].

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Number of log2 histogram buckets: [`bucket`] maps a `u64` into
/// `0..=64`.
pub const BUCKETS: usize = 65;

/// The log2 bucket index of `x`: 0 for 0, else `64 - leading_zeros`.
/// Bucket `b >= 1` holds values in `[2^(b-1), 2^b)`; the same idiom the
/// fuzzer's coverage features use, so distributions bucket identically
/// across the two systems.
pub fn bucket(x: u64) -> u32 {
    64 - x.leading_zeros()
}

/// The largest value falling into bucket `b` (inclusive upper bound):
/// 0 for bucket 0, else `2^b - 1` (saturating at `u64::MAX`).
pub fn bucket_bound(b: u32) -> u64 {
    match b {
        0 => 0,
        64.. => u64::MAX,
        _ => (1u64 << b) - 1,
    }
}

/// A fixed-shape log2 histogram: total count, total sum, and one
/// counter per [`bucket`] index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hist {
    /// Observations recorded.
    pub count: u64,
    /// Sum of all observed values (saturating).
    pub sum: u64,
    /// Per-bucket observation counts, indexed by [`bucket`].
    pub buckets: [u64; BUCKETS],
}

impl Default for Hist {
    fn default() -> Hist {
        Hist { count: 0, sum: 0, buckets: [0; BUCKETS] }
    }
}

impl Hist {
    /// Records one observation.
    pub fn observe(&mut self, value: u64) {
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.buckets[bucket(value) as usize] += 1;
    }

    /// Adds another histogram's observations into this one.
    pub fn merge(&mut self, other: &Hist) {
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        for (b, n) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += n;
        }
    }

    /// The inclusive upper bound of the bucket containing the `q`-th
    /// quantile observation (`q` in `[0, 1]`), by cumulative rank over
    /// the bucket counts. 0 on an empty histogram. Because the buckets
    /// are log2, this is an upper estimate with at most 2× resolution —
    /// the trade that keeps the registry integer-only and mergeable.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        #[allow(clippy::cast_precision_loss, clippy::cast_possible_truncation)]
        #[allow(clippy::cast_sign_loss)]
        let rank = ((self.count as f64 * q).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (b, n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                #[allow(clippy::cast_possible_truncation)]
                return bucket_bound(b as u32);
            }
        }
        u64::MAX
    }

    /// The inclusive upper bound of the highest non-empty bucket (0 on
    /// an empty histogram).
    pub fn max_bound(&self) -> u64 {
        self.buckets.iter().enumerate().rev().find(|(_, n)| **n > 0).map_or(0, |(b, _)| {
            #[allow(clippy::cast_possible_truncation)]
            bucket_bound(b as u32)
        })
    }
}

/// A named collection of counters, gauges and histograms with a
/// stable text form. See the module docs for the determinism contract.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Registry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, i64>,
    hists: BTreeMap<String, Hist>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.hists.is_empty()
    }

    /// Adds `delta` to counter `key` (created at 0).
    pub fn inc(&mut self, key: impl Into<String>, delta: u64) {
        *self.counters.entry(key.into()).or_insert(0) += delta;
    }

    /// Sets gauge `key` to `value`.
    pub fn gauge_set(&mut self, key: impl Into<String>, value: i64) {
        self.gauges.insert(key.into(), value);
    }

    /// Records one observation into histogram `key`.
    pub fn observe(&mut self, key: impl Into<String>, value: u64) {
        self.hists.entry(key.into()).or_default().observe(value);
    }

    /// Current value of counter `key` (0 if absent).
    pub fn counter(&self, key: &str) -> u64 {
        self.counters.get(key).copied().unwrap_or(0)
    }

    /// Current value of gauge `key` (0 if absent).
    pub fn gauge(&self, key: &str) -> i64 {
        self.gauges.get(key).copied().unwrap_or(0)
    }

    /// Histogram `key`, if any observation was recorded.
    pub fn hist(&self, key: &str) -> Option<&Hist> {
        self.hists.get(key)
    }

    /// All counters in key order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// All histograms in key order.
    pub fn hists(&self) -> impl Iterator<Item = (&str, &Hist)> {
        self.hists.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Folds `other` into this registry: counters and histograms add,
    /// gauges take the maximum (a deterministic resolution for
    /// point-in-time values merged across shards).
    pub fn merge(&mut self, other: &Registry) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.gauges {
            let g = self.gauges.entry(k.clone()).or_insert(i64::MIN);
            *g = (*g).max(*v);
        }
        for (k, h) in &other.hists {
            self.hists.entry(k.clone()).or_default().merge(h);
        }
    }

    /// Renders the registry as stable text, one metric per line, keys
    /// sorted within each section:
    ///
    /// ```text
    /// counter faults_detected{site=mem_data} 12
    /// gauge workers 4
    /// hist detection_latency_cycles count=12 sum=512 b4=3 b6=9
    /// ```
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (k, v) in &self.counters {
            let _ = writeln!(out, "counter {k} {v}");
        }
        for (k, v) in &self.gauges {
            let _ = writeln!(out, "gauge {k} {v}");
        }
        for (k, h) in &self.hists {
            let _ = write!(out, "hist {k} count={} sum={}", h.count, h.sum);
            for (b, n) in h.buckets.iter().enumerate() {
                if *n > 0 {
                    let _ = write!(out, " b{b}={n}");
                }
            }
            out.push('\n');
        }
        out
    }

    /// Renders the registry in the Prometheus text exposition format,
    /// every metric name prefixed with `prefix` (e.g. `meek_`).
    /// Histograms become cumulative `_bucket{le=...}` series (upper
    /// bounds from [`bucket_bound`], `+Inf` included) plus `_sum` and
    /// `_count`; a key's `{label=value}` suffix is re-quoted as
    /// Prometheus labels.
    pub fn render_prom(&self, prefix: &str) -> String {
        let mut out = String::new();
        let mut typed: std::collections::BTreeSet<String> = std::collections::BTreeSet::new();
        let mut type_line = |out: &mut String, base: &str, kind: &str| {
            if typed.insert(base.to_string()) {
                let _ = writeln!(out, "# TYPE {base} {kind}");
            }
        };
        for (k, v) in &self.counters {
            let (base, labels) = prom_key(prefix, k);
            type_line(&mut out, &base, "counter");
            let _ = writeln!(out, "{base}{labels} {v}");
        }
        for (k, v) in &self.gauges {
            let (base, labels) = prom_key(prefix, k);
            type_line(&mut out, &base, "gauge");
            let _ = writeln!(out, "{base}{labels} {v}");
        }
        for (k, h) in &self.hists {
            let (base, labels) = prom_key(prefix, k);
            type_line(&mut out, &base, "histogram");
            let inner = labels.trim_start_matches('{').trim_end_matches('}');
            let with = |extra: &str| {
                if inner.is_empty() {
                    format!("{{{extra}}}")
                } else {
                    format!("{{{inner},{extra}}}")
                }
            };
            let mut cum = 0u64;
            for (b, n) in h.buckets.iter().enumerate() {
                if *n == 0 {
                    continue;
                }
                cum += n;
                #[allow(clippy::cast_possible_truncation)]
                let le = bucket_bound(b as u32);
                let _ = writeln!(out, "{base}_bucket{} {cum}", with(&format!("le=\"{le}\"")));
            }
            let _ = writeln!(out, "{base}_bucket{} {}", with("le=\"+Inf\""), h.count);
            let _ = writeln!(out, "{base}_sum{labels} {}", h.sum);
            let _ = writeln!(out, "{base}_count{labels} {}", h.count);
        }
        out
    }
}

/// Splits a registry key into a prefixed, sanitised Prometheus metric
/// name and a rendered label set (`{k="v"}` or empty).
fn prom_key(prefix: &str, key: &str) -> (String, String) {
    let (base, labels) = match key.split_once('{') {
        Some((b, rest)) => (b, rest.trim_end_matches('}')),
        None => (key, ""),
    };
    let sanitize = |s: &str| -> String {
        s.chars().map(|c| if c.is_ascii_alphanumeric() || c == '_' { c } else { '_' }).collect()
    };
    let base = format!("{prefix}{}", sanitize(base));
    if labels.is_empty() {
        return (base, String::new());
    }
    let rendered: Vec<String> = labels
        .split(',')
        .map(|pair| match pair.split_once('=') {
            Some((k, v)) => format!("{}=\"{}\"", sanitize(k), v),
            None => format!("label=\"{pair}\""),
        })
        .collect();
    (base, format!("{{{}}}", rendered.join(",")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_exact_powers_of_two() {
        // The log2 bucketing contract, pinned value by value at every
        // boundary: 0 is its own bucket, and bucket b >= 1 holds
        // [2^(b-1), 2^b).
        assert_eq!(bucket(0), 0);
        assert_eq!(bucket(1), 1);
        assert_eq!(bucket(2), 2);
        assert_eq!(bucket(3), 2);
        assert_eq!(bucket(4), 3);
        assert_eq!(bucket(255), 8);
        assert_eq!(bucket(256), 9);
        assert_eq!(bucket(u64::MAX), 64);
        for b in 1..64 {
            let lo = 1u64 << (b - 1);
            assert_eq!(bucket(lo), b, "lower edge of bucket {b}");
            assert_eq!(bucket(lo * 2 - 1), b, "upper edge of bucket {b}");
            assert_eq!(bucket_bound(b), lo * 2 - 1);
        }
        assert_eq!(bucket_bound(0), 0);
        assert_eq!(bucket_bound(64), u64::MAX);
    }

    #[test]
    fn quantiles_walk_the_cumulative_counts() {
        let mut h = Hist::default();
        for v in [1u64, 1, 2, 3, 100, 200] {
            h.observe(v);
        }
        assert_eq!(h.count, 6);
        assert_eq!(h.sum, 307);
        // ranks: q=0.5 -> 3rd obs (value 2, bucket 2, bound 3).
        assert_eq!(h.quantile(0.5), 3);
        assert_eq!(h.quantile(0.0), bucket_bound(bucket(1)));
        assert_eq!(h.quantile(1.0), bucket_bound(bucket(200)));
        assert_eq!(h.max_bound(), bucket_bound(bucket(200)));
        assert_eq!(Hist::default().quantile(0.99), 0);
    }

    #[test]
    fn merge_adds_counters_and_hists_and_keeps_the_highest_gauge() {
        let mut a = Registry::new();
        a.inc("faults{site=mem_data}", 3);
        a.gauge_set("workers", 4);
        a.observe("latency", 10);
        a.observe("latency", 1000);
        let mut b = Registry::new();
        b.inc("faults{site=mem_data}", 2);
        b.inc("faults{site=rcp_register}", 1);
        b.gauge_set("workers", 2);
        b.observe("latency", 10);

        let mut m = a.clone();
        m.merge(&b);
        assert_eq!(m.counter("faults{site=mem_data}"), 5);
        assert_eq!(m.counter("faults{site=rcp_register}"), 1);
        assert_eq!(m.gauge("workers"), 4, "gauges merge by max");
        assert_eq!(m.hist("latency").unwrap().count, 3);
        let before = m.clone();
        m.merge(&Registry::new());
        assert_eq!(m, before, "merging an empty registry changes nothing");
        assert_eq!(
            m.render(),
            "counter faults{site=mem_data} 5\ncounter faults{site=rcp_register} 1\n\
             gauge workers 4\nhist latency count=3 sum=1020 b4=2 b10=1\n"
        );
    }

    #[test]
    fn prom_rendering_is_cumulative_and_labelled() {
        let mut r = Registry::new();
        r.inc("verdicts{kind=pass}", 7);
        r.observe("lat{site=mem_data}", 3);
        r.observe("lat{site=mem_data}", 300);
        let prom = r.render_prom("meek_");
        assert!(prom.contains("# TYPE meek_verdicts counter"));
        assert!(prom.contains("meek_verdicts{kind=\"pass\"} 7"));
        assert!(prom.contains("# TYPE meek_lat histogram"));
        assert!(prom.contains("meek_lat_bucket{site=\"mem_data\",le=\"3\"} 1"));
        assert!(prom.contains("meek_lat_bucket{site=\"mem_data\",le=\"511\"} 2"));
        assert!(prom.contains("meek_lat_bucket{site=\"mem_data\",le=\"+Inf\"} 2"));
        assert!(prom.contains("meek_lat_sum{site=\"mem_data\"} 303"));
        assert!(prom.contains("meek_lat_count{site=\"mem_data\"} 2"));
    }
}

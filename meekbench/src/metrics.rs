//! The metric catalogue and the result line.
//!
//! `BENCHMARK.json` at the repository root declares the same names and
//! units; a unit test keeps the two in step.

use crate::stats::{valid_name, valid_unit};
use meek_serve::json::Json;
use std::collections::BTreeMap;

/// End-to-end metrics, printed by every untraced run (`--trace 0`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("faults_per_s", "faults/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("detected_frac", "ratio"),
    ("detect_latency_ns_p50", "ns"),
    ("detect_latency_ns_p99", "ns"),
    ("sim_ipc", "insts/cycle"),
];

/// End-to-end metrics in simulated terms: identical for a given seed.
pub const SIM_METRICS: &[&str] =
    &["detected_frac", "detect_latency_ns_p50", "detect_latency_ns_p99", "sim_ipc"];

/// Per-layer metrics, printed by every traced run (`--trace 1`). A
/// layer a workload does not exercise reads 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("difftest.cosim_share", "ratio"),
    ("difftest.classify_share", "ratio"),
    ("difftest.classify_us_p50", "us"),
    ("difftest.classify_us_p99", "us"),
    ("difftest.masked_proved", "count"),
    ("difftest.input_us", "us"),
    ("isa.golden_share", "ratio"),
    ("isa.golden_minsts_per_s", "Minsts/s"),
    ("littlecore.replay_share", "ratio"),
    ("littlecore.replay_minsts_per_s", "Minsts/s"),
    ("littlecore.wait_data_cycles", "cycles"),
    ("core.system_check_share", "ratio"),
    ("core.build_us", "us"),
    ("core.run_minsts_per_s", "Minsts/s"),
    ("core.sim_cycles", "cycles"),
    ("core.fault_prefix_frac", "ratio"),
    ("core.meek_stall_frac", "ratio"),
    ("bigcore.vanilla_minsts_per_s", "Minsts/s"),
    ("fabric.delivered", "count"),
    ("fabric.blocked_cycles", "cycles"),
    ("recover.verify_share", "ratio"),
    ("recover.verify_ms_p50", "ms"),
    ("recover.rollbacks", "count"),
    ("recover.worst_cycles", "cycles"),
    ("campaign.shard_ms_p50", "ms"),
    ("campaign.shard_ms_p90", "ms"),
    ("campaign.sink_share", "ratio"),
    ("workloads.build_ms", "ms"),
    ("progs.build_ms", "ms"),
    ("trace_overhead", "ratio"),
];

/// Metric values by name, as one run measured them.
pub type Values = BTreeMap<&'static str, f64>;

/// Renders the result line: `catalogue` order, each value with its
/// unit. With `fill_zero`, catalogue metrics missing from `values` read
/// 0 (a layer the workload does not exercise); without it they are left
/// out (a percentile with too few samples beyond it).
///
/// # Errors
///
/// A value not in the catalogue, a bad name or unit, or a value that is
/// not finite.
pub fn result_line(
    catalogue: &[(&'static str, &'static str)],
    values: &Values,
    fill_zero: bool,
    attempted: u64,
    failed: u64,
) -> Result<String, String> {
    if let Some(stray) = values.keys().find(|k| !catalogue.iter().any(|(n, _)| n == *k)) {
        return Err(format!("metric `{stray}` is not in the catalogue"));
    }
    let mut metrics = Vec::new();
    for &(name, unit) in catalogue {
        if !valid_name(name) || !valid_unit(unit) {
            return Err(format!("invalid metric name or unit: `{name}` in `{unit}`"));
        }
        let value = match values.get(name) {
            Some(&v) => v,
            None if fill_zero => 0.0,
            None => continue,
        };
        if !value.is_finite() {
            return Err(format!("metric `{name}` is not finite: {value}"));
        }
        let entry = Json::Obj(vec![
            ("value".into(), Json::Num(format!("{value}"))),
            ("unit".into(), Json::Str(unit.into())),
        ]);
        metrics.push((name.to_string(), entry));
    }
    let line = Json::Obj(vec![
        ("correct".into(), Json::Bool(true)),
        ("attempted".into(), Json::Num(attempted.to_string())),
        ("failed".into(), Json::Num(failed.to_string())),
        ("metrics".into(), Json::Obj(metrics)),
    ]);
    Ok(line.render())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn declared(key: &str) -> Vec<(String, String)> {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        doc.get(key)
            .and_then(Json::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                let s = |k| m.get(k).and_then(Json::as_str).expect("name and unit").to_string();
                (s("name"), s("unit"))
            })
            .collect()
    }

    fn ours(catalogue: &[(&str, &str)]) -> Vec<(String, String)> {
        catalogue.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        assert_eq!(declared("end_to_end"), ours(END_TO_END));
        assert_eq!(declared("per_layer"), ours(PER_LAYER));
        for name in SIM_METRICS {
            assert!(END_TO_END.iter().any(|(n, _)| n == name), "{name}");
        }
    }

    #[test]
    fn result_line_keeps_every_digit_and_the_catalogue_order() {
        let values = Values::from([("setup_s", 0.812_734_5), ("faults_per_s", 1234.5)]);
        let line = result_line(END_TO_END, &values, false, 10, 1).unwrap();
        assert_eq!(
            line,
            "{\"correct\":true,\"attempted\":10,\"failed\":1,\"metrics\":{\
             \"faults_per_s\":{\"value\":1234.5,\"unit\":\"faults/s\"},\
             \"setup_s\":{\"value\":0.8127345,\"unit\":\"s\"}}}"
        );
        let parsed = Json::parse(&line).unwrap();
        assert_eq!(parsed.get("metrics").and_then(Json::as_obj).map(<[_]>::len), Some(2));
    }

    #[test]
    fn missing_layers_read_zero_and_strays_are_refused() {
        let line = result_line(PER_LAYER, &Values::new(), true, 1, 0).unwrap();
        let parsed = Json::parse(&line).unwrap();
        assert_eq!(
            parsed.get("metrics").and_then(Json::as_obj).map(<[_]>::len),
            Some(PER_LAYER.len())
        );
        let stray = Values::from([("no_such_metric", 1.0)]);
        assert!(result_line(PER_LAYER, &stray, true, 1, 0).is_err());
        let nan = Values::from([("setup_s", f64::NAN)]);
        assert!(result_line(END_TO_END, &nan, false, 1, 0).is_err());
    }
}

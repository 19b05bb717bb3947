//! Steadiness mode: two alternating sets of runs of one workload.
//!
//! Each run is a fresh process of this binary. Run `i` of both sets
//! uses seed `i` (or, with `--held-out-seed`, every run uses that one
//! seed, so a claim can be rechecked on a seed nobody tuned against).
//! The sets alternate A, B, A, B, … so drift in host speed falls on
//! both alike. Per metric and set the report gives the median,
//! quartiles, min, max and spread (quartile distance over the median),
//! and how far set B's median moved from set A's. Simulated metrics
//! must repeat exactly between the two runs of a seed.

use crate::metrics::{END_TO_END, PER_LAYER, SIM_METRICS};
use crate::stats::quartiles;
use crate::{parse_flags, WORKLOADS};
use meek_serve::json::Json;
use std::collections::BTreeMap;
use std::process::{Command, Stdio};

/// Metric values of one run, by name.
type Run = BTreeMap<String, f64>;

fn parse_result(stdout: &str) -> Result<Run, String> {
    let last = stdout.lines().last().ok_or("run printed nothing")?;
    let doc = Json::parse(last).map_err(|e| format!("result line: {e}"))?;
    let metrics = doc.get("metrics").and_then(Json::as_obj).ok_or("result has no metrics")?;
    metrics
        .iter()
        .map(|(name, m)| {
            let v = m.get("value").and_then(Json::as_f64).ok_or(format!("{name} has no value"))?;
            Ok((name.clone(), v))
        })
        .collect()
}

fn one_run(workload: &str, seed: u64, seconds: u64, trace: bool) -> Result<Run, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
    let seed = seed.to_string();
    let seconds = seconds.to_string();
    let trace = if trace { "1" } else { "0" };
    let out = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed, "--seconds", &seconds, "--trace", trace])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start a run: {e}"))?;
    if !out.status.success() {
        return Err(format!("run with seed {seed} failed: {}", out.status));
    }
    parse_result(&String::from_utf8_lossy(&out.stdout))
}

/// `meekbench steady …`.
pub fn main(argv: &[String]) -> Result<(), String> {
    let flags =
        parse_flags(argv, &["--workload", "--runs", "--seconds", "--trace", "--held-out-seed"])?;
    let mut workload = None;
    let (mut runs, mut seconds, mut trace, mut held_out) = (10u64, 30u64, false, None);
    for (flag, v) in flags {
        let num = || v.parse::<u64>().map_err(|_| format!("{flag}: `{v}` is not a number"));
        match flag {
            "--workload" => workload = Some(v),
            "--runs" => runs = num()?,
            "--seconds" => seconds = num()?,
            "--trace" => trace = num()? == 1,
            _ => held_out = Some(num()?),
        }
    }
    let workload = workload
        .filter(|w| WORKLOADS.contains(w))
        .ok_or_else(|| format!("--workload must be one of {WORKLOADS:?}"))?;
    if runs < 2 {
        return Err("--runs must be at least 2 (quartiles need two runs per set)".into());
    }

    let mut sets: [Vec<Run>; 2] = [Vec::new(), Vec::new()];
    for i in 0..runs {
        let seed = held_out.unwrap_or(i);
        for (s, set) in sets.iter_mut().enumerate() {
            eprintln!("steady: {workload} set {} run {}/{runs} seed {seed}", ["A", "B"][s], i + 1);
            set.push(one_run(workload, seed, seconds, trace)?);
        }
    }

    let catalogue = if trace { PER_LAYER } else { END_TO_END };
    println!(
        "{workload}: {runs} runs per set, {seconds} s, trace {}, seeds {}",
        u8::from(trace),
        held_out.map_or(format!("0..{runs}"), |h| format!("{h} (held out)"))
    );
    println!(
        "{:<32} {:<11} {:>3} {:>14} {:>14} {:>14} {:>14} {:>14} {:>8} {:>8}",
        "metric", "unit", "set", "median", "q1", "q3", "min", "max", "spread", "shift"
    );
    let mut unsteady_sim = Vec::new();
    for &(name, unit) in catalogue {
        let values: Vec<Vec<f64>> = sets
            .iter()
            .map(|set| set.iter().filter_map(|run| run.get(name).copied()).collect())
            .collect();
        if values.iter().any(|v| v.len() < 2) {
            println!("{name:<32} {unit:<11} (missing from some runs)");
            continue;
        }
        let med_a = quartiles(&values[0]).1;
        for (s, v) in values.iter().enumerate() {
            let (q1, med, q3) = quartiles(v);
            let min = v.iter().copied().fold(f64::INFINITY, f64::min);
            let max = v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let spread = if med == 0.0 { 0.0 } else { (q3 - q1) / med };
            let shift = if s == 0 || med_a == 0.0 {
                String::new()
            } else {
                format!("{:+.4}", med / med_a - 1.0)
            };
            println!(
                "{name:<32} {unit:<11} {:>3} {med:>14.6} {q1:>14.6} {q3:>14.6} {min:>14.6} \
                 {max:>14.6} {spread:>8.4} {shift:>8}",
                ["A", "B"][s]
            );
        }
        if SIM_METRICS.contains(&name)
            && sets[0].iter().zip(&sets[1]).any(|(a, b)| a.get(name) != b.get(name))
        {
            unsteady_sim.push(name);
        }
    }
    if unsteady_sim.is_empty() {
        println!("simulated metrics repeat exactly for every seed");
        Ok(())
    } else {
        Err(format!("simulated metrics differ between runs of one seed: {unsteady_sim:?}"))
    }
}

//! `meekbench` — the MEEK simulator's benchmark, end to end and per
//! layer.
//!
//! ```text
//! meekbench --workload difftest-fuzz --seed 3 --seconds 30 --trace 0
//! meekbench steady --workload progs-recover --runs 10 --seconds 30
//! ```
//!
//! One process, one thread, a closed loop: each unit (a case or a
//! shard) starts when the previous one has finished, calling the
//! library's public entry points directly. The work is fixed by the seed
//! and `--seconds` (sized so the loop lasts about that long), never by
//! the clock, so simulated results repeat exactly for a seed. Every
//! oracle verdict is checked; failed operations are counted against
//! those attempted, and broken accounting is a benchmark error (exit 1).
//!
//! `--trace 0` prints the end-to-end metrics. `--trace 1` runs the same
//! loop untraced and then traced, proves both produced the same
//! simulated results, and prints the per-layer metrics. The last line
//! of standard output is the result, as one JSON object.

mod bench;
mod campaign;
mod fuzz;
mod metrics;
mod probe;
mod progs;
mod stats;
mod steady;
mod tally;
mod trace;

use bench::Bench;
use metrics::{result_line, Values, END_TO_END, PER_LAYER};
use stats::{median, percentile, quartiles, window_paces};
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;

const USAGE: &str = "\
USAGE:
    meekbench --workload <NAME> --seed <N> --seconds <N> --trace <0|1>
    meekbench steady --workload <NAME> [--runs <N>] [--seconds <N>] [--trace <0|1>]
                     [--held-out-seed <N>]

WORKLOADS:
    difftest-fuzz, campaign-profiles, progs-recover
";

/// Workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: &[&str] = &["difftest-fuzz", "campaign-profiles", "progs-recover"];

/// One run's parameters.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

fn parse_u64(flag: &str, v: &str) -> Result<u64, String> {
    v.parse().map_err(|_| format!("{flag}: `{v}` is not a number"))
}

/// Parses `--flag value` pairs; `known` lists the flags accepted.
pub fn parse_flags<'a>(
    argv: &'a [String],
    known: &[&str],
) -> Result<Vec<(&'a str, &'a str)>, String> {
    let mut out = Vec::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if !known.contains(&flag.as_str()) {
            return Err(format!("unknown argument `{flag}`"));
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        out.push((flag.as_str(), value.as_str()));
    }
    Ok(out)
}

impl Args {
    fn parse(argv: &[String]) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        for (flag, v) in parse_flags(argv, &["--workload", "--seed", "--seconds", "--trace"])? {
            match flag {
                "--workload" => workload = Some(v.to_string()),
                "--seed" => seed = Some(parse_u64(flag, v)?),
                "--seconds" => seconds = Some(parse_u64(flag, v)?),
                _ => {
                    trace = Some(match v {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, not `{v}`")),
                    })
                }
            }
        }
        let (Some(workload), Some(seed), Some(seconds), Some(trace)) =
            (workload, seed, seconds, trace)
        else {
            return Err("--workload, --seed, --seconds and --trace are all required".into());
        };
        if !WORKLOADS.contains(&workload.as_str()) {
            return Err(format!("unknown workload `{workload}`"));
        }
        if !(1..=3600).contains(&seconds) {
            return Err("--seconds must be between 1 and 3600".into());
        }
        Ok(Args { workload, seed, seconds, trace })
    }
}

/// The process's peak resident set (VmHWM), in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".into())
}

/// Runs one workload and returns the result line.
fn drive<B: Bench>(args: &Args) -> Result<String, String> {
    // Host speed drifts over seconds, so half the set-ups run before the
    // timed loop and half after it: their median samples both ends.
    let mut setup_s = Vec::new();
    let mut setup = None;
    for _ in 0..B::SETUP_RUNS / 2 {
        drop(setup.take());
        let t = Instant::now();
        setup = Some(B::setup(args.seed, args.seconds));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let setup = setup.expect("at least one set-up");

    let mut untraced = Tracer::off();
    let tally = B::run(&setup, &mut untraced)?;
    let untraced_s = untraced.elapsed_s();
    tally.check()?;
    for line in &tally.failures {
        println!("failed: {line}");
    }

    let mut v = Values::new();
    if !args.trace {
        // Contention from other tenants of a shared host only slows the
        // loop, and comes and goes in stretches of seconds, so the rate
        // is taken at the pace of the loop's fast quarter of windows.
        let starts_s = untraced.unit_starts_s();
        let paces = window_paces(starts_s, untraced_s, B::window_units(&setup));
        let pace = if paces.len() < 2 { paces[0] } else { quartiles(&paces).0 };
        v.insert("faults_per_s", tally.injected as f64 / (pace * starts_s.len() as f64));
        drop(setup);
        for _ in 0..B::SETUP_RUNS / 2 {
            let t = Instant::now();
            let again = B::setup(args.seed, args.seconds);
            setup_s.push(t.elapsed().as_secs_f64());
            drop(again);
        }
        let mut lat = tally.latencies_ns.clone();
        lat.sort_by(f64::total_cmp);
        v.insert("setup_s", median(&setup_s));
        v.insert("peak_rss_mb", peak_rss_mb()?);
        v.insert("detected_frac", tally.detected as f64 / tally.injected as f64);
        for (name, p) in [("detect_latency_ns_p50", 50), ("detect_latency_ns_p99", 99)] {
            match percentile(&lat, p) {
                Some(ns) => {
                    v.insert(name, ns);
                }
                None => eprintln!("{name}: fewer than 10 of {} detections beyond it", lat.len()),
            }
        }
        v.insert("sim_ipc", tally.committed as f64 / tally.cycles as f64);
        return result_line(END_TO_END, &v, false, tally.attempted, tally.failed());
    }

    let mut tracer = Tracer::on();
    let t = Instant::now();
    let traced = B::run(&setup, &mut tracer)?;
    let traced_ns = t.elapsed().as_nanos() as u64;
    let trace = tracer.finish();
    if traced != tally {
        return Err("the traced loop's simulated results differ from the untraced loop's".into());
    }
    v.extend(B::layers(&setup, &traced, &trace, traced_ns));
    v.insert("trace_overhead", traced_ns as f64 / 1e9 / untraced_s - 1.0);
    result_line(PER_LAYER, &v, true, tally.attempted, tally.failed())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = if argv.first().is_some_and(|a| a == "steady") {
        steady::main(&argv[1..])
    } else {
        match Args::parse(&argv) {
            Err(e) => {
                eprintln!("error: {e}\n\n{USAGE}");
                return ExitCode::from(2);
            }
            Ok(args) => match args.workload.as_str() {
                "difftest-fuzz" => drive::<fuzz::DifftestFuzz>(&args),
                "campaign-profiles" => drive::<campaign::CampaignProfiles>(&args),
                _ => drive::<progs::ProgsRecover>(&args),
            }
            .map(|line| println!("{line}")),
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

//! `meek-campaign` — CLI front-end for the sharded fault-injection
//! campaign engine.
//!
//! ```text
//! meek-campaign --suite specint --faults 1000 --threads 8 --out results/
//! ```
//!
//! Writes `campaign_records.csv` (one row per detection, byte-identical
//! for a given spec regardless of thread count), optionally
//! `campaign_records.jsonl`, and `campaign_summary.csv` (per-workload
//! latency stats), and prints the paper-style summary table.

use meek_campaign::cli::{self, CliError, Flags};
use meek_campaign::{run_campaign, CampaignJob, CampaignSpec, Executor};
use meek_telemetry::Registry;
use std::fs::{self, File};
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

const USAGE: &str = "\
meek-campaign — sharded, deterministic fault-injection campaigns

USAGE:
    meek-campaign [OPTIONS]

OPTIONS:
    --suite <specint|parsec|all|progs|NAME[,NAME...]>
                          Benchmarks to inject into; `progs` selects the
                          committed real-program kernels plus the fused
                          multi-workload set; names select individual
                          benchmarks or kernels [default: parsec]
    --faults <N>          Faults per workload [default: 1000]
    --threads <N>         Worker threads; 0 = all hardware threads
                          [default: 0]
    --out <DIR>           Output directory [default: $MEEK_RESULTS_DIR
                          or ./results]
    --format <csv|jsonl|both>
                          Record file format(s) [default: csv]
    --seed <S>            Campaign master seed: decimal, 0x-hex, or any
                          string (hashed) [default: 3203386029]
    --shard-faults <N>    Faults per shard (parallel grain) [default: 25]
    --insts-per-fault <N> Instruction headroom per fault [default: 4000]
    --little <N>          Checker cores per system [default: 4]
    --recover             Enable checkpoint/rollback recovery: every
                          detection rolls the big core back to the last
                          verified checkpoint and re-executes
    --trace <PATH>        Attach the JSONL event observer to every shard
                          and write the structured event trace (segment
                          opens, verdicts, injections, detections,
                          rollbacks) to PATH — byte-identical at any
                          --threads, the diagnostics path for campaign
                          failures
    --sample <PATH>       Attach the per-cycle sampling observer to every
                          shard and write the ROB-occupancy / fabric-depth
                          time series (CSV: workload,shard,cycle,
                          rob_occupancy,fabric_depth,littles_idle,
                          lsl_occupancy) to PATH — byte-identical at any
                          --threads
    --sample-stride <N>   Keep every N-th cycle in --sample output
                          [default: 64]
    --metrics <PATH>      Attach the metrics observer to every shard and
                          write the merged campaign-wide registry
                          (detection-latency histograms by fault site,
                          verdict counts, rollback depth/latency, ROB /
                          fabric / LSL occupancy distributions,
                          per-checker utilization) to PATH as stable
                          text — registries merge in shard order, so
                          output is byte-identical at any --threads
    --stream-window <N>   Cap completed-but-unwritten shard results held
                          in memory at N; 0 = unbounded. Shard output is
                          drained in shard order, so while one slow shard
                          holds the watermark every later shard's full
                          result — records plus --trace/--sample payloads
                          — buffers in memory: peak memory is O(shards)
                          unbounded, O(N) with a window. Output bytes are
                          unchanged [default: 0]
    --quiet               Suppress the per-workload table
    -h, --help            Print this help
";

/// The command line: the campaign job plus where and how its output
/// goes.
struct Args {
    job: CampaignJob,
    threads: usize,
    out: PathBuf,
    format: String,
    trace: Option<PathBuf>,
    sample: Option<PathBuf>,
    sample_stride: u64,
    metrics: Option<PathBuf>,
    stream_window: usize,
    quiet: bool,
}

impl Args {
    fn default_out() -> PathBuf {
        match std::env::var_os("MEEK_RESULTS_DIR") {
            Some(d) if !d.is_empty() => PathBuf::from(d),
            _ => PathBuf::from("results"),
        }
    }

    fn parse(argv: &[String]) -> Result<Args, CliError> {
        let mut args = Args {
            job: CampaignJob {
                suite: "parsec".into(),
                faults: 1000,
                seed: 0xBEEF_CAAD,
                ..CampaignJob::default()
            },
            threads: 0,
            out: Args::default_out(),
            format: "csv".into(),
            trace: None,
            sample: None,
            sample_stride: 64,
            metrics: None,
            stream_window: 0,
            quiet: false,
        };
        let job = &mut args.job;
        let mut flags = Flags::new(argv);
        while let Some(flag) = flags.next_flag()? {
            match flag {
                "--suite" => job.suite = flags.value()?,
                "--faults" => job.faults = flags.value()?,
                "--threads" => args.threads = flags.value()?,
                "--out" => args.out = flags.value()?,
                "--format" => args.format = flags.value()?,
                "--seed" => job.seed = flags.seed()?,
                "--shard-faults" => job.shard_faults = flags.value()?,
                "--insts-per-fault" => job.insts_per_fault = flags.value()?,
                "--little" => job.little = flags.value()?,
                "--recover" => job.recover = true,
                "--trace" => args.trace = Some(flags.value()?),
                "--sample" => args.sample = Some(flags.value()?),
                "--sample-stride" => args.sample_stride = flags.value()?,
                "--metrics" => args.metrics = Some(flags.value()?),
                "--stream-window" => args.stream_window = flags.value()?,
                "--quiet" => args.quiet = true,
                _ => return Err(flags.unknown()),
            }
        }
        if !matches!(args.format.as_str(), "csv" | "jsonl" | "both") {
            let msg = format!("--format must be csv, jsonl or both, got `{}`", args.format);
            return Err(CliError::Usage(msg));
        }
        if args.sample_stride == 0 {
            return Err(CliError::Usage("--sample-stride must be positive".into()));
        }
        job.trace = args.trace.is_some();
        job.sample_stride = if args.sample.is_some() { args.sample_stride } else { 0 };
        Ok(args)
    }
}

fn main() -> ExitCode {
    cli::main(USAGE, |argv| run(&Args::parse(argv)?).map(|()| true))
}

/// Creates the file at `path`, and its directory, for writing.
fn create(path: &Path) -> io::Result<BufWriter<File>> {
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        fs::create_dir_all(parent)?;
    }
    File::create(path).map(BufWriter::new)
}

fn run(args: &Args) -> Result<(), CliError> {
    let spec = CampaignSpec {
        metrics: args.metrics.is_some(),
        ..args.job.to_spec().map_err(CliError::Usage)?
    };
    let executor = Executor::new(args.threads).stream_window(args.stream_window);
    fs::create_dir_all(&args.out)?;

    let format = args.format.as_str();
    let csv_path = matches!(format, "csv" | "both").then(|| args.out.join("campaign_records.csv"));
    let jsonl_path =
        matches!(format, "jsonl" | "both").then(|| args.out.join("campaign_records.jsonl"));
    let mut csv = csv_path.as_deref().map(create).transpose()?;
    let mut jsonl = jsonl_path.as_deref().map(create).transpose()?;
    let mut trace = args.trace.as_deref().map(create).transpose()?;
    let mut sample = args.sample.as_deref().map(create).transpose()?;
    let mut metrics = args.metrics.as_deref().map(create).transpose()?;
    let mut merged = Registry::new();
    // Each CSV file's header leads its first row.
    let (mut csv_headed, mut sample_headed) = (false, false);

    let n_workloads = spec.workloads.len();
    println!(
        "meek-campaign: {} fault(s) x {} workload(s), {} shard(s) on {} thread(s), seed {:#x}",
        spec.faults_per_workload,
        n_workloads,
        spec.shards().len(),
        executor.threads(),
        spec.seed
    );
    let started = Instant::now();
    let summary = run_campaign(&spec, &executor, |shard| {
        if let Some(out) = &mut csv {
            shard.write_records_csv(out, !csv_headed)?;
            csv_headed |= !shard.records.is_empty();
        }
        if let Some(out) = &mut jsonl {
            shard.write_records_jsonl(out)?;
        }
        if let Some(out) = &mut trace {
            out.write_all(&shard.trace)?;
        }
        if let Some(out) = &mut sample {
            shard.write_samples_csv(out, !sample_headed)?;
            sample_headed |= !shard.samples.is_empty();
        }
        merged.merge(&shard.metrics);
        Ok(())
    })?;
    if let Some(out) = &mut metrics {
        out.write_all(merged.render().as_bytes())?;
    }
    for out in [&mut csv, &mut jsonl, &mut trace, &mut sample, &mut metrics].into_iter().flatten() {
        out.flush()?;
    }
    let wall = started.elapsed();

    if !args.quiet {
        println!(
            "\n{:<14} {:>7} {:>7} {:>7} {:>9} {:>9} {:>9} {:>8}",
            "benchmark", "inj", "det", "masked", "mean(ns)", "p99(ns)", "max(ns)", "<3us"
        );
        for (name, stats) in &summary.per_workload {
            println!(
                "{:<14} {:>7} {:>7} {:>7} {:>9.1} {:>9.1} {:>9.1} {:>7.2}%",
                name,
                stats.counts.faults,
                stats.counts.detected,
                stats.counts.masked,
                stats.mean_ns(),
                stats.percentile_ns(0.99),
                stats.max_ns(),
                stats.fraction_under(3000.0) * 100.0
            );
        }
    }
    let overall = &summary.overall;
    let total = &overall.counts;
    println!(
        "\ntotal: {} injected, {} detected, {} masked, {} pending",
        total.faults, total.detected, total.masked, total.pending
    );
    if args.job.recover {
        println!(
            "recovery: {} rollback(s), {} episode(s) recovered, {} unrecovered, \
             storage high-water {} byte(s)",
            total.rollbacks, total.recovered, total.unrecovered, total.storage_bytes_hwm
        );
    }
    println!(
        "latency: mean {:.1} ns, p50 {:.1} ns, p99 {:.1} ns, p99.9 {:.1} ns, max {:.1} ns",
        overall.mean_ns(),
        overall.percentile_ns(0.50),
        overall.percentile_ns(0.99),
        overall.percentile_ns(0.999),
        overall.max_ns()
    );
    println!(
        "simulated {} cycles / {} insts across {} shards ({} program build(s)) in {:.2?} \
         ({:.0} faults/s)",
        total.cycles,
        total.committed,
        summary.shards,
        summary.workloads_built,
        wall,
        total.faults as f64 / wall.as_secs_f64().max(1e-9)
    );

    // Per-workload summary CSV.
    let summary_path = args.out.join("campaign_summary.csv");
    let mut f = create(&summary_path)?;
    writeln!(
        f,
        "workload,faults,detected,masked,pending,mean_ns,p50_ns,p99_ns,p999_ns,max_ns,frac_under_3us"
    )?;
    for (name, s) in &summary.per_workload {
        writeln!(
            f,
            "{},{},{},{},{},{:.3},{:.3},{:.3},{:.3},{:.3},{:.5}",
            name,
            s.counts.faults,
            s.counts.detected,
            s.counts.masked,
            s.counts.pending,
            s.mean_ns(),
            s.percentile_ns(0.50),
            s.percentile_ns(0.99),
            s.percentile_ns(0.999),
            s.max_ns(),
            s.fraction_under(3000.0)
        )?;
    }
    f.flush()?;
    println!("[csv] {}", summary_path.display());
    let written = [
        ("csv", &csv_path),
        ("jsonl", &jsonl_path),
        ("trace", &args.trace),
        ("sample", &args.sample),
        ("metrics", &args.metrics),
    ];
    for (tag, path) in written {
        if let Some(path) = path {
            println!("[{tag}] {}", path.display());
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use meek_campaign::cli::usage_default;

    #[test]
    fn campaign_defaults_are_the_ones_the_usage_prints() {
        let args = Args::parse(&[]).unwrap();
        let doc = |flag| usage_default(USAGE, flag).unwrap_or_else(|| panic!("{flag} default"));
        let job = &args.job;
        assert_eq!(doc("--suite"), job.suite);
        assert_eq!(doc("--faults"), job.faults.to_string());
        assert_eq!(doc("--threads"), args.threads.to_string());
        assert_eq!(doc("--format"), args.format);
        assert_eq!(doc("--seed"), job.seed.to_string());
        assert_eq!(doc("--shard-faults"), job.shard_faults.to_string());
        assert_eq!(doc("--insts-per-fault"), job.insts_per_fault.to_string());
        assert_eq!(doc("--little"), job.little.to_string());
        assert_eq!(doc("--sample-stride"), args.sample_stride.to_string());
        assert_eq!(doc("--stream-window"), args.stream_window.to_string());
        assert!(!job.recover && !job.trace && job.sample_stride == 0 && args.metrics.is_none());
    }

    #[test]
    fn seeds_take_every_form_and_output_flags_reach_the_job() {
        let parse = |line: &str| {
            Args::parse(&line.split_whitespace().map(String::from).collect::<Vec<_>>())
        };
        let hex = parse("--seed 0xBEEF").unwrap();
        assert_eq!(hex.job, parse("--seed 48879").unwrap().job);
        let traced = parse("--trace t.jsonl --sample s.csv --sample-stride 8").unwrap();
        assert!(traced.job.trace);
        assert_eq!(traced.job.sample_stride, 8);
        assert!(matches!(parse("--format xml"), Err(CliError::Usage(_))));
        assert!(matches!(parse("--faults"), Err(CliError::Usage(_))));
    }
}

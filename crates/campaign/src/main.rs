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

use meek_campaign::{
    resolve_suite, run_campaign, AggregateSink, CampaignSpec, CsvSink, Executor, JsonlSink,
    MetricsSink, RecordSink, SampleSink, TraceSink,
};
use meek_core::{validate_config, MeekConfig};
use std::fs::{self, File};
use std::io::{self, BufWriter, Write};
use std::path::PathBuf;
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
    --seed <N>            Campaign master seed [default: 3203334829]
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

struct Args {
    suite: String,
    faults: usize,
    threads: usize,
    out: PathBuf,
    format: String,
    seed: u64,
    shard_faults: usize,
    insts_per_fault: u64,
    little: usize,
    recover: bool,
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

    fn parse(argv: &[String]) -> Result<Args, String> {
        let mut args = Args {
            suite: "parsec".into(),
            faults: 1000,
            threads: 0,
            out: Args::default_out(),
            format: "csv".into(),
            seed: 0xBEEF_CAAD,
            shard_faults: 25,
            insts_per_fault: meek_campaign::spec::DEFAULT_INSTS_PER_FAULT,
            little: 4,
            recover: false,
            trace: None,
            sample: None,
            sample_stride: 64,
            metrics: None,
            stream_window: 0,
            quiet: false,
        };
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let mut value =
                |name: &str| it.next().cloned().ok_or_else(|| format!("{name} needs a value"));
            match flag.as_str() {
                "--suite" => args.suite = value("--suite")?,
                "--faults" => args.faults = parse_num(&value("--faults")?, "--faults")?,
                "--threads" => args.threads = parse_num(&value("--threads")?, "--threads")?,
                "--out" => args.out = PathBuf::from(value("--out")?),
                "--format" => args.format = value("--format")?,
                "--seed" => args.seed = parse_num(&value("--seed")?, "--seed")?,
                "--shard-faults" => {
                    args.shard_faults = parse_num(&value("--shard-faults")?, "--shard-faults")?
                }
                "--insts-per-fault" => {
                    args.insts_per_fault =
                        parse_num(&value("--insts-per-fault")?, "--insts-per-fault")?
                }
                "--little" => args.little = parse_num(&value("--little")?, "--little")?,
                "--recover" => args.recover = true,
                "--trace" => args.trace = Some(PathBuf::from(value("--trace")?)),
                "--sample" => args.sample = Some(PathBuf::from(value("--sample")?)),
                "--sample-stride" => {
                    args.sample_stride = parse_num(&value("--sample-stride")?, "--sample-stride")?
                }
                "--metrics" => args.metrics = Some(PathBuf::from(value("--metrics")?)),
                "--stream-window" => {
                    args.stream_window = parse_num(&value("--stream-window")?, "--stream-window")?
                }
                "--quiet" => args.quiet = true,
                "-h" | "--help" => return Err(String::new()),
                other => return Err(format!("unknown flag `{other}`")),
            }
        }
        if args.faults == 0 {
            return Err("--faults must be positive".into());
        }
        if args.shard_faults == 0 || args.insts_per_fault == 0 {
            return Err("--shard-faults and --insts-per-fault must be positive".into());
        }
        validate_config(&MeekConfig::with_little_cores(args.little))
            .map_err(|e| format!("--little: {e}"))?;
        if !matches!(args.format.as_str(), "csv" | "jsonl" | "both") {
            return Err(format!("--format must be csv, jsonl or both, got `{}`", args.format));
        }
        if args.sample_stride == 0 {
            return Err("--sample-stride must be positive".into());
        }
        Ok(args)
    }
}

fn parse_num<T: std::str::FromStr>(s: &str, flag: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("{flag}: cannot parse `{s}` as a number"))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(a) => a,
        Err(msg) => {
            if msg.is_empty() {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            eprintln!("error: {msg}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args) -> io::Result<()> {
    let workloads = resolve_suite(&args.suite).map_err(io::Error::other)?;
    let config = if args.recover {
        MeekConfig::with_recovery(args.little, meek_core::RecoveryPolicy::enabled())
    } else {
        MeekConfig::with_little_cores(args.little)
    };
    let spec = CampaignSpec {
        workloads,
        config,
        faults_per_workload: args.faults,
        faults_per_shard: args.shard_faults,
        insts_per_fault: args.insts_per_fault,
        seed: args.seed,
        trace_events: args.trace.is_some(),
        sample_stride: if args.sample.is_some() { args.sample_stride } else { 0 },
        metrics: args.metrics.is_some(),
    };
    let executor = Executor::new(args.threads).stream_window(args.stream_window);
    fs::create_dir_all(&args.out)?;

    let mut agg = AggregateSink::new();
    let mut csv = if matches!(args.format.as_str(), "csv" | "both") {
        let path = args.out.join("campaign_records.csv");
        Some((CsvSink::new(BufWriter::new(File::create(&path)?)), path))
    } else {
        None
    };
    let mut jsonl = if matches!(args.format.as_str(), "jsonl" | "both") {
        let path = args.out.join("campaign_records.jsonl");
        Some((JsonlSink::new(BufWriter::new(File::create(&path)?)), path))
    } else {
        None
    };
    let mut trace = match &args.trace {
        Some(path) => {
            if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
                fs::create_dir_all(parent)?;
            }
            Some((TraceSink::new(BufWriter::new(File::create(path)?)), path.clone()))
        }
        None => None,
    };
    let mut sample = match &args.sample {
        Some(path) => {
            if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
                fs::create_dir_all(parent)?;
            }
            Some((SampleSink::new(BufWriter::new(File::create(path)?)), path.clone()))
        }
        None => None,
    };
    let mut metrics = match &args.metrics {
        Some(path) => {
            if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
                fs::create_dir_all(parent)?;
            }
            Some((MetricsSink::new(BufWriter::new(File::create(path)?)), path.clone()))
        }
        None => None,
    };

    let n_workloads = spec.workloads.len();
    println!(
        "meek-campaign: {} fault(s) x {} workload(s), {} shard(s) on {} thread(s), seed {:#x}",
        args.faults,
        n_workloads,
        spec.shards().len(),
        executor.threads(),
        args.seed
    );
    let started = Instant::now();
    let summary = {
        let mut sinks: Vec<&mut dyn RecordSink> = vec![&mut agg];
        if let Some((s, _)) = csv.as_mut() {
            sinks.push(s);
        }
        if let Some((s, _)) = jsonl.as_mut() {
            sinks.push(s);
        }
        if let Some((s, _)) = trace.as_mut() {
            sinks.push(s);
        }
        if let Some((s, _)) = sample.as_mut() {
            sinks.push(s);
        }
        if let Some((s, _)) = metrics.as_mut() {
            sinks.push(s);
        }
        run_campaign(&spec, &executor, &mut sinks)?
    };
    let wall = started.elapsed();

    if !args.quiet {
        println!(
            "\n{:<14} {:>7} {:>7} {:>7} {:>9} {:>9} {:>9} {:>8}",
            "benchmark", "inj", "det", "masked", "mean(ns)", "p99(ns)", "max(ns)", "<3us"
        );
        for (name, stats) in agg.per_workload() {
            println!(
                "{:<14} {:>7} {:>7} {:>7} {:>9.1} {:>9.1} {:>9.1} {:>7.2}%",
                name,
                stats.faults,
                stats.detected,
                stats.masked,
                stats.mean_ns(),
                stats.percentile_ns(0.99),
                stats.max_ns(),
                stats.fraction_under(3000.0) * 100.0
            );
        }
    }
    let overall = agg.overall();
    println!(
        "\ntotal: {} injected, {} detected, {} masked, {} pending",
        summary.faults, summary.detected, summary.masked, summary.pending
    );
    if args.recover {
        println!(
            "recovery: {} rollback(s), {} episode(s) recovered, {} unrecovered, \
             storage high-water {} byte(s)",
            summary.rollbacks, summary.recovered, summary.unrecovered, summary.storage_bytes_hwm
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
        summary.sim_cycles,
        summary.committed,
        summary.shards,
        summary.workloads_built,
        wall,
        summary.faults as f64 / wall.as_secs_f64().max(1e-9)
    );

    // Per-workload summary CSV.
    let summary_path = args.out.join("campaign_summary.csv");
    let mut f = BufWriter::new(File::create(&summary_path)?);
    writeln!(
        f,
        "workload,faults,detected,masked,pending,mean_ns,p50_ns,p99_ns,p999_ns,max_ns,frac_under_3us"
    )?;
    for (name, s) in agg.per_workload() {
        writeln!(
            f,
            "{},{},{},{},{},{:.3},{:.3},{:.3},{:.3},{:.3},{:.5}",
            name,
            s.faults,
            s.detected,
            s.masked,
            s.pending,
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
    if let Some((_, path)) = &csv {
        println!("[csv] {}", path.display());
    }
    if let Some((_, path)) = &jsonl {
        println!("[jsonl] {}", path.display());
    }
    if let Some((_, path)) = &trace {
        println!("[trace] {}", path.display());
    }
    if let Some((_, path)) = &sample {
        println!("[sample] {}", path.display());
    }
    if let Some((_, path)) = &metrics {
        println!("[metrics] {}", path.display());
    }
    Ok(())
}

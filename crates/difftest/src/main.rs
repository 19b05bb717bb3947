//! `meek-difftest` — CLI front-end for the differential fuzzing and
//! fault-coverage oracle.
//!
//! ```text
//! meek-difftest --cases 1000 --seed 0 --threads 8
//! ```
//!
//! Each case fuzzes one program, lock-steps it across the three
//! execution ways, then injects a small fault plan and classifies every
//! fault. With `--suite progs` the cases rotate over the committed
//! real-program benchmark kernels (plus the fused multi-workload set)
//! instead of fuzzed programs, with a fresh per-case fault plan. The
//! process exits non-zero on any divergence or coverage escape. All of
//! stdout is a pure function of the flags: cases fan out over the
//! campaign executor and results are re-sequenced into case order, so
//! output is byte-identical at any `--threads`.

use meek_campaign::{parse_seed, Executor};
use meek_core::{validate_config, MeekConfig};
use meek_difftest::{
    case_seed, emit_test, fuzz_program, minimize, run_case, CaseReport, CosimConfig, DifftestStats,
    Divergence, FaultOutcome, FuzzConfig, RecoveryVerdict, Suite,
};
use meek_telemetry::prof;
use std::io::Write;
use std::process::ExitCode;
use std::time::Instant;

const USAGE: &str = "\
meek-difftest — differential fuzzing & fault-coverage oracle for MEEK

USAGE:
    meek-difftest [OPTIONS]
    meek-difftest analyze [--suite progs] [--cases N] [--seed S]
                       Statically verify programs instead of running
                       them: per-program meek-analyze reports for fuzzed
                       programs (or, with --suite progs, the committed
                       kernels plus the fused set); non-zero exit on any
                       violation

OPTIONS:
    --cases <N>        Fuzzed programs to co-simulate [default: 100]
    --seed <S>         Campaign seed: decimal, 0x-hex, or any string
                       (hashed) [default: 0]
    --threads <N>      Worker threads; 0 = all hardware threads
                       [default: 0]
    --faults <N>       Faults injected and classified per case
                       [default: 3]
    --seg-len <N>      Instructions per lock-step replay segment
                       [default: 192]
    --static-len <N>   Static body length of fuzzed programs
                       [default: 220]
    --little <N>       Checker cores in the full-system way [default: 4]
    --suite <NAME>     Co-simulate real-program workloads instead of
                       fuzzed ones: `progs` rotates the committed
                       benchmark kernels plus the fused multi-workload
                       set, with a fresh fault plan per case
                       (--static-len is ignored)
    --recover          Run every fault with checkpoint/rollback recovery
                       enabled and verify each detected fault recovers
                       to a golden-equal final state
    --stats            Print a per-site detection-latency percentile
                       table (p50/p90/p99/max) whose counts reconcile
                       exactly with the coverage totals
    --prof <PATH>      Self-profile the per-case pipeline (image build,
                       golden run, lock-step replay, system check,
                       classification, recovery) and write a
                       chrome://tracing JSON trace to PATH; a per-phase
                       host-time summary goes to stderr
    --shrink           On divergence, shrink the first failing case and
                       print a ready-to-commit #[test]
    --emit-test <PATH> With --shrink, also write the #[test] to PATH
    -h, --help         Print this help
";

struct Args {
    cases: u64,
    seed: u64,
    threads: usize,
    cfg: CosimConfig,
    suite: Suite,
    stats: bool,
    prof: Option<String>,
    shrink: bool,
    emit_path: Option<String>,
}

fn parse_num<T: std::str::FromStr>(s: &str, flag: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("{flag}: cannot parse `{s}` as a number"))
}

impl Args {
    fn parse(argv: &[String]) -> Result<Args, String> {
        let mut args = Args {
            cases: 100,
            seed: 0,
            threads: 0,
            cfg: CosimConfig::default(),
            suite: Suite::Progs,
            stats: false,
            prof: None,
            shrink: false,
            emit_path: None,
        };
        let mut progs = false;
        let mut fuzz = FuzzConfig::default();
        let cfg = &mut args.cfg;
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let mut value =
                |name: &str| it.next().cloned().ok_or_else(|| format!("{name} needs a value"));
            match flag.as_str() {
                "--cases" => args.cases = parse_num(&value("--cases")?, "--cases")?,
                "--seed" => args.seed = parse_seed(&value("--seed")?),
                "--threads" => args.threads = parse_num(&value("--threads")?, "--threads")?,
                "--faults" => cfg.faults = parse_num(&value("--faults")?, "--faults")?,
                "--seg-len" => cfg.seg_len = parse_num(&value("--seg-len")?, "--seg-len")?,
                "--static-len" => {
                    fuzz.static_len = parse_num(&value("--static-len")?, "--static-len")?
                }
                "--little" => cfg.n_little = parse_num(&value("--little")?, "--little")?,
                "--suite" => {
                    let name = value("--suite")?;
                    if name != "progs" {
                        return Err(format!("unknown suite `{name}` (try `progs`)"));
                    }
                    progs = true;
                }
                "--recover" => cfg.recover = true,
                "--stats" => args.stats = true,
                "--prof" => args.prof = Some(value("--prof")?),
                "--shrink" => args.shrink = true,
                "--emit-test" => args.emit_path = Some(value("--emit-test")?),
                "-h" | "--help" => return Err(String::new()),
                other => return Err(format!("unknown flag `{other}`")),
            }
        }
        if args.cases == 0 || args.cfg.seg_len == 0 || fuzz.static_len == 0 {
            return Err("--cases, --seg-len and --static-len must be positive".into());
        }
        validate_config(&MeekConfig::with_little_cores(args.cfg.n_little))
            .map_err(|e| format!("--little: {e}"))?;
        if !progs {
            args.suite = Suite::Fuzz(fuzz);
        }
        Ok(args)
    }
}

/// `meek-difftest analyze`: static verification of the same program
/// stream the co-simulation would run, one report per program.
fn cmd_analyze(args: &Args) -> ExitCode {
    let mut unclean = 0u64;
    if let Suite::Fuzz(fuzz) = args.suite {
        for case in 0..args.cases {
            let case_seed = case_seed(args.seed, case);
            let prog = fuzz_program(case_seed, &fuzz);
            let mut spec = meek_difftest::FuzzProgram::spec();
            spec.name = format!("case {case} (seed {case_seed:#x})");
            let report = meek_analyze::analyze_words(&prog.words, &spec);
            print!("{report}");
            // A *fresh* fuzzed program must be spotless: violations and
            // trap forecasts alike are seed-fuzzer bugs.
            unclean += u64::from(!report.clean());
        }
        println!(
            "analyzed {} fuzzed program(s): {}",
            args.cases,
            if unclean == 0 { "all clean".to_string() } else { format!("{unclean} unclean") },
        );
    } else {
        for k in &meek_progs::KERNELS {
            let prog = meek_progs::suite::program(k);
            let report = meek_progs::analyze_program(&prog);
            print!("{report}");
            unclean += u64::from(!report.clean());
        }
        let fused = meek_progs::WorkloadSet::all().fuse();
        let report = meek_progs::analyze_workload(&fused);
        print!("{report}");
        unclean += u64::from(!report.clean());
        println!(
            "analyzed {} kernel(s) + fused set: {}",
            meek_progs::KERNELS.len(),
            if unclean == 0 { "all clean".to_string() } else { format!("{unclean} unclean") },
        );
    }
    if unclean == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    let analyze_only = argv.first().is_some_and(|a| a == "analyze");
    if analyze_only {
        argv.remove(0);
    }
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
    if analyze_only {
        return cmd_analyze(&args);
    }
    let executor = Executor::new(args.threads);
    let cfg = &args.cfg;
    match args.suite {
        Suite::Progs => println!(
            "meek-difftest: {} case(s) over the `progs` suite ({} kernel(s) + fused set), \
             seed {:#x}, {} fault(s)/case, seg-len {}, {} little core(s)",
            args.cases,
            meek_progs::KERNELS.len(),
            args.seed,
            cfg.faults,
            cfg.seg_len,
            cfg.n_little
        ),
        Suite::Fuzz(fuzz) => println!(
            "meek-difftest: {} case(s), seed {:#x}, {} fault(s)/case, seg-len {}, \
             static-len {}, {} little core(s)",
            args.cases, args.seed, cfg.faults, cfg.seg_len, fuzz.static_len, cfg.n_little
        ),
    }
    if args.prof.is_some() {
        prof::enable();
    }
    let started = Instant::now();

    let case_ids: Vec<u64> = (0..args.cases).collect();
    let mut failures: Vec<(u64, Divergence)> = Vec::new();
    let mut escapes: Vec<(u64, meek_core::FaultSpec, String)> = Vec::new();
    let (mut executed, mut segments, mut cycles) = (0u64, 0u64, 0u64);
    let (mut detected, mut masked, mut pending, mut total_faults) = (0u64, 0u64, 0u64, 0u64);
    let (mut recovered, mut rollbacks, mut unrecovered) = (0u64, 0u64, 0u64);
    let mut worst_recovery_cycles = 0u64;
    let mut latency_sum = 0.0f64;
    let mut stats = args.stats.then(DifftestStats::new);
    executor.map_ordered(
        &case_ids,
        |_idx, &case| run_case(args.seed, case, &args.suite, cfg),
        |idx, r: CaseReport| {
            executed += r.verdict.executed;
            segments += r.verdict.segments as u64;
            cycles += r.verdict.system_cycles;
            if let Some(d) = r.verdict.divergence {
                println!("case {idx} (seed {:#x}): DIVERGENCE\n{d}", r.case_seed);
                failures.push((r.case_seed, d));
            }
            for (spec, outcome, recovery) in r.faults {
                total_faults += 1;
                if let Some(st) = stats.as_mut() {
                    st.record(&spec, &outcome);
                }
                match outcome {
                    FaultOutcome::Detected { latency_ns } => {
                        detected += 1;
                        latency_sum += latency_ns;
                    }
                    FaultOutcome::MaskedProvenBenign => masked += 1,
                    FaultOutcome::Pending => pending += 1,
                    FaultOutcome::Escaped { reason } => {
                        println!(
                            "case {idx} (seed {:#x}): FAULT ESCAPE {spec:?}: {reason}",
                            r.case_seed
                        );
                        escapes.push((r.case_seed, spec, reason));
                    }
                }
                match recovery {
                    Some(RecoveryVerdict::Recovered { rollbacks: n, max_cycles }) => {
                        recovered += 1;
                        rollbacks += n;
                        worst_recovery_cycles = worst_recovery_cycles.max(max_cycles);
                    }
                    Some(
                        v @ (RecoveryVerdict::Unrecovered { .. }
                        | RecoveryVerdict::StateDiverged { .. }),
                    ) => {
                        println!(
                            "case {idx} (seed {:#x}): RECOVERY FAILURE {spec:?}: {v}",
                            r.case_seed
                        );
                        unrecovered += 1;
                    }
                    Some(RecoveryVerdict::NothingToRecover) | None => {}
                }
            }
        },
    );

    println!(
        "\nthree-way: {} case(s), {} instruction(s) co-simulated, {} segment(s) replayed, \
         {} divergence(s)",
        args.cases,
        executed,
        segments,
        failures.len()
    );
    if total_faults > 0 {
        println!(
            "coverage: {total_faults} fault(s) — {detected} detected ({:.1}%), {masked} \
             masked-proven-benign, {pending} pending, {} ESCAPED",
            100.0 * detected as f64 / total_faults as f64,
            escapes.len()
        );
        if detected > 0 {
            println!("mean detection latency: {:.1} ns", latency_sum / detected as f64);
        }
    }
    if let Some(st) = &stats {
        // The table is fed from the same outcome stream as the headline
        // counters above, so the books must balance exactly.
        assert_eq!(st.total(), total_faults, "--stats fault accounting must reconcile");
        assert_eq!(st.verdicts("detected"), detected);
        assert_eq!(st.latency_count(), detected, "one latency observation per detection");
        print!("{}", st.render_table());
    }
    if cfg.recover && total_faults > 0 {
        println!(
            "recovery: {recovered} detection(s) recovered to golden-equal final state \
             ({rollbacks} rollback(s), worst episode {worst_recovery_cycles} cycle(s)), \
             {unrecovered} UNRECOVERED"
        );
    }
    eprintln!(
        "[timing] {} case(s) on {} thread(s), {} big-core cycle(s) simulated in {:.2?}",
        args.cases,
        executor.threads(),
        cycles,
        started.elapsed()
    );
    if let Some(path) = &args.prof {
        let events = prof::take();
        let total: u64 = prof::summary(&events).iter().map(|(_, us, _)| us).sum();
        for (name, us, count) in prof::summary(&events) {
            eprintln!(
                "[prof] {name:<16} {:>10.3} ms  {count:>7} span(s)  {:>5.1}%",
                us as f64 / 1e3,
                100.0 * us as f64 / total.max(1) as f64
            );
        }
        match std::fs::write(path, prof::chrome_trace(&events)) {
            Ok(()) => eprintln!("[prof] wrote {path} ({} span(s))", events.len()),
            Err(e) => eprintln!("[prof] cannot write {path}: {e}"),
        }
    }

    match (args.shrink, args.suite, failures.first()) {
        (false, ..) => {}
        (true, Suite::Progs, _) => {
            eprintln!("[shrink] --suite cases are committed programs; nothing to shrink")
        }
        (true, Suite::Fuzz(_), None) => eprintln!("[shrink] nothing to shrink: no divergence"),
        (true, Suite::Fuzz(fuzz), Some((case_seed, _))) => {
            eprintln!("[shrink] minimising case seed {case_seed:#x}...");
            let prog = fuzz_program(*case_seed, &fuzz);
            let min = minimize(&prog, cfg);
            let test = emit_test(
                &format!("shrunk_case_{case_seed:x}"),
                &min,
                &format!(
                    "Shrunk by `meek-difftest --shrink` from seed {case_seed:#x} \
                     ({} -> {} instructions).",
                    prog.words.len(),
                    min.words.len()
                ),
            );
            println!("\n// ---- ready-to-commit regression test ----\n{test}");
            if let Some(path) = &args.emit_path {
                match std::fs::File::create(path).and_then(|mut f| f.write_all(test.as_bytes())) {
                    Ok(()) => eprintln!("[shrink] wrote {path}"),
                    Err(e) => eprintln!("[shrink] cannot write {path}: {e}"),
                }
            }
        }
    }

    if failures.is_empty() && escapes.is_empty() && unrecovered == 0 {
        if cfg.recover {
            println!("OK: zero divergences, zero escapes, zero unrecovered detections");
        } else {
            println!("OK: zero divergences, zero escapes");
        }
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

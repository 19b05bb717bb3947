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

use meek_campaign::cli::{self, CliError, Flags};
use meek_campaign::Executor;
use meek_difftest::{
    case_seed, emit_test, fuzz_program, minimize, run_case, CaseReport, DifftestJob, FaultOutcome,
    RecoveryVerdict, Suite, Tally,
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

/// The command line: the difftest job plus how to run and report it.
struct Args {
    job: DifftestJob,
    threads: usize,
    stats: bool,
    prof: Option<String>,
    shrink: bool,
    emit_path: Option<String>,
}

impl Args {
    fn parse(argv: &[String]) -> Result<Args, CliError> {
        let mut args = Args {
            job: DifftestJob::default(),
            threads: 0,
            stats: false,
            prof: None,
            shrink: false,
            emit_path: None,
        };
        let job = &mut args.job;
        let mut flags = Flags::new(argv);
        while let Some(flag) = flags.next_flag()? {
            match flag {
                "--cases" => job.cases = flags.value()?,
                "--seed" => job.seed = flags.seed()?,
                "--threads" => args.threads = flags.value()?,
                "--faults" => job.faults = flags.value()?,
                "--seg-len" => job.seg_len = flags.value()?,
                "--static-len" => job.static_len = flags.value()?,
                "--little" => job.little = flags.value()?,
                "--suite" => job.suite = flags.value()?,
                "--recover" => job.recover = true,
                "--stats" => args.stats = true,
                "--prof" => args.prof = Some(flags.value()?),
                "--shrink" => args.shrink = true,
                "--emit-test" => args.emit_path = Some(flags.value()?),
                _ => return Err(flags.unknown()),
            }
        }
        job.validate().map_err(CliError::Usage)?;
        Ok(args)
    }
}

/// `meek-difftest analyze`: static verification of the same program
/// stream the co-simulation would run, one report per program.
fn cmd_analyze(job: &DifftestJob) -> bool {
    let mut unclean = 0u64;
    if let Suite::Fuzz(fuzz) = job.suite() {
        for case in 0..job.cases {
            let case_seed = case_seed(job.seed, case);
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
            job.cases,
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
    unclean == 0
}

fn main() -> ExitCode {
    cli::main(USAGE, |argv| match argv.split_first() {
        Some((cmd, rest)) if cmd == "analyze" => Ok(cmd_analyze(&Args::parse(rest)?.job)),
        _ => Ok(run(&Args::parse(argv)?)),
    })
}

/// Runs the case grid and prints its report; `true` when it is clean.
fn run(args: &Args) -> bool {
    let executor = Executor::new(args.threads);
    let job = &args.job;
    let (suite, cfg) = (job.suite(), job.cosim_config());
    match suite {
        Suite::Progs => println!(
            "meek-difftest: {} case(s) over the `progs` suite ({} kernel(s) + fused set), \
             seed {:#x}, {} fault(s)/case, seg-len {}, {} little core(s)",
            job.cases,
            meek_progs::KERNELS.len(),
            job.seed,
            cfg.faults,
            cfg.seg_len,
            cfg.n_little
        ),
        Suite::Fuzz(fuzz) => println!(
            "meek-difftest: {} case(s), seed {:#x}, {} fault(s)/case, seg-len {}, \
             static-len {}, {} little core(s)",
            job.cases, job.seed, cfg.faults, cfg.seg_len, fuzz.static_len, cfg.n_little
        ),
    }
    if args.prof.is_some() {
        prof::enable();
    }
    let started = Instant::now();

    let case_ids: Vec<u64> = (0..job.cases).collect();
    let mut tally = Tally::default();
    let mut first_divergence = None;
    executor.map_ordered(
        &case_ids,
        |_idx, &case| run_case(job.seed, case, &suite, &cfg),
        |idx, r: CaseReport| {
            if let Some(d) = &r.verdict.divergence {
                println!("case {idx} (seed {:#x}): DIVERGENCE\n{d}", r.case_seed);
                first_divergence.get_or_insert(r.case_seed);
            }
            for (spec, outcome, recovery) in &r.faults {
                if let FaultOutcome::Escaped { reason } = outcome {
                    println!(
                        "case {idx} (seed {:#x}): FAULT ESCAPE {spec:?}: {reason}",
                        r.case_seed
                    );
                }
                if let Some(
                    v @ (RecoveryVerdict::Unrecovered { .. }
                    | RecoveryVerdict::StateDiverged { .. }),
                ) = recovery
                {
                    println!(
                        "case {idx} (seed {:#x}): RECOVERY FAILURE {spec:?}: {v}",
                        r.case_seed
                    );
                }
            }
            tally.add(&r);
        },
    );

    let t = &tally;
    println!(
        "\nthree-way: {} case(s), {} instruction(s) co-simulated, {} segment(s) replayed, \
         {} divergence(s)",
        t.cases, t.executed, t.segments, t.divergences
    );
    if t.faults > 0 {
        println!(
            "coverage: {} fault(s) — {} detected ({:.1}%), {} masked-proven-benign, {} pending, \
             {} ESCAPED",
            t.faults,
            t.detected,
            100.0 * t.detected as f64 / t.faults as f64,
            t.masked,
            t.pending,
            t.escapes
        );
        if t.detected > 0 {
            println!("mean detection latency: {:.1} ns", t.latency_sum_ns / t.detected as f64);
        }
    }
    if args.stats {
        print!("{}", t.render_table());
    }
    if cfg.recover && t.faults > 0 {
        println!(
            "recovery: {} detection(s) recovered to golden-equal final state \
             ({} rollback(s), worst episode {} cycle(s)), {} UNRECOVERED",
            t.recovered,
            t.rollbacks,
            t.worst_recovery_cycles,
            t.failed_recoveries()
        );
    }
    eprintln!(
        "[timing] {} case(s) on {} thread(s), {} big-core cycle(s) simulated in {:.2?}",
        job.cases,
        executor.threads(),
        t.cycles,
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

    match (args.shrink, suite, first_divergence) {
        (false, ..) => {}
        (true, Suite::Progs, _) => {
            eprintln!("[shrink] --suite cases are committed programs; nothing to shrink")
        }
        (true, Suite::Fuzz(_), None) => eprintln!("[shrink] nothing to shrink: no divergence"),
        (true, Suite::Fuzz(fuzz), Some(case_seed)) => {
            eprintln!("[shrink] minimising case seed {case_seed:#x}...");
            let prog = fuzz_program(case_seed, &fuzz);
            let min = minimize(&prog, &cfg);
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

    if t.clean() {
        if cfg.recover {
            println!("OK: zero divergences, zero escapes, zero unrecovered detections");
        } else {
            println!("OK: zero divergences, zero escapes");
        }
    }
    t.clean()
}

#[cfg(test)]
mod tests {
    use super::*;
    use meek_campaign::cli::usage_default;

    #[test]
    fn difftest_defaults_are_the_ones_the_usage_prints() {
        let args = Args::parse(&[]).unwrap();
        let doc = |flag| usage_default(USAGE, flag).unwrap_or_else(|| panic!("{flag} default"));
        let job = &args.job;
        assert_eq!(doc("--cases"), job.cases.to_string());
        assert_eq!(doc("--seed"), job.seed.to_string());
        assert_eq!(doc("--threads"), args.threads.to_string());
        assert_eq!(doc("--faults"), job.faults.to_string());
        assert_eq!(doc("--seg-len"), job.seg_len.to_string());
        assert_eq!(doc("--static-len"), job.static_len.to_string());
        assert_eq!(doc("--little"), job.little.to_string());
        assert!(matches!(job.suite(), Suite::Fuzz(_)), "fuzzed programs unless --suite progs");
        assert!(!job.recover && !args.stats && !args.shrink);
    }
}

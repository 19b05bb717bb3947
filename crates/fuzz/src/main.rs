//! `meek-fuzz` — CLI front-end for the coverage-guided differential
//! fuzzing engine.
//!
//! ```text
//! meek-fuzz --iters 1000 --seed 0 --threads 8 --corpus corpus/
//! ```
//!
//! All of stdout is a pure function of the flags (timing goes to
//! stderr): candidates fan out over the campaign executor in
//! deterministic rounds, so the report — and the corpus directory —
//! are byte-identical at any `--threads`. The process exits non-zero
//! on any divergence or coverage escape, and under `--compare-random`
//! also when guided search fails to beat the random baseline.

use meek_campaign::cli::{self, CliError, Flags};
use meek_fuzz::{run_fuzz, Corpus, FuzzSettings};
use std::fs;
use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

const USAGE: &str = "\
meek-fuzz — coverage-guided differential fuzzing for MEEK

USAGE:
    meek-fuzz [OPTIONS]

OPTIONS:
    --iters <N>        Candidates to evaluate [default: 200]
    --seed <S>         Campaign seed: decimal, 0x-hex, or any string
                       (hashed) [default: 0]
    --threads <N>      Worker threads; 0 = all hardware threads
                       [default: 0]
    --corpus <DIR>     Load the corpus from DIR before the run and
                       persist it (entries, features.txt, report.txt)
                       after — byte-identical at any --threads
    --minimize         Shrink discovering programs before corpus
                       insertion, and shrink any divergence into a
                       ready-to-commit #[test]
    --recover          Classify faults under the recovery oracle
                       (golden-equal final state) instead of detect-only
    --random           Disable guidance: every candidate is a fresh
                       seed-fuzzer program (the difftest baseline)
    --compare-random   Run the guided campaign, then the same budget
                       random, report both feature counts, and fail
                       unless guided discovered strictly more
    --faults <N>       Faults injected and classified per candidate
                       [default: 2]
    --static-len <N>   Static body length of fresh programs
                       [default: 220]
    --little <N>       Checker cores in the full-system runs [default: 4]
    --batch <N>        Candidates per scheduling round [default: 32]
    -h, --help         Print this help
";

/// The command line: the fuzz settings plus the corpus directory and
/// the random-baseline comparison.
struct Args {
    settings: FuzzSettings,
    corpus_dir: Option<PathBuf>,
    compare_random: bool,
}

impl Args {
    fn parse(argv: &[String]) -> Result<Args, CliError> {
        let mut args = Args {
            settings: FuzzSettings { iters: 200, ..FuzzSettings::default() },
            corpus_dir: None,
            compare_random: false,
        };
        let s = &mut args.settings;
        let mut flags = Flags::new(argv);
        while let Some(flag) = flags.next_flag()? {
            match flag {
                "--iters" => s.iters = flags.value()?,
                "--seed" => s.seed = flags.seed()?,
                "--threads" => s.threads = flags.value()?,
                "--corpus" => args.corpus_dir = Some(flags.value()?),
                "--minimize" => s.minimize = true,
                "--recover" => s.recover = true,
                "--random" => s.guided = false,
                "--compare-random" => args.compare_random = true,
                "--faults" => s.faults_per_case = flags.value()?,
                "--static-len" => s.static_len = flags.value()?,
                "--little" => s.n_little = flags.value()?,
                "--batch" => s.batch = flags.value()?,
                _ => return Err(flags.unknown()),
            }
        }
        s.validate().map_err(CliError::Usage)?;
        let usage = |msg: &str| Err(CliError::Usage(msg.into()));
        if args.compare_random && !s.guided {
            return usage("--compare-random already runs the random baseline; drop --random");
        }
        if args.compare_random && args.corpus_dir.is_some() {
            // A preloaded corpus seeds both guidance and the feature
            // universe, so the comparison would no longer measure this
            // run's budget against the baseline's.
            return usage("--compare-random needs a cold start; drop --corpus");
        }
        Ok(args)
    }
}

fn main() -> ExitCode {
    cli::main(USAGE, |argv| run(&Args::parse(argv)?))
}

/// Runs the search and prints its report; `true` when it is clean (and,
/// under `--compare-random`, guidance beat the baseline).
fn run(args: &Args) -> Result<bool, CliError> {
    let initial = match &args.corpus_dir {
        Some(dir) => Corpus::load(dir, args.settings.corpus_cap)
            .map_err(|e| CliError::Failed(format!("cannot load corpus: {e}")))?,
        None => Corpus::new(args.settings.corpus_cap),
    };
    let loaded = initial.len();
    let started = Instant::now();
    let (report, corpus, features) = run_fuzz(&args.settings, initial);
    print!("{report}");
    eprintln!(
        "[timing] {} candidate(s) ({loaded} corpus entr(ies) loaded) in {:.2?}",
        report.evaluated,
        started.elapsed()
    );

    if let Some(dir) = &args.corpus_dir {
        corpus
            .save(dir)
            .and_then(|()| {
                fs::File::create(dir.join("features.txt"))?
                    .write_all(features.render_names().as_bytes())?;
                fs::File::create(dir.join("report.txt"))?.write_all(report.to_string().as_bytes())
            })
            .map_err(|e| CliError::Failed(format!("cannot persist corpus: {e}")))?;
        eprintln!("[corpus] {} entr(ies) -> {}", corpus.len(), dir.display());
    }

    let mut ok = report.clean();
    if args.compare_random {
        let baseline_settings = FuzzSettings { guided: false, ..args.settings.clone() };
        let (baseline, _, baseline_features) = run_fuzz(&baseline_settings, Corpus::new(0));
        ok &= baseline.clean();
        let (g, r) = (features.len(), baseline_features.len());
        println!(
            "comparison: coverage-guided {g} feature(s) vs purely-random {r} feature(s) \
             over {} iteration(s), seed {:#x}",
            args.settings.iters, args.settings.seed
        );
        if g > r {
            println!("comparison OK: guided discovered strictly more features");
        } else {
            println!("comparison FAILED: guided must beat the random baseline");
            ok = false;
        }
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;
    use meek_campaign::cli::usage_default;

    #[test]
    fn fuzz_defaults_are_the_ones_the_usage_prints() {
        let args = Args::parse(&[]).unwrap();
        let doc = |flag| usage_default(USAGE, flag).unwrap_or_else(|| panic!("{flag} default"));
        let s = &args.settings;
        assert_eq!(doc("--iters"), s.iters.to_string());
        assert_eq!(doc("--seed"), s.seed.to_string());
        assert_eq!(doc("--threads"), s.threads.to_string());
        assert_eq!(doc("--faults"), s.faults_per_case.to_string());
        assert_eq!(doc("--static-len"), s.static_len.to_string());
        assert_eq!(doc("--little"), s.n_little.to_string());
        assert_eq!(doc("--batch"), s.batch.to_string());
        assert!(s.guided && !s.recover && !s.minimize && !args.compare_random);
    }
}

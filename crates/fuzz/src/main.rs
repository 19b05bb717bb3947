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

use meek_campaign::parse_seed;
use meek_core::{validate_config, MeekConfig};
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

struct Args {
    settings: FuzzSettings,
    corpus_dir: Option<PathBuf>,
    compare_random: bool,
}

fn parse_num<T: std::str::FromStr>(s: &str, flag: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("{flag}: cannot parse `{s}` as a number"))
}

impl Args {
    fn parse(argv: &[String]) -> Result<Args, String> {
        let mut args = Args {
            settings: FuzzSettings { iters: 200, ..FuzzSettings::default() },
            corpus_dir: None,
            compare_random: false,
        };
        let s = &mut args.settings;
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let mut value =
                |name: &str| it.next().cloned().ok_or_else(|| format!("{name} needs a value"));
            match flag.as_str() {
                "--iters" => s.iters = parse_num(&value("--iters")?, "--iters")?,
                "--seed" => s.seed = parse_seed(&value("--seed")?),
                "--threads" => s.threads = parse_num(&value("--threads")?, "--threads")?,
                "--corpus" => args.corpus_dir = Some(PathBuf::from(value("--corpus")?)),
                "--minimize" => s.minimize = true,
                "--recover" => s.recover = true,
                "--random" => s.guided = false,
                "--compare-random" => args.compare_random = true,
                "--faults" => s.faults_per_case = parse_num(&value("--faults")?, "--faults")?,
                "--static-len" => {
                    s.static_len = parse_num(&value("--static-len")?, "--static-len")?
                }
                "--little" => s.n_little = parse_num(&value("--little")?, "--little")?,
                "--batch" => s.batch = parse_num(&value("--batch")?, "--batch")?,
                "-h" | "--help" => return Err(String::new()),
                other => return Err(format!("unknown flag `{other}`")),
            }
        }
        if s.iters == 0 || s.static_len == 0 || s.batch == 0 {
            return Err("--iters, --static-len and --batch must be positive".into());
        }
        validate_config(&MeekConfig::with_little_cores(s.n_little))
            .map_err(|e| format!("--little: {e}"))?;
        if args.compare_random && !s.guided {
            return Err("--compare-random already runs the random baseline; drop --random".into());
        }
        if args.compare_random && args.corpus_dir.is_some() {
            // A preloaded corpus seeds both guidance and the feature
            // universe, so the comparison would no longer measure this
            // run's budget against the baseline's.
            return Err("--compare-random needs a cold start; drop --corpus".into());
        }
        Ok(args)
    }
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
    let initial = match &args.corpus_dir {
        Some(dir) => match Corpus::load(dir, args.settings.corpus_cap) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("error: cannot load corpus: {e}");
                return ExitCode::FAILURE;
            }
        },
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
        let save = corpus.save(dir).and_then(|()| {
            fs::File::create(dir.join("features.txt"))?
                .write_all(features.render_names().as_bytes())?;
            fs::File::create(dir.join("report.txt"))?.write_all(report.to_string().as_bytes())
        });
        if let Err(e) = save {
            eprintln!("error: cannot persist corpus: {e}");
            return ExitCode::FAILURE;
        }
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
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

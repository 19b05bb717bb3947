//! `meek-progs` — assemble, inspect, and run real-program workloads.
//!
//! ```text
//! meek-progs list
//! meek-progs asm crates/progs/kernels/crc32.s
//! meek-progs run crc32
//! meek-progs run crc32 --system
//! meek-progs set memcpy crc32 recurse
//! ```
//!
//! `run` and `set` execute on the golden interpreter by default and
//! print the program's console output; `--system` additionally runs the
//! full MEEK system (big core + checker cores) and cross-checks its
//! final architectural state against the golden run.

use meek_core::Sim;
use meek_isa::disasm::disasm_word;
use meek_progs::{
    assemble, run_golden, suite, workload, RunOutcome, WorkloadSet, KERNELS, KERNEL_INST_CAP,
};
use meek_workloads::Workload;
use std::process::ExitCode;

const USAGE: &str = "\
meek-progs — real-program workloads for MEEK

USAGE:
    meek-progs <COMMAND> [OPTIONS]

COMMANDS:
    list                      List the committed benchmark suite
    asm <FILE.s> [--lint]     Assemble a source file and print a listing
                              (--lint: also run the static verifier)
    run <KERNEL|FILE.s>       Assemble + run one program
    set <KERNEL>...           Fuse several suite kernels into one
                              multi-workload image and run it

OPTIONS (run/set):
    --max-insts <N>    Dynamic instruction cap [default: 200000]
    --system           Also run the full MEEK system (big core + checker
                       cores) and cross-check final state vs golden
    -h, --help         Print this help
";

/// Why a command did not succeed: a command line `meek-progs` cannot
/// run (exit 2, like the other MEEK command lines), or a run that
/// failed (exit 1).
enum Error {
    Usage(String),
    Failed(String),
}

impl From<String> for Error {
    fn from(msg: String) -> Error {
        Error::Failed(msg)
    }
}

fn usage<T>(msg: impl Into<String>) -> Result<T, Error> {
    Err(Error::Usage(msg.into()))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args[0] == "-h" || args[0] == "--help" {
        print!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let r = match args[0].as_str() {
        "list" => cmd_list(),
        "asm" => cmd_asm(&args[1..]),
        "run" => cmd_run(&args[1..]),
        "set" => cmd_set(&args[1..]),
        other => usage(format!("unknown command `{other}`")),
    };
    match r {
        Ok(()) => ExitCode::SUCCESS,
        Err(Error::Usage(e)) => {
            eprintln!("error: {e}\n\n{USAGE}");
            ExitCode::from(2)
        }
        Err(Error::Failed(e)) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_list() -> Result<(), Error> {
    println!("{:<10} {:<62} console", "kernel", "description");
    for k in &KERNELS {
        println!("{:<10} {:<62} {:?}", k.name, k.description, k.expected_console);
    }
    Ok(())
}

fn cmd_asm(rest: &[String]) -> Result<(), Error> {
    let (lint, paths): (Vec<&String>, Vec<&String>) =
        rest.iter().partition(|a| a.as_str() == "--lint");
    let lint = !lint.is_empty();
    let [path] = paths[..] else {
        return usage("usage: meek-progs asm <FILE.s> [--lint]");
    };
    let source = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let prog = assemble("cli", &source).map_err(|e| format!("{path}: {e}"))?;
    println!("# code: {} words at {:#x}", prog.code.len(), prog.code_base);
    for (i, &w) in prog.code.iter().enumerate() {
        let addr = prog.code_base + 4 * i as u64;
        println!("{addr:#8x}: {w:08x}  {}", disasm_word(w));
    }
    if !prog.data.is_empty() {
        println!("# data: {} bytes at {:#x}", prog.data.len(), prog.data_base);
    }
    if !prog.symbols.is_empty() {
        println!("# symbols:");
        for (name, addr) in &prog.symbols {
            println!("#   {addr:#8x} {name}");
        }
    }
    if lint {
        let report = meek_progs::analyze_program(&prog);
        print!("{report}");
        if !report.clean() {
            return Err(format!("{path}: {}", report.verdict()).into());
        }
    }
    Ok(())
}

struct RunOpts {
    max_insts: u64,
    system: bool,
    positional: Vec<String>,
}

fn parse_run_opts(rest: &[String]) -> Result<RunOpts, Error> {
    let mut opts = RunOpts { max_insts: KERNEL_INST_CAP, system: false, positional: Vec::new() };
    let mut it = rest.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--max-insts" => {
                let Some(v) = it.next() else { return usage("--max-insts needs a value") };
                let Ok(n) = v.parse() else { return usage(format!("bad --max-insts value `{v}`")) };
                opts.max_insts = n;
            }
            "--system" => opts.system = true,
            s if s.starts_with('-') => return usage(format!("unknown option `{s}`")),
            s => opts.positional.push(s.to_string()),
        }
    }
    Ok(opts)
}

fn cmd_run(rest: &[String]) -> Result<(), Error> {
    let opts = parse_run_opts(rest)?;
    let [target] = &opts.positional[..] else {
        return usage("usage: meek-progs run <KERNEL|FILE.s> [OPTIONS]");
    };
    let wl = if let Some(k) = meek_progs::kernel(target) {
        suite::workload(k)
    } else if target.ends_with(".s") {
        let source = std::fs::read_to_string(target).map_err(|e| format!("{target}: {e}"))?;
        let prog = assemble("cli", &source).map_err(|e| format!("{target}: {e}"))?;
        let report = meek_progs::analyze_program(&prog);
        if !report.violations.is_empty() {
            let report = report.to_string();
            return Err(
                format!("{target}: breaks the loader contract:\n{}", report.trim_end()).into()
            );
        }
        workload(&prog).map_err(|e| format!("{target}: {e}"))?
    } else {
        return usage(format!("`{target}` is neither a suite kernel nor a .s file"));
    };
    execute(&wl, &opts)
}

fn cmd_set(rest: &[String]) -> Result<(), Error> {
    let opts = parse_run_opts(rest)?;
    if opts.positional.is_empty() {
        return usage("usage: meek-progs set <KERNEL>... [OPTIONS]");
    }
    let names: Vec<&str> = opts.positional.iter().map(|s| s.as_str()).collect();
    let set = WorkloadSet::from_names(&names).map_err(Error::Usage)?;
    let wl = set.fuse();
    println!("# fused {} kernels: {}", set.kernels().len(), set.display_name());
    execute(&wl, &opts)
}

fn execute(wl: &Workload, opts: &RunOpts) -> Result<(), Error> {
    let golden = run_golden(wl, opts.max_insts).map_err(|t| format!("program trapped: {t}"))?;
    report_golden(&golden);
    if !golden.exited {
        return Err(format!("hit the {}-instruction cap before exit", opts.max_insts).into());
    }
    if opts.system {
        run_system(wl, &golden)?;
    }
    Ok(())
}

fn report_golden(out: &RunOutcome) {
    print!("{}", out.console_text());
    println!(
        "# golden: {} instructions retired, {}",
        out.retired,
        if out.exited { "exited" } else { "capped" }
    );
}

fn run_system(wl: &Workload, golden: &RunOutcome) -> Result<(), String> {
    let sim = Sim::builder(wl, golden.retired).build().map_err(|e| e.to_string())?;
    let outcome = sim.run();
    let mut check = wl.run(golden.retired);
    while check.next_retired().is_some() {}
    let ok = outcome.final_state() == check.state();
    println!(
        "# system: {} cycles ({} app), {} committed, {} segments verified, {} failed",
        outcome.report.cycles,
        outcome.report.app_cycles,
        outcome.report.committed,
        outcome.report.verified_segments,
        outcome.report.failed_segments,
    );
    if !ok {
        return Err("full-system final state diverges from golden".into());
    }
    println!("# system final state matches golden");
    Ok(())
}

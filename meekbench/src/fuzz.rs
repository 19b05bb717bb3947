//! `difftest-fuzz`: fuzzed programs through the three-way co-simulation,
//! then a three-fault plan through detect-only classification.
//!
//! Programs are short (~705 dynamic instructions), so building the four
//! `Sim`s a case needs and re-simulating the fault-free prefix before
//! every fault dominate host time: this is the workload where cheaper
//! construction and forking at the arm point must show.

use crate::bench::{
    case_seed, cosim_layers, duration_percentile, Bench, FAULTS_PER_CASE, N_LITTLE,
};
use crate::metrics::Values;
use crate::probe::{self, Oracle};
use crate::tally::Tally;
use crate::trace::{Trace, Tracer};
use meek_difftest::{
    classify_in, cosim, fault_plan, fuzz_program, CosimConfig, FuzzConfig, FuzzProgram,
};
use std::time::Instant;

/// Cases per second of `--seconds`: about one case per 6.7 ms, the
/// host time a case takes on a 2-vCPU x86-64 VM.
const CASES_PER_SECOND: u64 = 150;

/// Cases per pace window: about half a second.
const WINDOW_CASES: usize = 75;

/// Cases whose programs the layer probes run.
const PROBE_CASES: usize = 40;

pub struct DifftestFuzz;

pub struct Setup {
    /// `(case seed, program)` per case, in case order.
    cases: Vec<(u64, FuzzProgram)>,
    /// Host time generating them.
    input_ns: u64,
}

impl Bench for DifftestFuzz {
    type Setup = Setup;
    const SETUP_RUNS: usize = 6;

    fn setup(seed: u64, seconds: u64) -> Setup {
        let t = Instant::now();
        let cases = (0..seconds * CASES_PER_SECOND)
            .map(|i| {
                let s = case_seed(seed, i);
                (s, fuzz_program(s, &FuzzConfig::default()))
            })
            .collect();
        Setup { cases, input_ns: t.elapsed().as_nanos() as u64 }
    }

    fn window_units(_: &Setup) -> usize {
        WINDOW_CASES
    }

    fn run(setup: &Setup, tracer: &mut Tracer) -> Result<Tally, String> {
        let cfg = CosimConfig::default();
        let mut t = Tally::default();
        for (i, (seed, prog)) in setup.cases.iter().enumerate() {
            tracer.unit(i as u64);
            let (verdict, shared) = tracer.span("cosim", || cosim::run_full(prog, &cfg));
            t.attempted += 1;
            if let Some(d) = &verdict.divergence {
                t.fail(format!("case {i} (seed {seed:#x}): divergence: {d}"));
                continue;
            }
            let Some((golden, wl)) = shared else { continue };
            t.committed += verdict.executed;
            t.cycles += verdict.system_cycles;
            if verdict.executed == 0 {
                continue;
            }
            let plan =
                tracer.span("fault_plan", || fault_plan(*seed, FAULTS_PER_CASE, verdict.executed));
            for spec in plan {
                let outcome = tracer.span("classify", || classify_in(&golden, &wl, spec, N_LITTLE));
                t.attempted += 1;
                if t.fault(&outcome) {
                    t.fail(format!("case {i} (seed {seed:#x}): {spec:?}: {outcome}"));
                }
            }
        }
        Ok(t)
    }

    fn layers(setup: &Setup, tally: &Tally, trace: &Trace, phase_ns: u64) -> Values {
        let mut v = cosim_layers(tally, trace, phase_ns);
        v.insert("difftest.classify_share", trace.total_ns("classify") as f64 / phase_ns as f64);
        for (name, p) in [("difftest.classify_us_p50", 50), ("difftest.classify_us_p99", 99)] {
            if let Some(us) = duration_percentile(trace, "classify", p, 1e3) {
                v.insert(name, us);
            }
        }
        v.insert("difftest.input_us", setup.input_ns as f64 / setup.cases.len() as f64 / 1e3);
        // The workloads layer builds each case's image and predecode
        // table inside `run_full` (the program's `image_build` span).
        if let Some(ms) = duration_percentile(trace, "image_build", 50, 1e6) {
            v.insert("workloads.build_ms", ms);
        }
        let built: Vec<_> =
            setup.cases.iter().take(PROBE_CASES).map(|(s, p)| (*s, p.workload())).collect();
        let programs: Vec<_> = built
            .iter()
            .map(|(s, wl)| probe::Program {
                wl,
                cap: cosim::GOLDEN_CAP,
                faults: Some((*s, Oracle::Detect)),
            })
            .collect();
        v.extend(probe::run(&programs));
        v
    }
}

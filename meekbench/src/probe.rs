//! Layer probes: each layer's public entry point timed on its own, on
//! the workload's own programs, after the timed loop (so they are not
//! part of it).
//!
//! Per program: the golden interpreter (`golden_run_in`), one
//! `SimBuilder::build_unobserved` with the oracles' little-core count, one
//! clean `Sim::run`, the big core alone (`run_vanilla`), and — where the
//! oracle hides its fault runs — those fault runs rebuilt as the oracle
//! builds them, to read where in the run each fault was injected.

use crate::bench::{FAULTS_PER_CASE, N_LITTLE};
use crate::metrics::Values;
use crate::stats::median;
use meek_core::{run_vanilla, FabricKind, MeekConfig, RecoveryPolicy, RunReport, Sim};
use meek_difftest::{fault_plan, golden_run_in};
use meek_workloads::Workload;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// How a workload's oracle runs each fault.
#[derive(Debug, Clone, Copy)]
pub enum Oracle {
    /// Detect-only, halting at the first detection (`classify_in`).
    Detect,
    /// F2 with recovery enabled (`verify_recovery_in`).
    Recover,
}

/// One program to probe.
pub struct Program<'a> {
    /// The built program.
    pub wl: &'a Workload,
    /// Instruction cap of the golden run; its length is every other
    /// probe's instruction budget.
    pub cap: u64,
    /// The case seed and oracle whose fault runs to rebuild, if any.
    pub faults: Option<(u64, Oracle)>,
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// The fault runs of one case, built as its oracle builds them. A run
/// that cannot drain is left out: the loop already counted it failed.
fn fault_runs(wl: &Workload, insts: u64, seed: u64, oracle: Oracle) -> Vec<RunReport> {
    fault_plan(seed, FAULTS_PER_CASE, insts)
        .into_iter()
        .filter_map(|spec| {
            let b = Sim::builder(wl, insts).little_cores(N_LITTLE).faults(vec![spec]);
            let sim = match oracle {
                Oracle::Detect => {
                    b.build_unobserved().expect("oracle config").halt_on_first_detection()
                }
                Oracle::Recover => b
                    .fabric(FabricKind::F2)
                    .recovery(RecoveryPolicy::enabled())
                    .build_unobserved()
                    .expect("oracle config"),
            };
            catch_unwind(AssertUnwindSafe(|| sim.run().report)).ok()
        })
        .collect()
}

/// Probes every program and returns the layer metrics they give.
pub fn run(programs: &[Program]) -> Values {
    let big = MeekConfig::default().big;
    let (mut insts, mut golden_s, mut run_s, mut vanilla_s) = (0u64, 0.0, 0.0, 0.0);
    let mut build_us = Vec::new();
    let (mut committed, mut cycles, mut stalls) = (0u64, 0u64, 0u64);
    let (mut delivered, mut blocked, mut wait_data) = (0u64, 0u64, 0u64);
    let (mut prefix_sum, mut prefix_n) = (0.0, 0u64);
    for p in programs {
        let t = Instant::now();
        let golden = golden_run_in(p.wl, p.cap);
        golden_s += secs(t);
        // A program the loop saw trap has nothing further to probe.
        let n = golden.map_or(0, |g| g.trace.len() as u64);
        if n == 0 {
            continue;
        }
        insts += n;

        let t = Instant::now();
        let sim = Sim::builder(p.wl, n).little_cores(N_LITTLE).build_unobserved();
        build_us.push(t.elapsed().as_nanos() as f64 / 1e3);
        let sim = sim.expect("probe config is valid");
        let t = Instant::now();
        let report = sim.run().report;
        run_s += secs(t);
        committed += report.committed;
        cycles += report.cycles;
        stalls += report.stalls.total();
        delivered += report.fabric.delivered;
        blocked += report.fabric.blocked_cycles;
        wait_data += report.littles.iter().map(|l| l.wait_data_cycles).sum::<u64>();

        let t = Instant::now();
        black_box(run_vanilla(&big, black_box(p.wl), n));
        vanilla_s += secs(t);

        if let Some((seed, oracle)) = p.faults {
            for r in fault_runs(p.wl, n, seed, oracle) {
                if let Some(d) = r.detections.first() {
                    prefix_sum += d.injected_cycle as f64 / r.cycles as f64;
                    prefix_n += 1;
                }
            }
        }
    }
    let mut v = Values::from([
        ("isa.golden_minsts_per_s", insts as f64 / golden_s / 1e6),
        ("core.build_us", median(&build_us)),
        ("core.run_minsts_per_s", committed as f64 / run_s / 1e6),
        ("bigcore.vanilla_minsts_per_s", insts as f64 / vanilla_s / 1e6),
        ("core.meek_stall_frac", stalls as f64 / cycles as f64),
        ("fabric.delivered", delivered as f64),
        ("fabric.blocked_cycles", blocked as f64),
        ("littlecore.wait_data_cycles", wait_data as f64),
    ]);
    if prefix_n > 0 {
        v.insert("core.fault_prefix_frac", prefix_sum / prefix_n as f64);
    }
    v
}

//! `progs-recover`: the `meek-progs` rotation (8 kernels, then the
//! fused set) through the three-way co-simulation, then a three-fault
//! plan through the recovery oracle (F2, recovery enabled), in whole
//! rotations only.
//!
//! Real loops, syscalls and stores drive the recovery layer: checkpoint
//! pinning, an undo-log write on every store, rollback and
//! re-execution. It is the write-side use of the same `Sim::run` the
//! other workloads use detect-only, so a detect-only speed-up that slows
//! recovery shows here.

use crate::bench::{
    case_seed, cosim_layers, duration_percentile, Bench, FAULTS_PER_CASE, N_LITTLE,
};
use crate::metrics::Values;
use crate::probe::{self, Oracle};
use crate::tally::Tally;
use crate::trace::{Trace, Tracer};
use meek_core::FabricKind;
use meek_difftest::{cosim, fault_plan, verify_recovery_in, CosimConfig};
use meek_progs::{rotation_len, WorkloadSet, KERNELS};
use meek_workloads::Workload;
use std::time::Instant;

/// Rotations per 10 s of `--seconds`: one rotation takes about 0.25 s
/// of host time on a 2-vCPU x86-64 VM.
const ROTATIONS_PER_10S: u64 = 40;

/// Whole rotations per pace window: about half a second.
const WINDOW_ROTATIONS: usize = 2;

pub struct ProgsRecover;

pub struct Setup {
    /// The rotation's programs, built: each kernel, then the fused set.
    rotation: Vec<Workload>,
    /// Host time building each.
    build_ns: Vec<u64>,
    /// Case seeds; case `i` runs `rotation[i % rotation.len()]`.
    cases: Vec<u64>,
}

impl Bench for ProgsRecover {
    type Setup = Setup;
    const SETUP_RUNS: usize = 22;

    fn setup(seed: u64, seconds: u64) -> Setup {
        let mut rotation = Vec::new();
        let mut build_ns = Vec::new();
        for k in KERNELS.iter().map(Some).chain([None]) {
            let t = Instant::now();
            rotation.push(match k {
                Some(k) => meek_progs::suite::workload(k),
                None => WorkloadSet::all().fuse(),
            });
            build_ns.push(t.elapsed().as_nanos() as u64);
        }
        let rotations = (seconds * ROTATIONS_PER_10S).div_ceil(10);
        let cases = (0..rotations * rotation_len()).map(|i| case_seed(seed, i)).collect();
        Setup { rotation, build_ns, cases }
    }

    fn window_units(setup: &Setup) -> usize {
        WINDOW_ROTATIONS * setup.rotation.len()
    }

    fn run(setup: &Setup, tracer: &mut Tracer) -> Result<Tally, String> {
        let cfg = CosimConfig::default();
        let mut t = Tally::default();
        for (i, &seed) in setup.cases.iter().enumerate() {
            let wl = &setup.rotation[i % setup.rotation.len()];
            tracer.unit(i as u64);
            let (verdict, golden) = tracer.span("cosim", || cosim::run_workload(wl, &cfg));
            t.attempted += 1;
            if let Some(d) = &verdict.divergence {
                t.fail(format!("case {i} `{}` (seed {seed:#x}): divergence: {d}", wl.name));
                continue;
            }
            let Some(golden) = golden else { continue };
            t.committed += verdict.executed;
            t.cycles += verdict.system_cycles;
            if verdict.executed == 0 {
                continue;
            }
            let plan =
                tracer.span("fault_plan", || fault_plan(seed, FAULTS_PER_CASE, verdict.executed));
            for spec in plan {
                let (outcome, recovery) = tracer.span("verify", || {
                    verify_recovery_in(&golden, wl, spec, N_LITTLE, FabricKind::F2)
                });
                t.attempted += 1;
                let escaped = t.fault(&outcome);
                if t.recovery(&recovery) || escaped {
                    t.fail(format!(
                        "case {i} `{}` (seed {seed:#x}): {spec:?}: {outcome}; {recovery}",
                        wl.name
                    ));
                }
            }
        }
        Ok(t)
    }

    fn layers(setup: &Setup, tally: &Tally, trace: &Trace, phase_ns: u64) -> Values {
        let mut v = cosim_layers(tally, trace, phase_ns);
        v.insert("recover.verify_share", trace.total_ns("verify") as f64 / phase_ns as f64);
        if let Some(ms) = duration_percentile(trace, "verify", 50, 1e6) {
            v.insert("recover.verify_ms_p50", ms);
        }
        v.insert("recover.rollbacks", tally.rollbacks as f64);
        v.insert("recover.worst_cycles", tally.worst_recovery_cycles as f64);
        let build_ns: u64 = setup.build_ns.iter().sum();
        v.insert("progs.build_ms", build_ns as f64 / setup.build_ns.len() as f64 / 1e6);
        let programs: Vec<_> = setup
            .rotation
            .iter()
            .zip(&setup.cases)
            .map(|(wl, &s)| probe::Program {
                wl,
                cap: cosim::GOLDEN_CAP,
                faults: Some((s, Oracle::Recover)),
            })
            .collect();
        v.extend(probe::run(&programs));
        v
    }
}

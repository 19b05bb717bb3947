//! One program under test, and the grid cell `meek-difftest` and serve
//! difftest jobs run. Two rules live here: only a case whose clean run
//! agrees three ways gets a fault plan, and only a case that will
//! classify keeps snapshots of its clean run for fault runs to fork from.

use crate::cosim::{self, golden_run_in, CosimConfig, CosimVerdict, GoldenRun, GOLDEN_CAP};
use crate::coverage::{self, fault_plan, FaultOutcome};
use crate::fuzz::{fuzz_program, FuzzConfig};
use crate::recover::{self, RecoveryVerdict};
use meek_campaign::splitmix;
use meek_core::{FabricKind, FaultSpec, RunOutcome};
use meek_telemetry::prof;
use meek_workloads::Workload;

/// One program under test: its built workload, its golden run and the
/// verdict of its three-way co-simulation under its configuration. It
/// judges faults against that run; the judging methods panic if the
/// golden interpreter trapped, for such a case plans no fault.
#[derive(Debug)]
pub struct Case<'w> {
    wl: &'w Workload,
    /// `None` when the golden interpreter trapped.
    golden: Option<GoldenRun>,
    verdict: CosimVerdict,
    cfg: CosimConfig,
}

impl<'w> Case<'w> {
    /// Co-simulates `wl` three ways: the golden run (at most
    /// [`GOLDEN_CAP`] instructions), lock-step littlecore replay and the
    /// full system. A case that will classify (`cfg.faults > 0`, no
    /// `cfg.recover`) keeps paused copies of its clean full-system run,
    /// which [`Case::classify`] forks fault runs from.
    pub fn new(wl: &'w Workload, cfg: &CosimConfig) -> Case<'w> {
        let (verdict, golden) = Case::cosimulate(wl, cfg);
        Case { wl, golden, verdict, cfg: *cfg }
    }

    /// Co-simulates ways 2 and 3 of `wl` against a golden run the caller
    /// already has, such as a bounded pre-screen. It keeps no snapshots:
    /// its caller builds its own fault runs and judges them with
    /// [`Case::judge`].
    pub fn with_golden(wl: &'w Workload, golden: GoldenRun, cfg: &CosimConfig) -> Case<'w> {
        let verdict = cosim::check_ways(wl, &golden, cfg, None);
        Case { wl, golden: Some(golden), verdict, cfg: *cfg }
    }

    /// [`Case::new`]'s co-simulation, with its snapshot policy.
    pub(crate) fn cosimulate(
        wl: &Workload,
        cfg: &CosimConfig,
    ) -> (CosimVerdict, Option<GoldenRun>) {
        let golden = {
            let _span = prof::span("golden_run");
            golden_run_in(wl, GOLDEN_CAP)
        };
        match golden {
            Ok(mut g) => {
                let mut snapshots = Vec::new();
                let classifies = cfg.faults > 0 && !cfg.recover;
                let verdict = cosim::check_ways(wl, &g, cfg, classifies.then_some(&mut snapshots));
                g.snapshots = snapshots;
                (verdict, Some(g))
            }
            Err(d) => {
                let verdict = CosimVerdict {
                    executed: 0,
                    segments: 0,
                    system_cycles: 0,
                    divergence: Some(d),
                };
                (verdict, None)
            }
        }
    }

    /// The three-way co-simulation verdict.
    pub fn verdict(&self) -> &CosimVerdict {
        &self.verdict
    }

    /// The golden run, `None` when the golden interpreter trapped.
    pub fn golden(&self) -> Option<&GoldenRun> {
        self.golden.as_ref()
    }

    /// The case's `cfg.faults` faults, drawn from `seed` over the arm
    /// span of the run. Empty unless the co-simulation is clean and
    /// retired at least one instruction: a faulty run is judged against
    /// the golden run, which only a clean case vouches for.
    pub fn plan(&self, seed: u64) -> Vec<FaultSpec> {
        if self.verdict.divergence.is_some() || self.verdict.executed == 0 {
            return Vec::new();
        }
        fault_plan(seed, self.cfg.faults, self.verdict.executed)
    }

    /// Injects `spec` into a detect-only full-system run, forked from a
    /// snapshot of the clean run where one precedes the arm point, and
    /// classifies it as detected, masked-proven-benign, pending or
    /// escaped.
    pub fn classify(&self, spec: FaultSpec) -> FaultOutcome {
        coverage::classify(self.reference(), self.wl, spec, self.cfg.n_little)
    }

    /// Injects `spec` into a recovery-enabled F2 run and returns its
    /// classification plus the recovery verdict: every detection must
    /// end in a final state equal to the golden run's.
    pub fn recover(&self, spec: FaultSpec) -> (FaultOutcome, RecoveryVerdict) {
        recover::verify(self.reference(), self.wl, spec, self.cfg.n_little, FabricKind::F2)
    }

    /// Judges a run of `spec` the caller built and ran itself (with an
    /// observer, or on another fabric): its classification, plus the
    /// recovery verdict when the run had recovery enabled.
    pub fn judge(
        &self,
        spec: FaultSpec,
        run: &RunOutcome,
    ) -> (FaultOutcome, Option<RecoveryVerdict>) {
        let golden = self.reference();
        let outcome = coverage::judge(golden, self.wl, spec, &run.report);
        if run.system().config().recovery.enabled {
            let (outcome, recovery) = recover::judge(golden, outcome, run);
            (outcome, Some(recovery))
        } else {
            (outcome, None)
        }
    }

    fn reference(&self) -> &GoldenRun {
        self.golden.as_ref().expect("a case whose golden run trapped has no fault to judge")
    }
}

/// Where the program of a [`run_case`] grid cell comes from.
#[derive(Debug, Clone, Copy)]
pub enum Suite {
    /// A program fuzzed from the case seed.
    Fuzz(FuzzConfig),
    /// The committed benchmark rotation
    /// ([`meek_progs::rotation_workload`]): each kernel, then the fused
    /// set.
    Progs,
}

/// What one grid cell found.
#[derive(Debug)]
pub struct CaseReport {
    /// The seed the program (under [`Suite::Fuzz`]) and the fault plan
    /// derive from.
    pub case_seed: u64,
    /// The program's workload name.
    pub workload: &'static str,
    /// The three-way co-simulation verdict.
    pub verdict: CosimVerdict,
    /// Each planned fault, its classification, and its recovery verdict
    /// under `cfg.recover`.
    pub faults: Vec<(FaultSpec, FaultOutcome, Option<RecoveryVerdict>)>,
}

/// The seed of case `case` in a run seeded `run_seed`.
pub fn case_seed(run_seed: u64, case: u64) -> u64 {
    splitmix(run_seed ^ case.wrapping_mul(0x9E37_79B9))
}

/// Runs case `case` of a run seeded `run_seed`: builds its program,
/// co-simulates it as a [`Case`], and classifies (or, under
/// `cfg.recover`, verifies the recovery of) every fault of its plan.
pub fn run_case(run_seed: u64, case: u64, suite: &Suite, cfg: &CosimConfig) -> CaseReport {
    let seed = case_seed(run_seed, case);
    let wl = match suite {
        Suite::Fuzz(fuzz) => {
            let prog = fuzz_program(seed, fuzz);
            let _span = prof::span("image_build");
            prog.workload()
        }
        Suite::Progs => {
            let _span = prof::span("image_build");
            meek_progs::rotation_workload(case)
        }
    };
    let case = Case::new(&wl, cfg);
    let faults = case
        .plan(seed)
        .into_iter()
        .map(|spec| {
            if cfg.recover {
                let _span = prof::span("recovery");
                let (outcome, recovery) = case.recover(spec);
                (spec, outcome, Some(recovery))
            } else {
                let _span = prof::span("classify");
                (spec, case.classify(spec), None)
            }
        })
        .collect();
    CaseReport { case_seed: seed, workload: wl.name, verdict: case.verdict, faults }
}

#[cfg(test)]
mod tests {
    use super::*;
    use meek_core::{RecoveryPolicy, Sim};

    #[test]
    fn case_seeds_are_pinned() {
        // `meek-difftest --seed 0`, case 2074: the known escape.
        assert_eq!(case_seed(0, 2074), 0x9233_a501_04c9_79ab);
    }

    #[test]
    fn a_run_built_by_hand_is_judged_like_the_cases_own() {
        let cfg = CosimConfig::default();
        let (mut detected, mut recovered) = (0, 0);
        for seed in 0..4u64 {
            let wl = fuzz_program(seed, &FuzzConfig::default()).workload();
            let case = Case::new(&wl, &cfg);
            let n = case.verdict().executed;
            for spec in case.plan(seed) {
                let build = |recovery| {
                    Sim::builder(&wl, n)
                        .little_cores(cfg.n_little)
                        .fabric(FabricKind::F2)
                        .recovery(recovery)
                        .faults(vec![spec])
                        .build_unobserved()
                        .expect("valid configuration")
                        .try_run()
                        .expect("drains")
                };
                let outcome = case.classify(spec);
                detected += u32::from(matches!(outcome, FaultOutcome::Detected { .. }));
                assert_eq!(case.judge(spec, &build(RecoveryPolicy::default())), (outcome, None));
                let (outcome, recovery) = case.recover(spec);
                recovered += u32::from(matches!(recovery, RecoveryVerdict::Recovered { .. }));
                let judged = case.judge(spec, &build(RecoveryPolicy::enabled()));
                assert_eq!(judged, (outcome, Some(recovery)), "seed {seed}, {spec:?}");
            }
        }
        assert!(detected > 0 && recovered > 0, "{detected} detected, {recovered} recovered");
    }
}

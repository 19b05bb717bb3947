//! A difftest job: the case grid `meek-difftest` reads from its flags
//! and `meek-serve` from a job's JSON, with the one check both run.

use crate::case::Suite;
use crate::cosim::CosimConfig;
use crate::fuzz::FuzzConfig;
use meek_core::{validate_config, MeekConfig};

/// A difftest job: cases `0..cases` of a run seeded `seed`, each the
/// [`crate::run_case`] grid cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DifftestJob {
    /// Case source: `fuzz` (random programs) or `progs` (the committed
    /// benchmark-kernel rotation, `meek_progs::rotation_workload`).
    pub suite: String,
    /// Co-simulation cases.
    pub cases: u64,
    /// Master seed (per-case seeds derive from it).
    pub seed: u64,
    /// Faults injected per clean case.
    pub faults: usize,
    /// Instructions per replay segment.
    pub seg_len: u64,
    /// Static instruction count of fuzzed programs.
    pub static_len: usize,
    /// Checker cores.
    pub little: usize,
    /// Verify recovery (golden-equal final state) for each fault.
    pub recover: bool,
    /// Cases per serve unit (the checkpoint and stream grain).
    pub batch: u64,
}

impl Default for DifftestJob {
    fn default() -> DifftestJob {
        DifftestJob {
            suite: "fuzz".to_string(),
            cases: 100,
            seed: 0,
            faults: 3,
            seg_len: 192,
            static_len: 220,
            little: 4,
            recover: false,
            batch: 16,
        }
    }
}

impl DifftestJob {
    /// Checks the job before anything runs.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending field.
    pub fn validate(&self) -> Result<(), String> {
        if !matches!(self.suite.as_str(), "fuzz" | "progs") {
            return Err(format!("unknown difftest suite `{}` (want fuzz or progs)", self.suite));
        }
        if self.cases == 0 || self.seg_len == 0 || self.static_len == 0 {
            return Err("cases, seg_len and static_len must be positive".into());
        }
        validate_config(&MeekConfig::with_little_cores(self.little))
            .map_err(|e| format!("little: {e}"))?;
        if self.batch == 0 {
            return Err("batch must be positive".into());
        }
        if self.suite == "progs" {
            // A job rotating over malformed programs must bounce with a
            // typed message, not crash a worker mid-stream.
            if let Some(err) = progs_rotation_lint() {
                return Err(format!("progs rotation failed static analysis: {err}"));
            }
        }
        Ok(())
    }

    /// Where the job's programs come from.
    pub fn suite(&self) -> Suite {
        match self.suite.as_str() {
            "progs" => Suite::Progs,
            _ => Suite::Fuzz(FuzzConfig { static_len: self.static_len }),
        }
    }

    /// The configuration each case co-simulates under.
    pub fn cosim_config(&self) -> CosimConfig {
        CosimConfig {
            seg_len: self.seg_len,
            n_little: self.little,
            faults: self.faults,
            recover: self.recover,
        }
    }
}

/// Lints the committed-kernel rotation (plus the fused set) with
/// `meek-analyze`, once per process; `Some` carries the first unclean
/// program's verdict line.
fn progs_rotation_lint() -> Option<&'static str> {
    static LINT: std::sync::OnceLock<Option<String>> = std::sync::OnceLock::new();
    LINT.get_or_init(|| {
        for k in &meek_progs::KERNELS {
            let prog = meek_progs::suite::program(k);
            let report = meek_progs::analyze_program(&prog);
            if !report.clean() {
                let what = report
                    .violations
                    .first()
                    .map(|v| v.to_string())
                    .or_else(|| report.guaranteed_trap.map(|t| t.to_string()))
                    .unwrap_or_default();
                return Some(format!("kernel `{}`: {what}", prog.name));
            }
        }
        let fused = meek_progs::WorkloadSet::all().fuse();
        let report = meek_progs::analyze_workload(&fused);
        if !report.clean() {
            return Some(format!("fused set `{}` is unclean", fused.name));
        }
        None
    })
    .as_deref()
}

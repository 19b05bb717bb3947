//! A campaign job: the fields `meek-campaign` reads from its flags and
//! `meek-serve` from a job's JSON, expanded into one [`CampaignSpec`].

use crate::spec::{resolve_suite, CampaignSpec, DEFAULT_FAULTS_PER_SHARD, DEFAULT_INSTS_PER_FAULT};
use meek_core::{validate_config, MeekConfig, RecoveryPolicy};

/// A campaign job. A socket-submitted job and a `meek-campaign` run
/// with the same fields are the same campaign, with byte-identical
/// records.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignJob {
    /// Suite selector ([`resolve_suite`] vocabulary).
    pub suite: String,
    /// Faults injected per workload.
    pub faults: usize,
    /// Faults per shard (the parallel and checkpoint grain).
    pub shard_faults: usize,
    /// Instruction headroom per queued fault.
    pub insts_per_fault: u64,
    /// Campaign master seed.
    pub seed: u64,
    /// Checker cores per simulated system.
    pub little: usize,
    /// Run with checkpoint/rollback recovery enabled.
    pub recover: bool,
    /// Stream the JSONL event trace.
    pub trace: bool,
    /// Occupancy sample stride; 0 disables sampling.
    pub sample_stride: u64,
}

impl Default for CampaignJob {
    fn default() -> CampaignJob {
        CampaignJob {
            suite: "specint".to_string(),
            faults: 100,
            shard_faults: DEFAULT_FAULTS_PER_SHARD,
            insts_per_fault: DEFAULT_INSTS_PER_FAULT,
            seed: 0,
            little: 4,
            recover: false,
            trace: false,
            sample_stride: 0,
        }
    }
}

impl CampaignJob {
    /// Expands the job into the engine's [`CampaignSpec`], with metrics
    /// collection off.
    ///
    /// # Errors
    ///
    /// Returns a message when a count is zero, the suite names an
    /// unknown benchmark, or the configuration is invalid, so a bad job
    /// never reaches a worker.
    pub fn to_spec(&self) -> Result<CampaignSpec, String> {
        if self.faults == 0 || self.shard_faults == 0 || self.insts_per_fault == 0 {
            return Err("faults, shard_faults and insts_per_fault must be positive".into());
        }
        let workloads = resolve_suite(&self.suite)?;
        let config = if self.recover {
            MeekConfig::with_recovery(self.little, RecoveryPolicy::enabled())
        } else {
            MeekConfig::with_little_cores(self.little)
        };
        validate_config(&config).map_err(|e| e.to_string())?;
        Ok(CampaignSpec {
            workloads,
            config,
            faults_per_workload: self.faults,
            faults_per_shard: self.shard_faults,
            insts_per_fault: self.insts_per_fault,
            seed: self.seed,
            trace_events: self.trace,
            sample_stride: self.sample_stride,
            metrics: false,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_job_expands_into_the_spec_its_fields_name() {
        let job = CampaignJob {
            suite: "parsec".into(),
            faults: 10,
            shard_faults: 5,
            recover: true,
            trace: true,
            sample_stride: 16,
            ..CampaignJob::default()
        };
        let spec = job.to_spec().unwrap();
        assert_eq!(spec.workloads.len(), resolve_suite("parsec").unwrap().len());
        assert_eq!(spec.faults_per_workload, 10);
        assert_eq!(spec.faults_per_shard, 5);
        assert_eq!(spec.insts_per_fault, DEFAULT_INSTS_PER_FAULT);
        assert_eq!(spec.config.n_little, 4);
        assert!(spec.config.recovery.enabled, "recover reaches the config");
        assert!(spec.trace_events && spec.sample_stride == 16 && !spec.metrics);
        assert!(spec.shards().len() >= 2);
        let zero = CampaignJob { shard_faults: 0, ..CampaignJob::default() };
        assert!(zero.to_spec().unwrap_err().contains("must be positive"));
    }
}

//! The serve wire protocol: typed job specifications, job status, and
//! client requests, each with a stable hand-written JSON form.
//!
//! Every frame is one JSON object on one line (JSONL). Serialisation
//! is golden-tested byte-for-byte in `tests/proto_goldens.rs`: field
//! order is part of the protocol, and numbers render as plain decimal
//! integers so `u64` seeds survive the round trip exactly.

use crate::json::{escape, Json};
use meek_campaign::{resolve_suite, CampaignSpec};
use meek_core::{validate_config, MeekConfig, RecoveryPolicy};
use std::collections::BTreeMap;
use std::fmt;

/// A campaign job: the same vocabulary as the `meek-campaign` CLI, so
/// a socket-submitted job and a batch run with the same parameters are
/// the *same campaign* — byte-identical records (proved in
/// `tests/serve_e2e.rs`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignJob {
    /// Suite selector (`meek_campaign::resolve_suite` vocabulary).
    pub suite: String,
    /// Faults injected per workload.
    pub faults: usize,
    /// Faults per shard (the checkpoint/stream grain).
    pub shard_faults: usize,
    /// Instruction headroom per queued fault.
    pub insts_per_fault: u64,
    /// Campaign master seed.
    pub seed: u64,
    /// Checker cores per simulated system.
    pub little: usize,
    /// Run with checkpoint/rollback recovery enabled.
    pub recover: bool,
    /// Stream the JSONL event trace (`trace.jsonl` channel).
    pub trace: bool,
    /// Occupancy sample stride (`samples.csv` channel); 0 disables.
    pub sample_stride: u64,
}

impl Default for CampaignJob {
    fn default() -> CampaignJob {
        CampaignJob {
            suite: "specint".to_string(),
            faults: 100,
            shard_faults: meek_campaign::spec::DEFAULT_FAULTS_PER_SHARD,
            insts_per_fault: meek_campaign::spec::DEFAULT_INSTS_PER_FAULT,
            seed: 0,
            little: 4,
            recover: false,
            trace: false,
            sample_stride: 0,
        }
    }
}

impl CampaignJob {
    /// Expands the job into the engine's [`CampaignSpec`], mirroring
    /// the `meek-campaign` CLI's construction exactly.
    ///
    /// # Errors
    ///
    /// Returns a message when the suite or configuration is invalid —
    /// admission-time validation, so a bad job never reaches a worker.
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

/// A difftest job: the `meek-difftest` CLI's case grid, chunked into
/// `batch`-sized units so progress checkpoints at batch granularity.
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
    /// Cases per unit (the checkpoint/stream grain).
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
    /// Validates the job at admission time.
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
            // Program-bearing jobs are statically verified at admission:
            // a job rotating over malformed programs must bounce with a
            // typed message, not crash a worker mid-stream. The rotation
            // is fixed (committed kernels + fused set), so the lint runs
            // once per process.
            if let Some(err) = progs_rotation_lint() {
                return Err(format!("progs rotation failed static analysis: {err}"));
            }
        }
        Ok(())
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

/// A fuzz job: coverage-guided search chunked into `chunk`-iteration
/// units; the corpus is persisted after every chunk, so a restarted
/// daemon resumes the search from the last completed chunk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuzzJob {
    /// Total fuzz iterations across all chunks.
    pub iters: u64,
    /// Master seed (per-chunk seeds derive from it).
    pub seed: u64,
    /// Static instruction count of fuzzed programs.
    pub static_len: usize,
    /// Faults injected per clean candidate.
    pub faults_per_case: usize,
    /// Checker cores.
    pub little: usize,
    /// Coverage-guided (`true`) or purely random baseline.
    pub guided: bool,
    /// Run faults under the recovery oracle.
    pub recover: bool,
    /// Corpus capacity bound.
    pub corpus_cap: usize,
    /// Iterations per unit (the checkpoint grain).
    pub chunk: u64,
}

impl Default for FuzzJob {
    fn default() -> FuzzJob {
        FuzzJob {
            iters: 64,
            seed: 0,
            static_len: 220,
            faults_per_case: 2,
            little: 4,
            guided: true,
            recover: false,
            corpus_cap: 256,
            chunk: 16,
        }
    }
}

impl FuzzJob {
    /// Validates the job at admission time.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending field.
    pub fn validate(&self) -> Result<(), String> {
        if self.iters == 0 || self.chunk == 0 {
            return Err("iters and chunk must be positive".into());
        }
        if self.static_len == 0 {
            return Err("static_len must be positive".into());
        }
        validate_config(&MeekConfig::with_little_cores(self.little))
            .map_err(|e| format!("little: {e}"))?;
        Ok(())
    }
}

/// One job specification, as submitted over the socket.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobSpec {
    /// A sharded fault-injection campaign.
    Campaign(CampaignJob),
    /// A differential-testing case grid.
    Difftest(DifftestJob),
    /// A coverage-guided fuzzing run.
    Fuzz(FuzzJob),
}

impl JobSpec {
    /// The job's kind tag (`campaign` / `difftest` / `fuzz`).
    pub fn kind(&self) -> &'static str {
        match self {
            JobSpec::Campaign(_) => "campaign",
            JobSpec::Difftest(_) => "difftest",
            JobSpec::Fuzz(_) => "fuzz",
        }
    }

    /// Admission-time validation.
    ///
    /// # Errors
    ///
    /// Returns a message describing why the job cannot run.
    pub fn validate(&self) -> Result<(), String> {
        match self {
            JobSpec::Campaign(j) => j.to_spec().map(|_| ()),
            JobSpec::Difftest(j) => j.validate(),
            JobSpec::Fuzz(j) => j.validate(),
        }
    }

    /// The stable one-line JSON form (field order is part of the
    /// protocol; see the golden tests).
    pub fn to_json(&self) -> String {
        match self {
            JobSpec::Campaign(j) => format!(
                "{{\"kind\":\"campaign\",\"suite\":\"{}\",\"faults\":{},\"shard_faults\":{},\
                 \"insts_per_fault\":{},\"seed\":{},\"little\":{},\"recover\":{},\"trace\":{},\
                 \"sample_stride\":{}}}",
                escape(&j.suite),
                j.faults,
                j.shard_faults,
                j.insts_per_fault,
                j.seed,
                j.little,
                j.recover,
                j.trace,
                j.sample_stride
            ),
            JobSpec::Difftest(j) => format!(
                "{{\"kind\":\"difftest\",\"suite\":\"{}\",\"cases\":{},\"seed\":{},\"faults\":{},\
                 \"seg_len\":{},\"static_len\":{},\"little\":{},\"recover\":{},\"batch\":{}}}",
                escape(&j.suite),
                j.cases,
                j.seed,
                j.faults,
                j.seg_len,
                j.static_len,
                j.little,
                j.recover,
                j.batch
            ),
            JobSpec::Fuzz(j) => format!(
                "{{\"kind\":\"fuzz\",\"iters\":{},\"seed\":{},\"static_len\":{},\
                 \"faults_per_case\":{},\"little\":{},\"guided\":{},\"recover\":{},\
                 \"corpus_cap\":{},\"chunk\":{}}}",
                j.iters,
                j.seed,
                j.static_len,
                j.faults_per_case,
                j.little,
                j.guided,
                j.recover,
                j.corpus_cap,
                j.chunk
            ),
        }
    }

    /// Parses a spec from its JSON form. Missing fields take the
    /// kind's defaults, so clients may send sparse specs.
    ///
    /// # Errors
    ///
    /// Returns a message on an unknown kind or malformed field.
    pub fn from_json(v: &Json) -> Result<JobSpec, String> {
        let kind = v.get("kind").and_then(Json::as_str).ok_or("spec needs a `kind`")?;
        match kind {
            "campaign" => {
                let d = CampaignJob::default();
                Ok(JobSpec::Campaign(CampaignJob {
                    suite: field_str(v, "suite", &d.suite)?,
                    faults: field_usize(v, "faults", d.faults)?,
                    shard_faults: field_usize(v, "shard_faults", d.shard_faults)?,
                    insts_per_fault: field_u64(v, "insts_per_fault", d.insts_per_fault)?,
                    seed: field_u64(v, "seed", d.seed)?,
                    little: field_usize(v, "little", d.little)?,
                    recover: field_bool(v, "recover", d.recover)?,
                    trace: field_bool(v, "trace", d.trace)?,
                    sample_stride: field_u64(v, "sample_stride", d.sample_stride)?,
                }))
            }
            "difftest" => {
                let d = DifftestJob::default();
                Ok(JobSpec::Difftest(DifftestJob {
                    suite: field_str(v, "suite", &d.suite)?,
                    cases: field_u64(v, "cases", d.cases)?,
                    seed: field_u64(v, "seed", d.seed)?,
                    faults: field_usize(v, "faults", d.faults)?,
                    seg_len: field_u64(v, "seg_len", d.seg_len)?,
                    static_len: field_usize(v, "static_len", d.static_len)?,
                    little: field_usize(v, "little", d.little)?,
                    recover: field_bool(v, "recover", d.recover)?,
                    batch: field_u64(v, "batch", d.batch)?,
                }))
            }
            "fuzz" => {
                let d = FuzzJob::default();
                Ok(JobSpec::Fuzz(FuzzJob {
                    iters: field_u64(v, "iters", d.iters)?,
                    seed: field_u64(v, "seed", d.seed)?,
                    static_len: field_usize(v, "static_len", d.static_len)?,
                    faults_per_case: field_usize(v, "faults_per_case", d.faults_per_case)?,
                    little: field_usize(v, "little", d.little)?,
                    guided: field_bool(v, "guided", d.guided)?,
                    recover: field_bool(v, "recover", d.recover)?,
                    corpus_cap: field_usize(v, "corpus_cap", d.corpus_cap)?,
                    chunk: field_u64(v, "chunk", d.chunk)?,
                }))
            }
            other => Err(format!("unknown job kind `{other}`")),
        }
    }
}

/// Lifecycle of a job. `Interrupted` is in-memory only: a coordinator
/// that stopped without finishing (daemon quiesce or the
/// `fail_after_units` test hook) leaves `running` on disk, which is
/// what makes the job resume on the next daemon start.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobState {
    /// Admitted, not yet started.
    Queued,
    /// A coordinator is working the job.
    Running,
    /// All units completed.
    Done,
    /// The job aborted with an error.
    Failed(String),
    /// Cancelled by a client.
    Cancelled,
    /// The coordinator stopped mid-job; on disk the job is still
    /// `running` and will resume on the next daemon start.
    Interrupted,
}

impl JobState {
    /// The state's wire name.
    pub fn name(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed(_) => "failed",
            JobState::Cancelled => "cancelled",
            JobState::Interrupted => "interrupted",
        }
    }

    /// Parses a wire name (a `failed` state carries `error` out of
    /// band; see [`JobStatus::from_json`]).
    ///
    /// # Errors
    ///
    /// Returns the unknown name.
    pub fn from_name(name: &str, error: Option<&str>) -> Result<JobState, String> {
        match name {
            "queued" => Ok(JobState::Queued),
            "running" => Ok(JobState::Running),
            "done" => Ok(JobState::Done),
            "failed" => Ok(JobState::Failed(error.unwrap_or("unknown error").to_string())),
            "cancelled" => Ok(JobState::Cancelled),
            "interrupted" => Ok(JobState::Interrupted),
            other => Err(format!("unknown job state `{other}`")),
        }
    }

    /// Whether the job will make no further progress in this daemon.
    pub fn is_terminal(&self) -> bool {
        !matches!(self, JobState::Queued | JobState::Running)
    }
}

impl fmt::Display for JobState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobState::Failed(e) => write!(f, "failed: {e}"),
            other => f.write_str(other.name()),
        }
    }
}

/// A job's observable state: identity, lifecycle, progress watermark,
/// and the kind-specific counters its units have accumulated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobStatus {
    /// Job id (dense, assigned at submit).
    pub id: u64,
    /// Kind tag.
    pub kind: String,
    /// Lifecycle state.
    pub state: JobState,
    /// Scheduling priority (higher first).
    pub priority: i64,
    /// Total units (shards / batches / chunks) in the job.
    pub units_total: u64,
    /// Units completed and checkpointed.
    pub units_done: u64,
    /// Kind-specific counters (sorted by key on the wire).
    pub counters: BTreeMap<String, u64>,
}

impl JobStatus {
    /// The stable one-line JSON form.
    pub fn to_json(&self) -> String {
        let mut counters = String::new();
        for (i, (k, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                counters.push(',');
            }
            counters.push_str(&format!("\"{}\":{}", escape(k), v));
        }
        let error = match &self.state {
            JobState::Failed(e) => format!("\"{}\"", escape(e)),
            _ => "null".to_string(),
        };
        format!(
            "{{\"id\":{},\"kind\":\"{}\",\"state\":\"{}\",\"priority\":{},\"units_total\":{},\
             \"units_done\":{},\"counters\":{{{}}},\"error\":{}}}",
            self.id,
            escape(&self.kind),
            self.state.name(),
            self.priority,
            self.units_total,
            self.units_done,
            counters,
            error
        )
    }

    /// Parses a status frame.
    ///
    /// # Errors
    ///
    /// Returns a message on a missing or malformed field.
    pub fn from_json(v: &Json) -> Result<JobStatus, String> {
        let id = v.get("id").and_then(Json::as_u64).ok_or("status needs an `id`")?;
        let kind = v.get("kind").and_then(Json::as_str).ok_or("status needs a `kind`")?;
        let state_name = v.get("state").and_then(Json::as_str).ok_or("status needs a `state`")?;
        let error = v.get("error").and_then(Json::as_str);
        let mut counters = BTreeMap::new();
        if let Some(members) = v.get("counters").and_then(Json::as_obj) {
            for (k, val) in members {
                counters.insert(k.clone(), val.as_u64().ok_or_else(|| format!("counter `{k}`"))?);
            }
        }
        Ok(JobStatus {
            id,
            kind: kind.to_string(),
            state: JobState::from_name(state_name, error)?,
            priority: v.get("priority").and_then(Json::as_i64).unwrap_or(0),
            units_total: v.get("units_total").and_then(Json::as_u64).unwrap_or(0),
            units_done: v.get("units_done").and_then(Json::as_u64).unwrap_or(0),
            counters,
        })
    }
}

/// A streamed output channel of a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Channel {
    /// Campaign detection records (`records.csv`).
    Records,
    /// Campaign JSONL event trace (`trace.jsonl`).
    Trace,
    /// Campaign occupancy time series (`samples.csv`).
    Samples,
    /// Difftest case results / fuzz chunk reports (`results.jsonl`).
    Results,
}

impl Channel {
    /// The channel's wire name.
    pub fn name(self) -> &'static str {
        match self {
            Channel::Records => "records",
            Channel::Trace => "trace",
            Channel::Samples => "samples",
            Channel::Results => "results",
        }
    }

    /// The spool file the channel streams from.
    pub fn file_name(self) -> &'static str {
        match self {
            Channel::Records => "records.csv",
            Channel::Trace => "trace.jsonl",
            Channel::Samples => "samples.csv",
            Channel::Results => "results.jsonl",
        }
    }

    /// Parses a wire name.
    ///
    /// # Errors
    ///
    /// Returns the unknown name.
    pub fn from_name(name: &str) -> Result<Channel, String> {
        match name {
            "records" => Ok(Channel::Records),
            "trace" => Ok(Channel::Trace),
            "samples" => Ok(Channel::Samples),
            "results" => Ok(Channel::Results),
            other => Err(format!("unknown channel `{other}`")),
        }
    }
}

/// One client request line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Admit a job.
    Submit {
        /// The job to run.
        spec: JobSpec,
        /// Scheduling priority (higher first; 0 default).
        priority: i64,
    },
    /// Report one job's status, or all jobs'.
    Status {
        /// Restrict to one job.
        job: Option<u64>,
    },
    /// Cancel a job.
    Cancel {
        /// The job to cancel.
        job: u64,
    },
    /// Stream a job's output channel from a byte offset.
    Tail {
        /// The job to tail.
        job: u64,
        /// Which output channel.
        channel: Channel,
        /// Starting byte offset into the channel file.
        from: u64,
        /// Keep streaming until the job is terminal.
        follow: bool,
    },
    /// Stream daemon metrics (one snapshot, or a feed with `follow`).
    Metrics {
        /// Keep emitting snapshots until the client disconnects.
        follow: bool,
        /// Milliseconds between snapshots when following.
        interval_ms: u64,
        /// Emit Prometheus text exposition instead of JSON snapshots.
        prom: bool,
    },
    /// Stop accepting work and exit once running units checkpoint.
    Shutdown,
}

impl Request {
    /// The stable one-line JSON form.
    pub fn to_json(&self) -> String {
        match self {
            Request::Submit { spec, priority } => {
                format!(
                    "{{\"cmd\":\"submit\",\"priority\":{priority},\"spec\":{}}}",
                    spec.to_json()
                )
            }
            Request::Status { job: None } => "{\"cmd\":\"status\"}".to_string(),
            Request::Status { job: Some(id) } => format!("{{\"cmd\":\"status\",\"job\":{id}}}"),
            Request::Cancel { job } => format!("{{\"cmd\":\"cancel\",\"job\":{job}}}"),
            Request::Tail { job, channel, from, follow } => format!(
                "{{\"cmd\":\"tail\",\"job\":{job},\"channel\":\"{}\",\"from\":{from},\
                 \"follow\":{follow}}}",
                channel.name()
            ),
            Request::Metrics { follow, interval_ms, prom } => {
                format!(
                    "{{\"cmd\":\"metrics\",\"follow\":{follow},\"interval_ms\":{interval_ms},\
                     \"prom\":{prom}}}"
                )
            }
            Request::Shutdown => "{\"cmd\":\"shutdown\"}".to_string(),
        }
    }

    /// Parses a request line.
    ///
    /// # Errors
    ///
    /// Returns a message on an unknown command or malformed field.
    pub fn from_line(line: &str) -> Result<Request, String> {
        let v = Json::parse(line)?;
        let cmd = v.get("cmd").and_then(Json::as_str).ok_or("request needs a `cmd`")?;
        match cmd {
            "submit" => {
                let spec_v = v.get("spec").ok_or("submit needs a `spec`")?;
                Ok(Request::Submit {
                    spec: JobSpec::from_json(spec_v)?,
                    priority: v.get("priority").and_then(Json::as_i64).unwrap_or(0),
                })
            }
            "status" => Ok(Request::Status { job: v.get("job").and_then(Json::as_u64) }),
            "cancel" => Ok(Request::Cancel {
                job: v.get("job").and_then(Json::as_u64).ok_or("cancel needs a `job`")?,
            }),
            "tail" => Ok(Request::Tail {
                job: v.get("job").and_then(Json::as_u64).ok_or("tail needs a `job`")?,
                channel: Channel::from_name(
                    v.get("channel").and_then(Json::as_str).unwrap_or("records"),
                )?,
                from: v.get("from").and_then(Json::as_u64).unwrap_or(0),
                follow: v.get("follow").and_then(Json::as_bool).unwrap_or(false),
            }),
            "metrics" => Ok(Request::Metrics {
                follow: v.get("follow").and_then(Json::as_bool).unwrap_or(false),
                interval_ms: v.get("interval_ms").and_then(Json::as_u64).unwrap_or(1000),
                prom: v.get("prom").and_then(Json::as_bool).unwrap_or(false),
            }),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(format!("unknown command `{other}`")),
        }
    }
}

fn field_u64(v: &Json, key: &str, default: u64) -> Result<u64, String> {
    match v.get(key) {
        None => Ok(default),
        Some(f) => f.as_u64().ok_or_else(|| format!("`{key}` must be a non-negative integer")),
    }
}

fn field_usize(v: &Json, key: &str, default: usize) -> Result<usize, String> {
    field_u64(v, key, default as u64).map(|n| n as usize)
}

fn field_bool(v: &Json, key: &str, default: bool) -> Result<bool, String> {
    match v.get(key) {
        None => Ok(default),
        Some(f) => f.as_bool().ok_or_else(|| format!("`{key}` must be a boolean")),
    }
}

fn field_str(v: &Json, key: &str, default: &str) -> Result<String, String> {
    match v.get(key) {
        None => Ok(default.to_string()),
        Some(f) => {
            f.as_str().map(str::to_string).ok_or_else(|| format!("`{key}` must be a string"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn campaign_spec_mirrors_the_cli_construction() {
        let job = CampaignJob {
            suite: "parsec".into(),
            faults: 10,
            shard_faults: 5,
            recover: true,
            ..CampaignJob::default()
        };
        let spec = job.to_spec().unwrap();
        assert_eq!(spec.faults_per_workload, 10);
        assert_eq!(spec.faults_per_shard, 5);
        assert!(spec.config.recovery.enabled, "recover flag reaches the config");
        assert!(job.to_spec().unwrap().shards().len() >= 2);
    }

    #[test]
    fn invalid_jobs_are_rejected_at_admission() {
        let bad_suite =
            JobSpec::Campaign(CampaignJob { suite: "nope".into(), ..CampaignJob::default() });
        assert!(bad_suite.validate().unwrap_err().contains("unknown benchmark"));
        let zero_cases = JobSpec::Difftest(DifftestJob { cases: 0, ..DifftestJob::default() });
        assert!(zero_cases.validate().is_err());
        let bad_dt_suite =
            JobSpec::Difftest(DifftestJob { suite: "specint".into(), ..DifftestJob::default() });
        assert!(bad_dt_suite.validate().unwrap_err().contains("want fuzz or progs"));
        let progs =
            JobSpec::Difftest(DifftestJob { suite: "progs".into(), ..DifftestJob::default() });
        assert!(progs.validate().is_ok());
        let zero_chunk = JobSpec::Fuzz(FuzzJob { chunk: 0, ..FuzzJob::default() });
        assert!(zero_chunk.validate().is_err());
    }

    #[test]
    fn little_core_counts_a_destination_mask_cannot_address_are_rejected_at_admission() {
        let msg = "17 little cores requested, but MEEK addresses at most 16";
        let v = Json::parse(r#"{"kind":"difftest","little":17}"#).unwrap();
        let difftest = JobSpec::from_json(&v).unwrap();
        assert_eq!(difftest.validate().unwrap_err(), format!("little: {msg}"));
        let fuzz = JobSpec::Fuzz(FuzzJob { little: 17, ..FuzzJob::default() });
        assert_eq!(fuzz.validate().unwrap_err(), format!("little: {msg}"));
        let campaign = JobSpec::Campaign(CampaignJob { little: 17, ..CampaignJob::default() });
        assert_eq!(campaign.validate().unwrap_err(), msg);
        let sixteen = JobSpec::Difftest(DifftestJob { little: 16, ..DifftestJob::default() });
        assert!(sixteen.validate().is_ok());
    }

    #[test]
    fn sparse_specs_take_defaults() {
        let v = Json::parse(r#"{"kind":"fuzz","iters":8}"#).unwrap();
        let JobSpec::Fuzz(job) = JobSpec::from_json(&v).unwrap() else { panic!("kind") };
        assert_eq!(job.iters, 8);
        assert_eq!(job.chunk, FuzzJob::default().chunk);
        assert_eq!(job.corpus_cap, FuzzJob::default().corpus_cap);
    }

    #[test]
    fn job_state_wire_names_round_trip() {
        for state in [
            JobState::Queued,
            JobState::Running,
            JobState::Done,
            JobState::Cancelled,
            JobState::Interrupted,
        ] {
            assert_eq!(JobState::from_name(state.name(), None).unwrap(), state);
        }
        let failed = JobState::from_name("failed", Some("boom")).unwrap();
        assert_eq!(failed, JobState::Failed("boom".into()));
        assert!(failed.is_terminal() && !JobState::Running.is_terminal());
    }
}

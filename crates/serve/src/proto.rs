//! The serve wire protocol: each job's JSON form, job status, and client
//! requests, each with a stable hand-written JSON form.
//!
//! The job types live in the crates that run them, shared with their
//! CLIs: [`CampaignJob`] in `meek-campaign`, [`DifftestJob`] in
//! `meek-difftest`, and a fuzz job is `meek-fuzz`'s [`FuzzSettings`]
//! plus its chunk grain. This module only reads and writes them.
//!
//! Every frame is one JSON object on one line (JSONL). Serialisation
//! is golden-tested byte-for-byte in `tests/proto_goldens.rs`: field
//! order is part of the protocol, and numbers render as plain decimal
//! integers so `u64` seeds survive the round trip exactly.

use crate::json::{escape, Json};
pub use meek_campaign::CampaignJob;
pub use meek_difftest::DifftestJob;
pub use meek_fuzz::FuzzSettings;
use std::collections::BTreeMap;
use std::fmt;

/// A fuzz job's chunk when its spec names none.
pub const FUZZ_CHUNK: u64 = 16;

/// A fuzz job's settings where its spec leaves them out: 64 iterations
/// and a 256-entry corpus, the engine's defaults elsewhere.
pub fn fuzz_defaults() -> FuzzSettings {
    FuzzSettings { iters: 64, corpus_cap: 256, ..FuzzSettings::default() }
}

/// One job specification, as submitted over the socket.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobSpec {
    /// A sharded fault-injection campaign.
    Campaign(CampaignJob),
    /// A differential-testing case grid, `batch` cases per unit.
    Difftest(DifftestJob),
    /// A coverage-guided fuzzing run in `chunk`-iteration units; the
    /// corpus is persisted after every chunk, so a restarted daemon
    /// resumes the search from the last completed chunk. Each chunk
    /// runs on one thread, without shrinking, in the engine's default
    /// rounds: the wire carries no `threads`, `minimize` or `batch`.
    Fuzz {
        /// The search.
        settings: FuzzSettings,
        /// Iterations per unit (the checkpoint grain).
        chunk: u64,
    },
}

impl JobSpec {
    /// The job's kind tag (`campaign` / `difftest` / `fuzz`).
    pub fn kind(&self) -> &'static str {
        match self {
            JobSpec::Campaign(_) => "campaign",
            JobSpec::Difftest(_) => "difftest",
            JobSpec::Fuzz { .. } => "fuzz",
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
            JobSpec::Fuzz { settings, chunk } => {
                settings.validate()?;
                if *chunk == 0 {
                    return Err("chunk must be positive".into());
                }
                Ok(())
            }
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
            JobSpec::Fuzz { settings: s, chunk } => format!(
                "{{\"kind\":\"fuzz\",\"iters\":{},\"seed\":{},\"static_len\":{},\
                 \"faults_per_case\":{},\"little\":{},\"guided\":{},\"recover\":{},\
                 \"corpus_cap\":{},\"chunk\":{}}}",
                s.iters,
                s.seed,
                s.static_len,
                s.faults_per_case,
                s.n_little,
                s.guided,
                s.recover,
                s.corpus_cap,
                chunk
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
                let d = fuzz_defaults();
                Ok(JobSpec::Fuzz {
                    settings: FuzzSettings {
                        iters: field_u64(v, "iters", d.iters)?,
                        seed: field_u64(v, "seed", d.seed)?,
                        static_len: field_usize(v, "static_len", d.static_len)?,
                        faults_per_case: field_usize(v, "faults_per_case", d.faults_per_case)?,
                        n_little: field_usize(v, "little", d.n_little)?,
                        guided: field_bool(v, "guided", d.guided)?,
                        recover: field_bool(v, "recover", d.recover)?,
                        corpus_cap: field_usize(v, "corpus_cap", d.corpus_cap)?,
                        ..d
                    },
                    chunk: field_u64(v, "chunk", FUZZ_CHUNK)?,
                })
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
        let zero_chunk = JobSpec::Fuzz { settings: fuzz_defaults(), chunk: 0 };
        assert!(zero_chunk.validate().is_err());
    }

    #[test]
    fn little_core_counts_a_destination_mask_cannot_address_are_rejected_at_admission() {
        let msg = "17 little cores requested, but MEEK addresses at most 16";
        let v = Json::parse(r#"{"kind":"difftest","little":17}"#).unwrap();
        let difftest = JobSpec::from_json(&v).unwrap();
        assert_eq!(difftest.validate().unwrap_err(), format!("little: {msg}"));
        let settings = FuzzSettings { n_little: 17, ..fuzz_defaults() };
        let fuzz = JobSpec::Fuzz { settings, chunk: FUZZ_CHUNK };
        assert_eq!(fuzz.validate().unwrap_err(), format!("little: {msg}"));
        let campaign = JobSpec::Campaign(CampaignJob { little: 17, ..CampaignJob::default() });
        assert_eq!(campaign.validate().unwrap_err(), msg);
        let sixteen = JobSpec::Difftest(DifftestJob { little: 16, ..DifftestJob::default() });
        assert!(sixteen.validate().is_ok());
    }

    #[test]
    fn sparse_specs_take_defaults() {
        let v = Json::parse(r#"{"kind":"fuzz","iters":8}"#).unwrap();
        let JobSpec::Fuzz { settings, chunk } = JobSpec::from_json(&v).unwrap() else {
            panic!("kind")
        };
        assert_eq!(settings, FuzzSettings { iters: 8, ..fuzz_defaults() });
        assert_eq!(chunk, FUZZ_CHUNK);
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

//! The on-disk spool: one directory per job holding its spec, its
//! streamed output files, and an atomically-updated progress state —
//! everything a restarted daemon needs to resume mid-job.
//!
//! Layout, under the spool root:
//!
//! ```text
//! job-000001/
//!   job.json      # {"priority":N,"spec":{...}}   written once at admission
//!   state.json    # watermark + output offsets + counters; tmp+rename
//!   records.csv   # campaign detection records   (streamed, resumable)
//!   trace.jsonl   # campaign event trace         (streamed, resumable)
//!   samples.csv   # campaign occupancy series    (streamed, resumable)
//!   results.jsonl # difftest cases / fuzz chunks (streamed, resumable)
//!   corpus-NNNNNN/ # fuzz corpus generation N (immutable once staged)
//!   corpus/       # final fuzz corpus, published on done/cancelled
//! ```
//!
//! The durability contract: `state.json` is written *after* the unit's
//! output bytes are flushed, via write-to-temp + rename, so its
//! recorded offsets never exceed the real file lengths. On resume,
//! output files are truncated back to the recorded offsets — any bytes
//! a dying daemon wrote past its last checkpoint are discarded, and the
//! units that produced them re-run. Units are pure functions of the
//! spec, so the re-run bytes equal the discarded ones and a resumed
//! job's output is byte-identical to an uninterrupted run (proved in
//! `tests/serve_e2e.rs`).

use crate::proto::{u64_map, JobSpec, JobState};
use meek_telemetry::{obj, Json};
use std::collections::BTreeMap;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// A job's checkpointed progress, as stored in `state.json`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobProgress {
    /// On-disk lifecycle state (`queued`/`running`/`done`/`failed`/
    /// `cancelled` — never `interrupted`, which is in-memory only).
    pub state: JobState,
    /// Units completed and durable.
    pub units_done: u64,
    /// Total units in the job.
    pub units_total: u64,
    /// Durable byte length of each output file.
    pub offsets: BTreeMap<String, u64>,
    /// Accumulated kind-specific counters.
    pub counters: BTreeMap<String, u64>,
}

impl JobProgress {
    /// A fresh queued job.
    pub fn queued() -> JobProgress {
        JobProgress {
            state: JobState::Queued,
            units_done: 0,
            units_total: 0,
            offsets: BTreeMap::new(),
            counters: BTreeMap::new(),
        }
    }

    fn to_json(&self) -> String {
        let error = self.state.error().map_or(Json::Null, Json::from);
        obj! {
            "state": self.state.name(), "units_done": self.units_done,
            "units_total": self.units_total, "offsets": &self.offsets,
            "counters": &self.counters, "error": error,
        }
        .render()
    }

    fn from_json(v: &Json) -> Result<JobProgress, String> {
        let state_name = v.get("state").and_then(Json::as_str).ok_or("state.json needs `state`")?;
        let error = v.get("error").and_then(Json::as_str);
        Ok(JobProgress {
            state: JobState::from_name(state_name, error)?,
            units_done: v.get("units_done").and_then(Json::as_u64).unwrap_or(0),
            units_total: v.get("units_total").and_then(Json::as_u64).unwrap_or(0),
            offsets: u64_map(v, "offsets")?,
            counters: u64_map(v, "counters")?,
        })
    }
}

/// One admitted job as recovered from a spool scan.
#[derive(Debug)]
pub struct SpooledJob {
    /// Job id (from the directory name).
    pub id: u64,
    /// The submitted spec.
    pub spec: JobSpec,
    /// Scheduling priority.
    pub priority: i64,
    /// Last checkpointed progress.
    pub progress: JobProgress,
}

/// The spool root directory.
#[derive(Debug, Clone)]
pub struct Spool {
    root: PathBuf,
}

impl Spool {
    /// Opens (creating if needed) a spool root.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation failures.
    pub fn open(root: impl Into<PathBuf>) -> io::Result<Spool> {
        let root = root.into();
        fs::create_dir_all(&root)?;
        Ok(Spool { root })
    }

    /// The spool root path.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The directory of job `id`.
    pub fn job_dir(&self, id: u64) -> PathBuf {
        self.root.join(format!("job-{id:06}"))
    }

    /// Admits a job: allocates the next id and persists `job.json`
    /// plus a queued `state.json`. Ids are reserved by creating the
    /// job directory with `create_dir`, which is atomic at the
    /// filesystem level — concurrent submits (even from separate
    /// processes sharing a spool) can never allocate the same id; a
    /// loser of the race simply moves on to the next id.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures.
    pub fn create_job(&self, spec: &JobSpec, priority: i64) -> io::Result<u64> {
        let mut id = self.next_id()?;
        loop {
            match fs::create_dir(self.job_dir(id)) {
                Ok(()) => break,
                Err(e) if e.kind() == io::ErrorKind::AlreadyExists => id += 1,
                Err(e) => return Err(e),
            }
        }
        let dir = self.job_dir(id);
        let job = obj! { "priority": priority, "spec": spec };
        write_atomic(&dir.join("job.json"), format!("{}\n", job.render()).as_bytes())?;
        write_state(&dir, &JobProgress::queued())?;
        Ok(id)
    }

    /// Scans the spool for every job, sorted by id.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures; a malformed job directory is an
    /// [`io::ErrorKind::InvalidData`] error naming the directory.
    pub fn scan(&self) -> io::Result<Vec<SpooledJob>> {
        let mut jobs = Vec::new();
        for entry in fs::read_dir(&self.root)? {
            let entry = entry?;
            let name = entry.file_name();
            let Some(id) = name.to_str().and_then(parse_job_dir_name) else { continue };
            jobs.push(self.load_job(id).map_err(|e| {
                io::Error::new(io::ErrorKind::InvalidData, format!("job-{id:06}: {e}"))
            })?);
        }
        jobs.sort_by_key(|j| j.id);
        Ok(jobs)
    }

    /// Loads one job's spec and progress.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures and malformed spool files.
    pub fn load_job(&self, id: u64) -> io::Result<SpooledJob> {
        let dir = self.job_dir(id);
        let job_text = fs::read_to_string(dir.join("job.json"))?;
        let job_v = Json::parse(job_text.trim()).map_err(invalid)?;
        let spec_v = job_v.get("spec").ok_or_else(|| invalid("job.json needs `spec`"))?;
        let spec = JobSpec::from_json(spec_v).map_err(invalid)?;
        let priority = job_v.get("priority").and_then(Json::as_i64).unwrap_or(0);
        let progress = read_state(&dir)?;
        Ok(SpooledJob { id, spec, priority, progress })
    }

    fn next_id(&self) -> io::Result<u64> {
        let mut max = 0;
        for entry in fs::read_dir(&self.root)? {
            let name = entry?.file_name();
            if let Some(id) = name.to_str().and_then(parse_job_dir_name) {
                max = max.max(id);
            }
        }
        Ok(max + 1)
    }
}

fn parse_job_dir_name(name: &str) -> Option<u64> {
    name.strip_prefix("job-")?.parse().ok()
}

fn invalid(e: impl ToString) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e.to_string())
}

/// Writes a job's `state.json` durably: temp file, flush, sync, rename.
///
/// # Errors
///
/// Propagates filesystem failures.
pub fn write_state(dir: &Path, progress: &JobProgress) -> io::Result<()> {
    write_atomic(&dir.join("state.json"), format!("{}\n", progress.to_json()).as_bytes())
}

/// Reads a job's `state.json`.
///
/// # Errors
///
/// Propagates filesystem failures and malformed state files.
pub fn read_state(dir: &Path) -> io::Result<JobProgress> {
    let text = fs::read_to_string(dir.join("state.json"))?;
    let v = Json::parse(text.trim()).map_err(invalid)?;
    JobProgress::from_json(&v).map_err(invalid)
}

/// Truncates every output file back to its checkpointed offset (and
/// any file *not* in the offset map to zero) — the resume path's
/// discard of un-checkpointed bytes. Missing files are fine.
///
/// # Errors
///
/// Propagates filesystem failures.
pub fn truncate_outputs(dir: &Path, offsets: &BTreeMap<String, u64>) -> io::Result<()> {
    for name in ["records.csv", "trace.jsonl", "samples.csv", "results.jsonl"] {
        let len = offsets.get(name).copied().unwrap_or(0);
        match OpenOptions::new().write(true).open(dir.join(name)) {
            Ok(f) => f.set_len(len)?,
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Creates an output file if absent (empty), so a job's channel files
/// exist from admission — matching the batch CLIs, which create their
/// output files up front, and giving `tail` something to follow.
///
/// # Errors
///
/// Propagates filesystem failures.
pub fn touch_output(dir: &Path, name: &str) -> io::Result<()> {
    OpenOptions::new().create(true).append(true).open(dir.join(name)).map(|_| ())
}

/// Appends one unit's bytes to an output file and syncs them to disk
/// (the checkpoint that follows must never point past real data).
///
/// # Errors
///
/// Propagates filesystem failures.
pub fn append_output(dir: &Path, name: &str, bytes: &[u8]) -> io::Result<()> {
    if bytes.is_empty() {
        return Ok(());
    }
    let mut f = OpenOptions::new().create(true).append(true).open(dir.join(name))?;
    f.write_all(bytes)?;
    f.sync_data()
}

fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = path.with_extension("tmp");
    {
        let mut f = File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_data()?;
    }
    fs::rename(&tmp, path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{fuzz_defaults, CampaignJob, FUZZ_CHUNK};
    use std::sync::atomic::{AtomicU32, Ordering};

    fn scratch(tag: &str) -> PathBuf {
        static N: AtomicU32 = AtomicU32::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("meek-serve-spool-{tag}-{}-{n}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn jobs_round_trip_through_the_spool() {
        let root = scratch("roundtrip");
        let spool = Spool::open(&root).unwrap();
        let campaign = JobSpec::Campaign(CampaignJob { seed: u64::MAX, ..CampaignJob::default() });
        let fuzz = JobSpec::Fuzz { settings: fuzz_defaults(), chunk: FUZZ_CHUNK };
        assert_eq!(spool.create_job(&campaign, 5).unwrap(), 1);
        assert_eq!(spool.create_job(&fuzz, -1).unwrap(), 2);
        let jobs = spool.scan().unwrap();
        assert_eq!(jobs.len(), 2);
        assert_eq!(jobs[0].spec, campaign, "u64::MAX seed survives");
        assert_eq!(jobs[0].priority, 5);
        assert_eq!(jobs[1].priority, -1);
        assert_eq!(jobs[0].progress, JobProgress::queued());
        // Ids keep ascending across a re-open (a restart).
        let reopened = Spool::open(&root).unwrap();
        assert_eq!(reopened.create_job(&fuzz, 0).unwrap(), 3);
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn concurrent_submits_allocate_distinct_ids() {
        let root = scratch("race");
        let spool = Spool::open(&root).unwrap();
        let spec = JobSpec::Fuzz { settings: fuzz_defaults(), chunk: FUZZ_CHUNK };
        let ids: Vec<u64> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    let spool = spool.clone();
                    let spec = spec.clone();
                    s.spawn(move || spool.create_job(&spec, 0).unwrap())
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let distinct: std::collections::BTreeSet<u64> = ids.iter().copied().collect();
        assert_eq!(distinct.len(), ids.len(), "racing submits shared an id: {ids:?}");
        assert_eq!(spool.scan().unwrap().len(), ids.len(), "every job directory is intact");
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn state_checkpoints_round_trip() {
        let root = scratch("state");
        let spool = Spool::open(&root).unwrap();
        let id = spool
            .create_job(&JobSpec::Fuzz { settings: fuzz_defaults(), chunk: FUZZ_CHUNK }, 0)
            .unwrap();
        let dir = spool.job_dir(id);
        let mut progress = JobProgress::queued();
        progress.state = JobState::Running;
        progress.units_done = 3;
        progress.units_total = 7;
        progress.offsets.insert("records.csv".into(), 120);
        progress.counters.insert("detected".into(), 42);
        write_state(&dir, &progress).unwrap();
        assert_eq!(read_state(&dir).unwrap(), progress);
        progress.state = JobState::Failed("late unit".into());
        write_state(&dir, &progress).unwrap();
        assert_eq!(read_state(&dir).unwrap(), progress);
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn truncate_discards_bytes_past_the_checkpoint() {
        let root = scratch("truncate");
        let spool = Spool::open(&root).unwrap();
        let id = spool
            .create_job(&JobSpec::Fuzz { settings: fuzz_defaults(), chunk: FUZZ_CHUNK }, 0)
            .unwrap();
        let dir = spool.job_dir(id);
        append_output(&dir, "records.csv", b"header\nrow1\nrow2-partial").unwrap();
        append_output(&dir, "trace.jsonl", b"{}\n{}\n").unwrap();
        let mut offsets = BTreeMap::new();
        offsets.insert("records.csv".to_string(), 12); // "header\nrow1\n"
        truncate_outputs(&dir, &offsets).unwrap();
        assert_eq!(fs::read(dir.join("records.csv")).unwrap(), b"header\nrow1\n");
        // trace.jsonl had no checkpointed offset: fully discarded.
        assert_eq!(fs::read(dir.join("trace.jsonl")).unwrap(), b"");
        fs::remove_dir_all(&root).unwrap();
    }
}

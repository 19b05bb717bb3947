//! Job coordinators: one per admitted job, turning a [`JobSpec`] into
//! units on the shared pool and committing each unit's output to the
//! spool in deterministic order.
//!
//! The unit is the checkpoint grain: a campaign shard, a difftest case
//! batch, or a fuzz chunk. Units are pure functions of the spec (and,
//! for fuzz, of the immutable input corpus generation the checkpoint
//! names), so the commit protocol — append output bytes, sync, then
//! atomically advance `state.json` — makes every job resumable with
//! byte-identical output: whatever a dying daemon wrote past its last
//! checkpoint is truncated on resume and recomputed identically.
//!
//! A campaign unit is one [`ShardResult`]: the shard renders its
//! records and samples itself, as it does for `meek-campaign`, and its
//! counters fold into the job's with [`ShardSummary::add`], so the
//! spool files and counters equal a batch run's.
//!
//! Campaign and difftest units run *concurrently* with a bounded
//! submit-ahead window (the same backpressure idea as
//! `meek-campaign --stream-window`): the coordinator never has more
//! than `window` units in flight, so completed-but-uncommitted results
//! occupy O(window) memory while results are still re-sequenced into
//! deterministic unit order. Fuzz chunks are sequentially dependent
//! (each feeds the next its corpus) and run one at a time.

use crate::proto::{CampaignJob, DifftestJob, FuzzSettings, JobSpec, JobState, JobStatus};
use crate::sched::PoolHandle;
use crate::spool::{read_state, touch_output, truncate_outputs, write_state, JobProgress};
use meek_campaign::{run_shard, splitmix, ShardResult, ShardSummary};
use meek_core::FaultSpec;
use meek_difftest::{run_case, CaseReport, FaultOutcome, RecoveryVerdict, Suite, Tally};
use meek_fuzz::{run_fuzz, Corpus, FeatureSet};
use meek_telemetry::{obj, Json};
use meek_workloads::WorkloadCache;
use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};

/// Everything a coordinator needs from the daemon.
pub struct JobContext {
    /// Job id.
    pub id: u64,
    /// The job's spool directory.
    pub dir: PathBuf,
    /// Scheduling priority for this job's units.
    pub priority: i64,
    /// Submit-ahead bound (units in flight); clamped to at least 1.
    pub window: usize,
    /// The shared pool.
    pub pool: PoolHandle,
    /// Set by a client `cancel`.
    pub cancel: Arc<AtomicBool>,
    /// Set by daemon shutdown: stop at the next unit boundary, leaving
    /// the job `running` on disk so the next start resumes it.
    pub quiesce: Arc<AtomicBool>,
    /// Test hook: behave like a crash after committing this many units
    /// *in this run* (the restart-resume tests and the CI smoke).
    pub fail_after_units: Option<u64>,
    /// Live status shared with the daemon's registry.
    pub status: Arc<Mutex<JobStatus>>,
}

/// How a coordinator's unit loop ended.
enum LoopEnd {
    Completed,
    Cancelled,
    Interrupted,
}

/// Runs a job to a terminal state, checkpointing as it goes. The
/// returned state is the in-memory one (`Interrupted` stays `running`
/// on disk); on error the job is marked `failed` both places.
pub fn run_job(spec: &JobSpec, ctx: &JobContext) -> JobState {
    let result = spec.validate().and_then(|()| match spec {
        JobSpec::Campaign(job) => run_campaign_job(job, ctx),
        JobSpec::Difftest(job) => run_difftest_job(job, ctx),
        JobSpec::Fuzz { settings, chunk } => run_fuzz_job(settings, *chunk, ctx),
    });
    let state = match result {
        Ok(state) => state,
        Err(e) => {
            let failed = JobState::Failed(e);
            if let Ok(mut progress) = read_state(&ctx.dir) {
                progress.state = failed.clone();
                let _ = write_state(&ctx.dir, &progress);
            }
            failed
        }
    };
    set_status_state(ctx, state.clone());
    state
}

fn set_status_state(ctx: &JobContext, state: JobState) {
    ctx.status.lock().expect("status lock").state = state;
}

fn publish_progress(ctx: &JobContext, progress: &JobProgress, state: JobState) {
    let mut status = ctx.status.lock().expect("status lock");
    status.state = state;
    status.units_total = progress.units_total;
    status.units_done = progress.units_done;
    status.counters = progress.counters.clone();
}

/// Best-effort text of a panic payload (for job failure messages).
fn panic_text(payload: &(dyn std::any::Any + Send)) -> &str {
    payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("non-string panic payload")
}

fn bump(counters: &mut BTreeMap<String, u64>, key: &str, delta: u64) {
    *counters.entry(key.to_string()).or_insert(0) += delta;
}

/// Loads progress, truncates outputs back to the checkpoint, and
/// marks the job running on disk — the common prologue.
fn start_progress(ctx: &JobContext, units_total: u64) -> Result<JobProgress, String> {
    let mut progress = read_state(&ctx.dir).map_err(|e| e.to_string())?;
    progress.units_total = units_total;
    progress.state = JobState::Running;
    truncate_outputs(&ctx.dir, &progress.offsets).map_err(|e| e.to_string())?;
    write_state(&ctx.dir, &progress).map_err(|e| e.to_string())?;
    publish_progress(ctx, &progress, JobState::Running);
    Ok(progress)
}

/// The common epilogue: persist the terminal state (except
/// `Interrupted`, which must stay `running` on disk to resume).
fn finish_progress(
    ctx: &JobContext,
    progress: &mut JobProgress,
    end: LoopEnd,
) -> Result<JobState, String> {
    let state = match end {
        LoopEnd::Completed => JobState::Done,
        LoopEnd::Cancelled => JobState::Cancelled,
        LoopEnd::Interrupted => JobState::Interrupted,
    };
    if !matches!(state, JobState::Interrupted) {
        progress.state = state.clone();
        write_state(&ctx.dir, progress).map_err(|e| e.to_string())?;
    }
    publish_progress(ctx, progress, state.clone());
    Ok(state)
}

/// Windowed unit loop shared by campaign and difftest: submit up to
/// `window` units ahead, re-sequence results into unit order, commit
/// each in order. `make_unit` builds the (pure, `'static`) work for a
/// unit index; `commit` appends its output and advances the checkpoint.
fn run_units<T: Send + 'static>(
    ctx: &JobContext,
    total: u64,
    start: u64,
    make_unit: impl Fn(u64) -> Box<dyn FnOnce() -> T + Send>,
    mut commit: impl FnMut(u64, T) -> Result<(), String>,
) -> Result<LoopEnd, String> {
    let window = ctx.window.max(1) as u64;
    // Units send a `Result`: the work runs under `catch_unwind`, so a
    // panicking unit reaches the coordinator as an error (failing the
    // job) instead of a silently missing message that would leave this
    // loop blocked on `recv` forever.
    let (tx, rx) = mpsc::channel::<(u64, std::thread::Result<T>)>();
    let mut next = start;
    let mut emitted = start;
    let mut emitted_this_run = 0u64;
    let mut parked: BTreeMap<u64, T> = BTreeMap::new();
    while emitted < total {
        if ctx.cancel.load(Ordering::Acquire) {
            return Ok(LoopEnd::Cancelled);
        }
        if ctx.quiesce.load(Ordering::Acquire) {
            return Ok(LoopEnd::Interrupted);
        }
        while next < total && next - emitted < window {
            let work = make_unit(next);
            let tx = tx.clone();
            let idx = next;
            // A send failure means the coordinator already returned
            // (cancel/quiesce); the result is recomputed on resume.
            if !ctx.pool.submit(ctx.priority, move || {
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(work));
                let _ = tx.send((idx, result));
            }) {
                return Ok(LoopEnd::Interrupted);
            }
            next += 1;
        }
        let (idx, result) = rx.recv().map_err(|_| "unit result channel closed".to_string())?;
        let result =
            result.map_err(|p| format!("unit {idx} panicked: {}", panic_text(p.as_ref())))?;
        parked.insert(idx, result);
        while let Some(result) = parked.remove(&emitted) {
            commit(emitted, result)?;
            emitted += 1;
            emitted_this_run += 1;
            if ctx.fail_after_units.is_some_and(|n| emitted_this_run >= n) && emitted < total {
                return Ok(LoopEnd::Interrupted);
            }
        }
    }
    Ok(LoopEnd::Completed)
}

// ---------------------------------------------------------------- campaign

fn run_campaign_job(job: &CampaignJob, ctx: &JobContext) -> Result<JobState, String> {
    let spec = Arc::new(job.to_spec()?);
    let shards = spec.shards();
    let total = shards.len() as u64;
    let mut progress = start_progress(ctx, total)?;
    touch_output(&ctx.dir, "records.csv").map_err(|e| e.to_string())?;
    if spec.trace_events {
        touch_output(&ctx.dir, "trace.jsonl").map_err(|e| e.to_string())?;
    }
    if spec.sample_stride > 0 {
        touch_output(&ctx.dir, "samples.csv").map_err(|e| e.to_string())?;
    }
    let cache = Arc::new(WorkloadCache::new());
    let start = progress.units_done;

    let end = run_units(
        ctx,
        total,
        start,
        |idx| {
            let spec = Arc::clone(&spec);
            let cache = Arc::clone(&cache);
            let shard = shards[idx as usize];
            Box::new(move || run_shard(&spec, &cache, &shard))
        },
        |idx, res: ShardResult| {
            commit_shard(ctx, &mut progress, &spec, idx, &res).map_err(|e| e.to_string())
        },
    )?;
    finish_progress(ctx, &mut progress, end)
}

/// Appends one shard's output to the spool files and advances the
/// checkpoint. The shard renders itself as it does for `meek-campaign`,
/// each CSV header only into a still-empty file, so the concatenation
/// across units — and across daemon restarts — is byte-identical to a
/// batch run's files. The job's counters are the campaign totals, folded
/// as `meek-campaign` folds them.
fn commit_shard(
    ctx: &JobContext,
    progress: &mut JobProgress,
    spec: &meek_campaign::CampaignSpec,
    idx: u64,
    res: &ShardResult,
) -> io::Result<()> {
    let mut csv = Vec::new();
    res.write_records_csv(&mut csv, progress.offset("records.csv") == 0)?;
    progress.append_output(&ctx.dir, "records.csv", &csv)?;
    if spec.trace_events {
        progress.append_output(&ctx.dir, "trace.jsonl", &res.trace)?;
    }
    if spec.sample_stride > 0 {
        let mut samples = Vec::new();
        res.write_samples_csv(&mut samples, progress.offset("samples.csv") == 0)?;
        progress.append_output(&ctx.dir, "samples.csv", &samples)?;
    }

    let mut totals = ShardSummary::from_counters(&progress.counters);
    totals.add(&res.summary);
    progress.counters.extend(totals.counters().map(|(name, value)| (name.to_string(), value)));

    progress.units_done = idx + 1;
    write_state(&ctx.dir, progress)?;
    publish_progress(ctx, progress, JobState::Running);
    Ok(())
}

// ---------------------------------------------------------------- difftest

/// One difftest batch's rendered output plus its counter deltas.
struct BatchResult {
    jsonl: Vec<u8>,
    deltas: BTreeMap<String, u64>,
}

fn run_difftest_job(job: &DifftestJob, ctx: &JobContext) -> Result<JobState, String> {
    let total = job.cases.div_ceil(job.batch);
    let mut progress = start_progress(ctx, total)?;
    touch_output(&ctx.dir, "results.jsonl").map_err(|e| e.to_string())?;
    let job = Arc::new(job.clone());
    let start = progress.units_done;

    let end = run_units(
        ctx,
        total,
        start,
        |idx| {
            let job = Arc::clone(&job);
            Box::new(move || run_difftest_batch(&job, idx))
        },
        |idx, res: BatchResult| {
            progress
                .append_output(&ctx.dir, "results.jsonl", &res.jsonl)
                .map_err(|e| e.to_string())?;
            for (k, v) in &res.deltas {
                bump(&mut progress.counters, k, *v);
            }
            progress.units_done = idx + 1;
            write_state(&ctx.dir, &progress).map_err(|e| e.to_string())?;
            publish_progress(ctx, &progress, JobState::Running);
            Ok(())
        },
    )?;
    finish_progress(ctx, &mut progress, end)
}

/// Runs one batch of a difftest job: each case is the `meek-difftest`
/// grid cell of the same seed, rendered as one JSONL line.
fn run_difftest_batch(job: &DifftestJob, batch_idx: u64) -> BatchResult {
    let (suite, cfg) = (job.suite(), job.cosim_config());
    let first = batch_idx * job.batch;
    let last = (first + job.batch).min(job.cases);
    let mut jsonl = Vec::new();
    let mut tally = Tally::default();
    for case in first..last {
        let report = run_case(job.seed, case, &suite, &cfg);
        let CaseReport { case_seed, workload, verdict, faults } = &report;
        let mut line = vec![("case", case.into()), ("case_seed", format!("{case_seed:#x}").into())];
        if let Suite::Progs = suite {
            line.push(("workload", (*workload).into()));
        }
        line.extend([
            ("executed", verdict.executed.into()),
            ("segments", verdict.segments.into()),
            ("cycles", verdict.system_cycles.into()),
            (
                "divergence",
                verdict.divergence.as_ref().map_or(Json::Null, |d| d.to_string().into()),
            ),
            ("faults", Json::Arr(faults.iter().map(fault_json).collect())),
        ]);
        let line = format!("{}\n", Json::obj(line).render());
        jsonl.extend_from_slice(line.as_bytes());
        tally.add(&report);
    }
    BatchResult { jsonl, deltas: tally.counters() }
}

/// One fault of a difftest result line: where it struck, its outcome,
/// and its recovery verdict when the job recovers.
fn fault_json(
    (spec, outcome, recovery): &(FaultSpec, FaultOutcome, Option<RecoveryVerdict>),
) -> Json {
    let mut members: Vec<(&str, Json)> = vec![
        ("site", spec.site.name().into()),
        ("bit", spec.bit.into()),
        ("arm", spec.arm_at_commit.into()),
    ];
    match outcome {
        FaultOutcome::Detected { latency_ns } => members
            .extend([("outcome", "detected".into()), ("latency_ns", Json::fixed(*latency_ns, 3))]),
        FaultOutcome::MaskedProvenBenign => members.push(("outcome", "masked".into())),
        FaultOutcome::Pending => members.push(("outcome", "pending".into())),
        FaultOutcome::Escaped { reason } => {
            members.extend([("outcome", "escaped".into()), ("reason", reason.as_str().into())]);
        }
    }
    match recovery {
        None => {}
        Some(RecoveryVerdict::Recovered { rollbacks, max_cycles }) => members.extend([
            ("recovery", "recovered".into()),
            ("rollbacks", (*rollbacks).into()),
            ("recovery_cycles", (*max_cycles).into()),
        ]),
        Some(RecoveryVerdict::NothingToRecover) => {
            members.push(("recovery", "nothing_to_recover".into()));
        }
        Some(RecoveryVerdict::Unrecovered { reason }) => {
            members
                .extend([("recovery", "unrecovered".into()), ("reason", reason.as_str().into())]);
        }
        Some(RecoveryVerdict::StateDiverged { reason }) => members
            .extend([("recovery", "state_diverged".into()), ("reason", reason.as_str().into())]),
    }
    Json::obj(members)
}

// -------------------------------------------------------------------- fuzz

fn run_fuzz_job(job: &FuzzSettings, chunk: u64, ctx: &JobContext) -> Result<JobState, String> {
    let total = job.iters.div_ceil(chunk);
    let mut progress = start_progress(ctx, total)?;
    touch_output(&ctx.dir, "results.jsonl").map_err(|e| e.to_string())?;
    let mut emitted_this_run = 0u64;

    // Chunks are sequentially dependent — each seeds its search with
    // the corpus the previous chunk persisted — so this loop runs one
    // pool task at a time. The pool still arbitrates priority against
    // other jobs' units.
    //
    // Corpus generations: chunk K reads the immutable `corpus-K`
    // directory (missing for K=0: the empty corpus) and stages its
    // output as `corpus-(K+1)` *before* the checkpoint advances, so
    // `units_done` always names the next chunk's input. A crash
    // anywhere between staging and the checkpoint re-runs chunk K from
    // the same `corpus-K` and re-stages identical bytes — the corpus a
    // chunk consumes is determined by the checkpoint, never by which
    // writes happened to land before the daemon died.
    let gen_dir = |gen: u64| ctx.dir.join(format!("corpus-{gen:06}"));
    let mut chunk_idx = progress.units_done;
    let end = loop {
        if chunk_idx >= total {
            break LoopEnd::Completed;
        }
        if ctx.cancel.load(Ordering::Acquire) {
            break LoopEnd::Cancelled;
        }
        if ctx.quiesce.load(Ordering::Acquire) {
            break LoopEnd::Interrupted;
        }
        let settings = FuzzSettings {
            iters: chunk.min(job.iters - chunk_idx * chunk),
            // Decorrelated per-chunk seed stream: a resumed chunk
            // re-runs with the same seed and the same input corpus,
            // hence identical output.
            seed: splitmix(job.seed ^ chunk_idx.wrapping_mul(0x9E37_79B9)),
            // The settings the wire does not carry.
            threads: 1,
            minimize: false,
            batch: FuzzSettings::default().batch,
            ..job.clone()
        };
        let iters = settings.iters;
        let corpus =
            Corpus::load(&gen_dir(chunk_idx), job.corpus_cap).map_err(|e| e.to_string())?;
        let (tx, rx) = mpsc::channel();
        if !ctx.pool.submit(ctx.priority, move || {
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                run_fuzz(&settings, corpus)
            }));
            let _ = tx.send(result);
        }) {
            break LoopEnd::Interrupted;
        }
        let (report, corpus, features) = rx
            .recv()
            .map_err(|_| "fuzz chunk channel closed".to_string())?
            .map_err(|p| format!("fuzz chunk {chunk_idx} panicked: {}", panic_text(p.as_ref())))?;
        stage_corpus(&gen_dir(chunk_idx + 1), &corpus, &features).map_err(|e| e.to_string())?;

        let line = obj! {
            "chunk": chunk_idx, "iters": iters, "evaluated": report.evaluated,
            "features": features.len(), "corpus": corpus.len(), "evicted": corpus.evicted(),
            "escapes": report.escapes.len(), "divergences": report.divergences.len(),
        };
        let line = format!("{}\n", line.render());
        progress
            .append_output(&ctx.dir, "results.jsonl", line.as_bytes())
            .map_err(|e| e.to_string())?;

        let c = &mut progress.counters;
        bump(c, "iters", iters);
        bump(c, "evaluated", report.evaluated);
        bump(c, "escapes", report.escapes.len() as u64);
        bump(c, "divergences", report.divergences.len() as u64);
        c.insert("features".to_string(), features.len() as u64);
        c.insert("corpus".to_string(), corpus.len() as u64);
        c.insert("evicted".to_string(), corpus.evicted());

        progress.units_done = chunk_idx + 1;
        write_state(&ctx.dir, &progress).map_err(|e| e.to_string())?;
        publish_progress(ctx, &progress, JobState::Running);
        // The consumed input generation is unreachable from any
        // checkpoint now that `units_done` moved past it: reclaim it.
        let _ = std::fs::remove_dir_all(gen_dir(chunk_idx));
        chunk_idx += 1;
        emitted_this_run += 1;
        if ctx.fail_after_units.is_some_and(|n| emitted_this_run >= n) && chunk_idx < total {
            break LoopEnd::Interrupted;
        }
    };
    let state = finish_progress(ctx, &mut progress, end)?;
    // Once the terminal state is durable the corpus stops evolving:
    // publish the last staged generation at the stable `corpus/` path
    // (the layout the fuzz CLI produces and the e2e tests read).
    // Renaming only *after* the terminal checkpoint means a crash can
    // never orphan a still-resumable job's input generation;
    // `Interrupted` keeps its dir — the resumed daemon needs it.
    if matches!(state, JobState::Done | JobState::Cancelled) {
        let last = gen_dir(progress.units_done);
        if last.exists() {
            let publish = ctx.dir.join("corpus");
            let _ = std::fs::remove_dir_all(&publish);
            std::fs::rename(&last, &publish).map_err(|e| e.to_string())?;
        }
    }
    Ok(state)
}

/// Stages a chunk's output corpus atomically: entries plus the
/// `features.txt` digest are written to a temp directory, then renamed
/// over the generation path — a generation either exists complete or
/// not at all, and re-staging after a crash simply replaces it with
/// the identical re-computed bytes.
fn stage_corpus(dir: &Path, corpus: &Corpus, features: &FeatureSet) -> io::Result<()> {
    let tmp = dir.with_extension("tmp");
    let _ = std::fs::remove_dir_all(&tmp);
    corpus.save(&tmp)?;
    std::fs::write(tmp.join("features.txt"), features.render_names())?;
    let _ = std::fs::remove_dir_all(dir);
    std::fs::rename(&tmp, dir)
}

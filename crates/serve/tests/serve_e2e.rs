//! End-to-end proofs for the serve daemon, built around the ISSUE's
//! acceptance criterion: a campaign submitted over the socket must
//! yield **byte-identical** output to the batch engine at any worker
//! count — including across a forced mid-job daemon restart.
//!
//! The batch reference here is `meek_campaign::run_campaign` with each
//! shard rendering its records, trace and samples as the `meek-campaign`
//! CLI writes its output files, so equality against it is equality
//! against the CLI's files modulo the filesystem.

use meek_campaign::{run_campaign, CampaignSummary, Executor};
use meek_serve::client;
use meek_serve::daemon::{Daemon, ServeConfig};
use meek_serve::json::Json;
use meek_serve::proto::{
    fuzz_defaults, CampaignJob, Channel, DifftestJob, FuzzSettings, JobSpec, JobState, Request,
};
use meek_serve::spool::read_state;
use meek_serve::Endpoint;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Duration;

static SCRATCH: AtomicU32 = AtomicU32::new(0);

/// A unique, initially-absent scratch directory under the system tmp.
fn scratch(tag: &str) -> PathBuf {
    let n = SCRATCH.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("meek-serve-e2e-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

const WAIT: Duration = Duration::from_secs(300);

fn campaign_job() -> CampaignJob {
    CampaignJob {
        suite: "mcf".into(),
        faults: 16,
        shard_faults: 4, // 4 shards => 4 resequenced units
        seed: 0xF00D,
        trace: true,
        sample_stride: 64,
        ..CampaignJob::default()
    }
}

/// The batch run's totals and the bytes `meek-campaign` would have
/// written to its `--out` / `--trace` / `--sample` files.
struct Batch {
    summary: CampaignSummary,
    files: (Vec<u8>, Vec<u8>, Vec<u8>),
}

/// Runs the job through the batch engine, rendering into memory.
fn batch_reference(job: &CampaignJob) -> Batch {
    let spec = job.to_spec().expect("job spec must validate");
    let (mut csv, mut trace, mut samples) = (Vec::new(), Vec::new(), Vec::new());
    let summary = run_campaign(&spec, &Executor::new(2), |shard| {
        let header = csv.is_empty();
        shard.write_records_csv(&mut csv, header)?;
        trace.extend_from_slice(&shard.trace);
        let header = samples.is_empty();
        shard.write_samples_csv(&mut samples, header)
    })
    .expect("batch campaign runs");
    Batch { summary, files: (csv, trace, samples) }
}

/// Every campaign counter of a finished job equals the batch run's
/// total: both fold shards with `ShardSummary::add`.
fn assert_counters_match(counters: &BTreeMap<String, u64>, batch: &CampaignSummary) {
    let total = &batch.overall.counts;
    for (name, value) in total.counters() {
        assert_eq!(counters.get(name), Some(&value), "counter `{name}`");
    }
    assert_eq!(counters.get("records"), Some(&(total.detected as u64)), "one row per detection");
}

fn spool_outputs(dir: &Path) -> (Vec<u8>, Vec<u8>, Vec<u8>) {
    let read = |name: &str| std::fs::read(dir.join(name)).unwrap_or_default();
    (read("records.csv"), read("trace.jsonl"), read("samples.csv"))
}

fn submit_over_socket(sock: &Path, spec: JobSpec, priority: i64) -> u64 {
    let req = Request::Submit { spec, priority };
    let lines =
        client::request(&Endpoint::Unix(sock.to_path_buf()), &req).expect("submit round-trips");
    let v = Json::parse(&lines[0]).expect("submit response is JSON");
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true), "submit failed: {lines:?}");
    v.get("job").and_then(Json::as_u64).expect("submit response names the job")
}

/// The tentpole proof, part one: submit the same campaign over a Unix
/// socket to daemons with 1, 4 and 8 pool workers; every spool must
/// hold the exact bytes the batch engine produces.
#[test]
fn socket_campaign_is_byte_identical_to_batch_at_any_worker_count() {
    let job = campaign_job();
    let batch = batch_reference(&job);
    let (want_csv, want_trace, want_samples) = &batch.files;
    assert!(!want_csv.is_empty(), "reference campaign must produce records");
    assert!(!want_trace.is_empty(), "reference campaign must produce trace events");
    assert!(!want_samples.is_empty(), "reference campaign must produce samples");

    for workers in [1usize, 4, 8] {
        let spool = scratch(&format!("bytes-w{workers}"));
        let sock = scratch(&format!("sock-w{workers}")).with_extension("sock");
        let cfg = ServeConfig { workers, window: 3, ..ServeConfig::new(&spool) };
        let daemon = Daemon::start(cfg).expect("daemon starts");
        daemon.serve_unix(&sock).expect("unix listener binds");

        let id = submit_over_socket(&sock, JobSpec::Campaign(job.clone()), 0);
        let status = daemon.wait(id, WAIT).expect("job finishes in time");
        assert_eq!(status.state, JobState::Done, "workers={workers}");
        assert_eq!(status.counters["faults"], job.faults as u64);
        assert_counters_match(&status.counters, &batch.summary);

        let (csv, trace, samples) = spool_outputs(&daemon.job_dir(id));
        assert_eq!(&csv, want_csv, "records.csv differs at workers={workers}");
        assert_eq!(&trace, want_trace, "trace.jsonl differs at workers={workers}");
        assert_eq!(&samples, want_samples, "samples.csv differs at workers={workers}");

        // `tail` must reproduce the same bytes over the socket.
        let tail = Request::Tail { job: id, channel: Channel::Records, from: 0, follow: false };
        let frames = client::request(&Endpoint::Unix(sock.clone()), &tail).unwrap();
        let mut tailed = String::new();
        let mut eof_offset = None;
        for frame in &frames {
            let v = Json::parse(frame).expect("tail frames are JSON");
            if let Some(line) = v.get("line").and_then(Json::as_str) {
                tailed.push_str(line);
                tailed.push('\n');
            } else if v.get("eof").and_then(Json::as_bool) == Some(true) {
                eof_offset = v.get("offset").and_then(Json::as_u64);
            }
        }
        assert_eq!(tailed.as_bytes(), want_csv, "tail mismatch at workers={workers}");
        assert_eq!(eof_offset, Some(want_csv.len() as u64));

        drop(daemon);
        let _ = std::fs::remove_dir_all(&spool);
        let _ = std::fs::remove_file(&sock);
    }
}

/// The tentpole proof, part two: force the daemon down after two
/// committed units, start a fresh daemon on the same spool, and the
/// resumed job's output must still match the batch bytes exactly.
#[test]
fn restart_mid_job_resumes_to_byte_identical_output() {
    let job = campaign_job();
    let batch = batch_reference(&job);
    let (want_csv, want_trace, want_samples) = batch.files;
    let spool = scratch("restart");

    // First daemon: dies (resumably) after committing 2 of 4 shards.
    let cfg = ServeConfig { workers: 4, fail_after_units: Some(2), ..ServeConfig::new(&spool) };
    let daemon_a = Daemon::start(cfg).expect("daemon A starts");
    let id = daemon_a.submit(JobSpec::Campaign(job.clone()), 0).expect("submit");
    let status = daemon_a.wait(id, WAIT).expect("job reaches the crash point");
    assert_eq!(status.state, JobState::Interrupted);
    assert_eq!(status.units_done, 2, "crash hook fires after 2 committed units");
    // On disk the job must still be `running` so a restart resumes it.
    let on_disk = read_state(&daemon_a.job_dir(id)).expect("state.json readable");
    assert_eq!(on_disk.state, JobState::Running);
    assert_eq!(on_disk.units_done, 2);
    drop(daemon_a);

    // Second daemon on the same spool: picks the job up by itself.
    let daemon_b = Daemon::start(ServeConfig { workers: 4, ..ServeConfig::new(&spool) })
        .expect("daemon B starts");
    let status = daemon_b.wait(id, WAIT).expect("resumed job finishes");
    assert_eq!(status.state, JobState::Done);
    assert_eq!(status.counters["faults"], job.faults as u64);
    assert_counters_match(&status.counters, &batch.summary);

    let (csv, trace, samples) = spool_outputs(&daemon_b.job_dir(id));
    assert_eq!(csv, want_csv, "records.csv differs after restart");
    assert_eq!(trace, want_trace, "trace.jsonl differs after restart");
    assert_eq!(samples, want_samples, "samples.csv differs after restart");

    drop(daemon_b);
    let _ = std::fs::remove_dir_all(&spool);
}

/// Difftest jobs checkpoint per case-batch; an interrupted run must
/// resume to the same `results.jsonl` an uninterrupted daemon writes.
#[test]
fn difftest_job_resumes_to_identical_results() {
    let job = DifftestJob {
        cases: 12,
        batch: 4, // 3 units
        seed: 7,
        static_len: 80,
        ..DifftestJob::default()
    };

    // Uninterrupted reference run.
    let spool_ref = scratch("difftest-ref");
    let daemon = Daemon::start(ServeConfig::new(&spool_ref)).unwrap();
    let id = daemon.submit(JobSpec::Difftest(job.clone()), 0).unwrap();
    let status = daemon.wait(id, WAIT).expect("difftest completes");
    assert_eq!(status.state, JobState::Done);
    assert_eq!(status.counters["cases"], job.cases);
    let want = std::fs::read(daemon.job_dir(id).join("results.jsonl")).unwrap();
    assert_eq!(
        want.iter().filter(|&&b| b == b'\n').count() as u64,
        job.cases,
        "one JSONL line per case"
    );
    drop(daemon);

    // Interrupted after 1 of 3 batches, then resumed by a new daemon.
    let spool = scratch("difftest-resume");
    let daemon_a =
        Daemon::start(ServeConfig { fail_after_units: Some(1), ..ServeConfig::new(&spool) })
            .unwrap();
    let id = daemon_a.submit(JobSpec::Difftest(job.clone()), 0).unwrap();
    let status = daemon_a.wait(id, WAIT).expect("difftest reaches crash point");
    assert_eq!(status.state, JobState::Interrupted);
    drop(daemon_a);

    let daemon_b = Daemon::start(ServeConfig::new(&spool)).unwrap();
    let status = daemon_b.wait(id, WAIT).expect("resumed difftest completes");
    assert_eq!(status.state, JobState::Done);
    let got = std::fs::read(daemon_b.job_dir(id).join("results.jsonl")).unwrap();
    assert_eq!(got, want, "results.jsonl differs after restart");

    drop(daemon_b);
    let _ = std::fs::remove_dir_all(&spool_ref);
    let _ = std::fs::remove_dir_all(&spool);
}

/// A `suite: progs` difftest job walks the committed benchmark-kernel
/// rotation instead of fuzzed programs: each JSONL line names its
/// workload, the clean runs agree three ways, and no fault escapes.
#[test]
fn progs_suite_difftest_job_names_kernels_and_stays_clean() {
    let job = DifftestJob {
        suite: "progs".into(),
        cases: 3, // first three kernels of the rotation
        batch: 2,
        faults: 1,
        seed: 5,
        ..DifftestJob::default()
    };
    let spool = scratch("difftest-progs");
    let daemon = Daemon::start(ServeConfig::new(&spool)).unwrap();
    let id = daemon.submit(JobSpec::Difftest(job.clone()), 0).unwrap();
    let status = daemon.wait(id, WAIT).expect("progs difftest completes");
    assert_eq!(status.state, JobState::Done);
    assert_eq!(status.counters["cases"], job.cases);
    assert_eq!(status.counters.get("divergences"), None, "kernels cosim clean");
    assert_eq!(status.counters.get("escapes"), None, "no fault escapes on kernels");

    let results = std::fs::read_to_string(daemon.job_dir(id).join("results.jsonl")).unwrap();
    for (case, line) in results.lines().enumerate() {
        let v = Json::parse(line).expect("result lines are JSON");
        let workload = v.get("workload").and_then(Json::as_str).expect("line names its workload");
        assert_eq!(workload, meek_progs::KERNELS[case].name, "rotation order is the kernel order");
        assert!(matches!(v.get("divergence"), Some(Json::Null)), "case {case} diverged: {line}");
    }

    drop(daemon);
    let _ = std::fs::remove_dir_all(&spool);
}

/// Fuzz jobs run in sequential chunks (each chunk's mutations depend
/// on the corpus the previous chunk persisted); an interrupted run
/// must resume to the same results and the same saved corpus.
#[test]
fn fuzz_job_resumes_with_corpus_continuity() {
    let settings = FuzzSettings {
        iters: 8,
        seed: 11,
        static_len: 80,
        faults_per_case: 1,
        corpus_cap: 32,
        ..fuzz_defaults()
    };
    let total_iters = settings.iters;
    let job = JobSpec::Fuzz { settings, chunk: 4 }; // 2 units

    let run = |fail_after: Option<u64>, tag: &str| -> (Vec<u8>, Vec<u8>, u64) {
        let spool = scratch(tag);
        let daemon_a =
            Daemon::start(ServeConfig { fail_after_units: fail_after, ..ServeConfig::new(&spool) })
                .unwrap();
        let id = daemon_a.submit(job.clone(), 0).unwrap();
        let status = daemon_a.wait(id, WAIT).expect("fuzz job settles");
        let status = if fail_after.is_some() {
            assert_eq!(status.state, JobState::Interrupted);
            let dir = daemon_a.job_dir(id);
            drop(daemon_a);
            // Emulate the worst crash window: the dying daemon staged
            // the next corpus generation but never advanced the
            // checkpoint past it. The resume must re-run the chunk
            // from its checkpoint-named input generation and replace
            // this stale staging wholesale — never consume it.
            let stale = dir.join("corpus-000002");
            std::fs::create_dir_all(&stale).unwrap();
            std::fs::write(stale.join("corpus_00000.seed"), b"garbage from a dead daemon\n")
                .unwrap();
            std::fs::write(stale.join("features.txt"), "bogus-feature\n").unwrap();
            let daemon_b = Daemon::start(ServeConfig::new(&spool)).unwrap();
            let s = daemon_b.wait(id, WAIT).expect("resumed fuzz completes");
            let dir = daemon_b.job_dir(id);
            let results = std::fs::read(dir.join("results.jsonl")).unwrap();
            let features = std::fs::read(dir.join("corpus").join("features.txt")).unwrap();
            drop(daemon_b);
            let _ = std::fs::remove_dir_all(&spool);
            return (results, features, s.counters["iters"]);
        } else {
            status
        };
        assert_eq!(status.state, JobState::Done);
        let dir = daemon_a.job_dir(id);
        let results = std::fs::read(dir.join("results.jsonl")).unwrap();
        let features = std::fs::read(dir.join("corpus").join("features.txt")).unwrap();
        let iters = status.counters["iters"];
        drop(daemon_a);
        let _ = std::fs::remove_dir_all(&spool);
        (results, features, iters)
    };

    let (want_results, want_features, want_iters) = run(None, "fuzz-ref");
    assert_eq!(want_results.iter().filter(|&&b| b == b'\n').count(), 2, "one line per chunk");
    assert_eq!(want_iters, total_iters);

    let (results, features, iters) = run(Some(1), "fuzz-resume");
    assert_eq!(results, want_results, "results.jsonl differs after restart");
    assert_eq!(features, want_features, "corpus features diverged after restart");
    assert_eq!(iters, want_iters);
}

/// Cancellation stops a queued/running job at a unit boundary and the
/// persisted state agrees with the reported one.
#[test]
fn cancel_over_socket_stops_the_job() {
    let spool = scratch("cancel");
    let sock = scratch("cancel-sock").with_extension("sock");
    let daemon =
        Daemon::start(ServeConfig { workers: 1, window: 1, ..ServeConfig::new(&spool) }).unwrap();
    daemon.serve_unix(&sock).unwrap();

    let job = CampaignJob {
        suite: "mcf".into(),
        faults: 40,
        shard_faults: 2, // 20 units on one worker: plenty of time to cancel
        seed: 1,
        ..CampaignJob::default()
    };
    let id = submit_over_socket(&sock, JobSpec::Campaign(job), 0);
    let lines = client::request(&Endpoint::Unix(sock.clone()), &Request::Cancel { job: id })
        .expect("cancel round-trips");
    let v = Json::parse(&lines[0]).unwrap();
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));

    let status = daemon.wait(id, WAIT).expect("job settles after cancel");
    assert_eq!(status.state, JobState::Cancelled);
    assert!(status.units_done < status.units_total, "cancel landed before completion");
    let on_disk = read_state(&daemon.job_dir(id)).unwrap();
    assert_eq!(on_disk.state, JobState::Cancelled);
    assert_eq!(on_disk.units_done, status.units_done);

    drop(daemon);
    let _ = std::fs::remove_dir_all(&spool);
    let _ = std::fs::remove_file(&sock);
}

/// `status`, `metrics` and `shutdown` speak well-formed frames over
/// the socket, and shutdown quiesces the daemon.
#[test]
fn status_metrics_and_shutdown_frames() {
    let spool = scratch("frames");
    let sock = scratch("frames-sock").with_extension("sock");
    let daemon = Daemon::start(ServeConfig::new(&spool)).unwrap();
    daemon.serve_unix(&sock).unwrap();
    let endpoint = Endpoint::Unix(sock.clone());

    let settings = FuzzSettings { iters: 4, static_len: 80, ..fuzz_defaults() };
    let id = submit_over_socket(&sock, JobSpec::Fuzz { settings, chunk: 4 }, 3);
    assert!(daemon.wait(id, WAIT).is_some());

    let lines = client::request(&endpoint, &Request::Status { job: Some(id) }).unwrap();
    let v = Json::parse(&lines[0]).unwrap();
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
    let jobs = v.get("jobs").and_then(Json::as_arr).expect("status carries jobs");
    assert_eq!(jobs.len(), 1);
    let status = meek_serve::proto::JobStatus::from_json(&jobs[0])
        .expect("status frame round-trips through JobStatus");
    assert_eq!(status.id, id);
    assert_eq!(status.priority, 3);

    let lines = client::request(
        &endpoint,
        &Request::Metrics { follow: false, interval_ms: 1000, prom: false },
    )
    .unwrap();
    let v = Json::parse(&lines[0]).unwrap();
    assert!(v.get("workers").and_then(Json::as_u64).is_some_and(|w| w > 0));
    assert!(v.get("jobs").and_then(Json::as_arr).is_some());
    assert!(v.get("counters").is_some(), "snapshot carries the merged job counters");

    // The Prometheus exposition of the same snapshot: typed, labelled,
    // and parseable line by line.
    let prom_lines = client::request(
        &endpoint,
        &Request::Metrics { follow: false, interval_ms: 1000, prom: true },
    )
    .unwrap();
    let text = prom_lines.join("\n");
    assert!(text.contains("# TYPE meek_serve_workers gauge"), "{text}");
    assert!(text.contains("meek_serve_jobs{state="), "{text}");
    for line in text.lines().filter(|l| !l.is_empty() && !l.starts_with('#')) {
        let (name, value) = line.rsplit_once(' ').expect("name value");
        assert!(name.starts_with("meek_serve_"), "{line}");
        assert!(value.parse::<f64>().is_ok(), "{line}");
    }

    // Unknown-job requests answer with an error frame, not a hangup.
    let lines = client::request(&endpoint, &Request::Cancel { job: 999 }).unwrap();
    let v = Json::parse(&lines[0]).unwrap();
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(false));

    let lines = client::request(&endpoint, &Request::Shutdown).unwrap();
    let v = Json::parse(&lines[0]).unwrap();
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
    assert!(daemon.quiesce_requested());

    daemon.shutdown();
    let _ = std::fs::remove_dir_all(&spool);
    let _ = std::fs::remove_file(&sock);
}

#[test]
fn an_unreachable_endpoint_is_named() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_meek-serve"))
        .args(["status", "--socket", "/nonexistent"])
        .output()
        .expect("meek-serve runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.starts_with("error: cannot connect to /nonexistent: "), "{stderr}");
    let tcp = client::request(&Endpoint::Tcp("127.0.0.1:1".into()), &Request::Shutdown);
    let err = tcp.expect_err("nothing listens on port 1").to_string();
    assert!(err.starts_with("cannot connect to 127.0.0.1:1: "), "{err}");
}

//! The daemon: job registry, coordinator lifecycle, socket frontends,
//! and the live metrics feed.
//!
//! A [`Daemon`] owns the shared worker [`Pool`], a spool directory,
//! and one coordinator thread per active job. Starting a daemon on an
//! existing spool *resumes* it: every job still `queued` or `running`
//! on disk gets a coordinator that picks up from its checkpoint (see
//! [`crate::spool`] for the durability contract). The socket layer is
//! a thin JSONL translation onto the same methods the in-process tests
//! call directly.

use crate::client::Stream;
use crate::jobs::{run_job, JobContext};
use crate::proto::{Channel, JobSpec, JobState, JobStatus, Request};
use crate::sched::Pool;
use crate::spool::Spool;
use meek_telemetry::{obj, Json};
use std::collections::BTreeMap;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener};
use std::os::unix::net::UnixListener;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Spool root: one sub-directory per job.
    pub spool: PathBuf,
    /// Shared-pool worker threads (0 = one per core).
    pub workers: usize,
    /// Per-job submit-ahead window: at most this many units in flight,
    /// bounding completed-but-uncommitted results — the serve-side
    /// analogue of `meek-campaign --stream-window`.
    pub window: usize,
    /// Test hook: coordinators stop (as if the daemon died) after
    /// committing this many units per run.
    pub fail_after_units: Option<u64>,
}

impl ServeConfig {
    /// A default configuration over `spool`.
    pub fn new(spool: impl Into<PathBuf>) -> ServeConfig {
        ServeConfig { spool: spool.into(), workers: 0, window: 4, fail_after_units: None }
    }
}

struct JobEntry {
    priority: i64,
    status: Arc<Mutex<JobStatus>>,
    cancel: Arc<AtomicBool>,
    started: Instant,
    units_at_start: u64,
}

struct Inner {
    cfg: ServeConfig,
    spool: Spool,
    pool: Pool,
    quiesce: Arc<AtomicBool>,
    jobs: Mutex<BTreeMap<u64, JobEntry>>,
    coordinators: Mutex<Vec<JoinHandle<()>>>,
    listeners: Mutex<Vec<JoinHandle<()>>>,
    started: Instant,
}

impl Inner {
    fn submit(&self, spec: JobSpec, priority: i64) -> Result<u64, String> {
        if self.quiesce.load(Ordering::Acquire) {
            return Err("daemon is shutting down".into());
        }
        spec.validate()?;
        let id = self.spool.create_job(&spec, priority).map_err(|e| e.to_string())?;
        let status = JobStatus {
            id,
            kind: spec.kind().to_string(),
            state: JobState::Queued,
            priority,
            units_total: 0,
            units_done: 0,
            counters: BTreeMap::new(),
        };
        self.register(id, spec, priority, status, true);
        Ok(id)
    }

    fn register(&self, id: u64, spec: JobSpec, priority: i64, status: JobStatus, run: bool) {
        let units_at_start = status.units_done;
        let entry = JobEntry {
            priority,
            status: Arc::new(Mutex::new(status)),
            cancel: Arc::new(AtomicBool::new(false)),
            started: Instant::now(),
            units_at_start,
        };
        let ctx = JobContext {
            id,
            dir: self.spool.job_dir(id),
            priority,
            window: self.cfg.window,
            pool: self.pool.handle(),
            cancel: Arc::clone(&entry.cancel),
            quiesce: Arc::clone(&self.quiesce),
            fail_after_units: self.cfg.fail_after_units,
            status: Arc::clone(&entry.status),
        };
        self.jobs.lock().expect("jobs lock").insert(id, entry);
        if run {
            let handle = std::thread::Builder::new()
                .name(format!("meek-serve-job-{id}"))
                .spawn(move || {
                    run_job(&spec, &ctx);
                })
                .expect("spawn job coordinator");
            self.coordinators.lock().expect("coordinators lock").push(handle);
        }
    }

    fn status(&self, job: Option<u64>) -> Vec<JobStatus> {
        let jobs = self.jobs.lock().expect("jobs lock");
        jobs.iter()
            .filter(|(id, _)| job.is_none_or(|want| want == **id))
            .map(|(_, entry)| entry.status.lock().expect("status lock").clone())
            .collect()
    }

    fn cancel(&self, job: u64) -> Result<(), String> {
        let jobs = self.jobs.lock().expect("jobs lock");
        let entry = jobs.get(&job).ok_or_else(|| format!("no job {job}"))?;
        entry.cancel.store(true, Ordering::Release);
        Ok(())
    }

    /// One metrics snapshot as a JSON line: uptime, pool occupancy,
    /// and per-job progress with unit throughput since this daemon
    /// started working the job.
    fn metrics_json(&self) -> String {
        let jobs = self.jobs.lock().expect("jobs lock");
        let mut rows = Vec::new();
        let mut merged: BTreeMap<String, u64> = BTreeMap::new();
        for (id, entry) in jobs.iter() {
            let status = entry.status.lock().expect("status lock").clone();
            let elapsed = entry.started.elapsed().as_secs_f64().max(1e-9);
            let advanced = status.units_done.saturating_sub(entry.units_at_start);
            for (k, v) in &status.counters {
                *merged.entry(k.clone()).or_insert(0) += v;
            }
            rows.push(obj! {
                "id": *id, "kind": status.kind.as_str(), "state": status.state.name(),
                "priority": entry.priority, "units_total": status.units_total,
                "units_done": status.units_done,
                "units_per_s": Json::fixed(advanced as f64 / elapsed, 3),
            });
        }
        let pool = &self.pool;
        obj! {
            "uptime_ms": self.started.elapsed().as_millis(), "workers": pool.workers(),
            "queued": pool.queued(), "running": pool.running(), "counters": &merged,
            "jobs": Json::Arr(rows),
        }
        .render()
    }

    /// The same snapshot as [`Inner::metrics_json`] rendered as
    /// Prometheus text exposition: pool occupancy as gauges, job states
    /// and unit progress as counters, and every job's kind-specific
    /// counters summed into one `job_counters{name=...}` family (job-id
    /// order, so the merge — like the JSON `counters` object — is
    /// deterministic for a fixed job set).
    fn metrics_prom(&self) -> String {
        let jobs = self.jobs.lock().expect("jobs lock");
        let mut reg = meek_telemetry::Registry::new();
        reg.gauge_set("uptime_ms", self.started.elapsed().as_millis() as i64);
        reg.gauge_set("workers", self.pool.workers() as i64);
        reg.gauge_set("queued", self.pool.queued() as i64);
        reg.gauge_set("running", self.pool.running() as i64);
        for entry in jobs.values() {
            let status = entry.status.lock().expect("status lock").clone();
            reg.inc(format!("jobs{{state={}}}", status.state.name()), 1);
            reg.inc("units_total", status.units_total);
            reg.inc("units_done", status.units_done);
            for (k, v) in &status.counters {
                reg.inc(format!("job_counters{{name={k}}}"), *v);
            }
        }
        reg.render_prom("meek_serve_")
    }
}

/// A running daemon (in-process API; the sockets layer on top).
pub struct Daemon {
    inner: Arc<Inner>,
}

impl Daemon {
    /// Starts a daemon over a spool, resuming every job that is still
    /// `queued` or `running` on disk.
    ///
    /// # Errors
    ///
    /// Propagates spool I/O failures.
    pub fn start(cfg: ServeConfig) -> io::Result<Daemon> {
        let spool = Spool::open(&cfg.spool)?;
        let pool = Pool::new(cfg.workers);
        let inner = Arc::new(Inner {
            spool,
            pool,
            quiesce: Arc::new(AtomicBool::new(false)),
            jobs: Mutex::new(BTreeMap::new()),
            coordinators: Mutex::new(Vec::new()),
            listeners: Mutex::new(Vec::new()),
            started: Instant::now(),
            cfg,
        });
        for job in inner.spool.scan()? {
            let resume = !job.progress.state.is_terminal();
            let status = JobStatus {
                id: job.id,
                kind: job.spec.kind().to_string(),
                state: job.progress.state.clone(),
                priority: job.priority,
                units_total: job.progress.units_total,
                units_done: job.progress.units_done,
                counters: job.progress.counters.clone(),
            };
            inner.register(job.id, job.spec, job.priority, status, resume);
        }
        Ok(Daemon { inner })
    }

    /// Admits a job and starts its coordinator. Fails while shutting
    /// down or when the spec does not validate.
    ///
    /// # Errors
    ///
    /// Returns the admission error message.
    pub fn submit(&self, spec: JobSpec, priority: i64) -> Result<u64, String> {
        self.inner.submit(spec, priority)
    }

    /// One job's status, or every job's (ascending id).
    pub fn status(&self, job: Option<u64>) -> Vec<JobStatus> {
        self.inner.status(job)
    }

    /// Requests cancellation of a job (its coordinator stops at the
    /// next unit boundary).
    ///
    /// # Errors
    ///
    /// Returns a message when the job id is unknown.
    pub fn cancel(&self, job: u64) -> Result<(), String> {
        self.inner.cancel(job)
    }

    /// Polls until the job reaches a terminal state (or the timeout
    /// expires — `None`).
    pub fn wait(&self, job: u64, timeout: Duration) -> Option<JobStatus> {
        let deadline = Instant::now() + timeout;
        loop {
            let status = self.status(Some(job)).pop()?;
            if status.state.is_terminal() {
                return Some(status);
            }
            if Instant::now() >= deadline {
                return None;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    /// The spool directory of a job (where its output files live).
    pub fn job_dir(&self, job: u64) -> PathBuf {
        self.inner.spool.job_dir(job)
    }

    /// Whether a client has requested shutdown.
    pub fn quiesce_requested(&self) -> bool {
        self.inner.quiesce.load(Ordering::Acquire)
    }

    /// Binds a Unix-socket frontend (replacing any stale socket file)
    /// and serves it from a background thread.
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn serve_unix(&self, path: &Path) -> io::Result<()> {
        if path.exists() {
            std::fs::remove_file(path)?;
        }
        let listener = UnixListener::bind(path)?;
        listener.set_nonblocking(true)?;
        let inner = Arc::clone(&self.inner);
        let handle = std::thread::Builder::new()
            .name("meek-serve-unix".to_string())
            .spawn(move || accept_loop(&inner, || listener.accept().map(|(s, _)| Stream::Unix(s))))
            .expect("spawn unix listener");
        self.inner.listeners.lock().expect("listeners lock").push(handle);
        Ok(())
    }

    /// Binds a TCP frontend and serves it from a background thread;
    /// returns the bound address (so `:0` works in tests).
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn serve_tcp(&self, addr: &str) -> io::Result<SocketAddr> {
        let listener = TcpListener::bind(addr)?;
        let bound = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let inner = Arc::clone(&self.inner);
        let handle = std::thread::Builder::new()
            .name("meek-serve-tcp".to_string())
            .spawn(move || accept_loop(&inner, || listener.accept().map(|(s, _)| Stream::Tcp(s))))
            .expect("spawn tcp listener");
        self.inner.listeners.lock().expect("listeners lock").push(handle);
        Ok(bound)
    }

    /// Stops the daemon: no new jobs, coordinators stop at their next
    /// unit boundary (leaving `running` jobs resumable on disk), then
    /// listeners, coordinators and pool workers are joined.
    pub fn shutdown(mut self) {
        self.shutdown_in_place();
    }

    fn shutdown_in_place(&mut self) {
        self.inner.quiesce.store(true, Ordering::Release);
        let listeners: Vec<_> =
            self.inner.listeners.lock().expect("listeners lock").drain(..).collect();
        for handle in listeners {
            let _ = handle.join();
        }
        let coordinators: Vec<_> =
            self.inner.coordinators.lock().expect("coordinators lock").drain(..).collect();
        for handle in coordinators {
            let _ = handle.join();
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.shutdown_in_place();
    }
}

fn accept_loop(inner: &Arc<Inner>, mut accept: impl FnMut() -> io::Result<Stream>) {
    loop {
        if inner.quiesce.load(Ordering::Acquire) {
            return;
        }
        match accept() {
            Ok(stream) => {
                let inner = Arc::clone(inner);
                // Connection handlers are detached: they end when the
                // client hangs up or the exchange completes, and every
                // stream write failure just drops the connection.
                let _ = std::thread::Builder::new()
                    .name("meek-serve-conn".to_string())
                    .spawn(move || handle_conn(&inner, stream));
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(25));
            }
            Err(_) => return,
        }
    }
}

fn handle_conn(inner: &Arc<Inner>, stream: Stream) {
    let Ok(read_half) = stream.try_clone() else { return };
    let mut reader = BufReader::new(read_half);
    let mut out = stream;
    let mut line = String::new();
    if reader.read_line(&mut line).is_err() || line.trim().is_empty() {
        return;
    }
    let req = match Request::from_line(line.trim()) {
        Ok(req) => req,
        Err(e) => {
            let _ = send(&mut out, obj! { "ok": false, "error": e });
            return;
        }
    };
    if let Err(e) = dispatch(inner, &req, &mut out) {
        let _ = send(&mut out, obj! { "ok": false, "error": e });
    }
}

/// Writes one response frame on one line.
fn send(out: &mut Stream, frame: Json) -> io::Result<()> {
    writeln!(out, "{}", frame.render())
}

fn dispatch(inner: &Inner, req: &Request, out: &mut Stream) -> Result<(), String> {
    match req {
        Request::Submit { spec, priority } => {
            let id = inner.submit(spec.clone(), *priority)?;
            send(out, obj! { "ok": true, "job": id }).map_err(|e| e.to_string())
        }
        Request::Status { job } => {
            let jobs = Json::Arr(inner.status(*job).iter().map(Json::from).collect());
            send(out, obj! { "ok": true, "jobs": jobs }).map_err(|e| e.to_string())
        }
        Request::Cancel { job } => {
            inner.cancel(*job)?;
            send(out, obj! { "ok": true }).map_err(|e| e.to_string())
        }
        Request::Tail { job, channel, from, follow } => {
            tail(inner, *job, *channel, *from, *follow, out).map_err(|e| e.to_string())
        }
        Request::Metrics { follow, interval_ms, prom } => loop {
            if *prom {
                // Exposition is multi-line; a blank line terminates each
                // scrape so a following client can frame snapshots.
                write!(out, "{}\n\n", inner.metrics_prom().trim_end())
                    .map_err(|e| e.to_string())?;
            } else {
                writeln!(out, "{}", inner.metrics_json()).map_err(|e| e.to_string())?;
            }
            out.flush().map_err(|e| e.to_string())?;
            if !*follow || inner.quiesce.load(Ordering::Acquire) {
                return Ok(());
            }
            std::thread::sleep(Duration::from_millis((*interval_ms).clamp(10, 60_000)));
        },
        Request::Shutdown => {
            inner.quiesce.store(true, Ordering::Release);
            send(out, obj! { "ok": true }).map_err(|e| e.to_string())
        }
    }
}

/// Streams a job's output channel as framed lines. The spool file is
/// the source of truth — it survives restarts, so a tail started after
/// a resume sees the complete, byte-identical stream. Only whole lines
/// are emitted; a final `eof` frame carries the next resume offset.
///
/// Each poll reads only the bytes appended since the last one (seek +
/// bounded read), so a follow costs O(new bytes), not O(file), per
/// tick. File length is re-checked via metadata every tick: a shrink
/// means a restarted daemon truncated un-checkpointed bytes, and since
/// the re-run reproduces them identically the tail just waits for the
/// file to grow back past its offset.
fn tail(
    inner: &Inner,
    job: u64,
    channel: Channel,
    from: u64,
    follow: bool,
    out: &mut Stream,
) -> io::Result<()> {
    use std::io::{Read, Seek, SeekFrom};
    if inner.status(Some(job)).is_empty() {
        return Err(io::Error::other(format!("no job {job}")));
    }
    let path = inner.spool.job_dir(job).join(channel.file_name());
    let mut offset = from;
    let mut pending: Vec<u8> = Vec::new();
    let mut file: Option<std::fs::File> = None;
    loop {
        let len = match std::fs::metadata(&path) {
            Ok(m) => m.len(),
            Err(e) if e.kind() == io::ErrorKind::NotFound => 0,
            Err(e) => return Err(e),
        };
        if len < offset {
            file = None;
        } else if len > offset {
            if file.is_none() {
                file = match std::fs::File::open(&path) {
                    Ok(f) => Some(f),
                    Err(e) if e.kind() == io::ErrorKind::NotFound => None,
                    Err(e) => return Err(e),
                };
            }
            if let Some(f) = file.as_mut() {
                f.seek(SeekFrom::Start(offset))?;
                let new = Read::by_ref(f).take(len - offset).read_to_end(&mut pending)?;
                offset += new as u64;
                let mut emitted = false;
                while let Some(nl) = pending.iter().position(|&b| b == b'\n') {
                    let line: Vec<u8> = pending.drain(..=nl).collect();
                    let text = String::from_utf8_lossy(&line[..line.len() - 1]);
                    send(out, obj! { "line": text.into_owned() })?;
                    emitted = true;
                }
                if emitted {
                    out.flush()?;
                }
            }
        }
        let terminal = inner.status(Some(job)).pop().is_none_or(|s| s.state.is_terminal());
        if !follow || (terminal && offset >= len) {
            let resume_at = offset - pending.len() as u64;
            send(out, obj! { "eof": true, "offset": resume_at })?;
            return out.flush();
        }
        std::thread::sleep(Duration::from_millis(50));
    }
}

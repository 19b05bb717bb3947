//! `meek-serve` CLI: the daemon (`serve`) plus thin client
//! subcommands speaking the JSONL socket protocol.

use meek_campaign::cli::{self, CliError, Flags};
use meek_serve::daemon::{Daemon, ServeConfig};
use meek_serve::proto::{Channel, JobSpec, Request};
use meek_serve::{client, Endpoint};
use meek_telemetry::Json;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str = "\
meek-serve: campaign/difftest/fuzz job daemon with streaming results

USAGE:
    meek-serve serve    --spool DIR [--socket PATH] [--tcp ADDR]
                        [--workers N] [--window N] [--fail-after-units N]
    meek-serve submit   (--socket PATH | --tcp ADDR) --json SPEC [--priority N]
    meek-serve status   (--socket PATH | --tcp ADDR) [--job N]
    meek-serve cancel   (--socket PATH | --tcp ADDR) --job N
    meek-serve tail     (--socket PATH | --tcp ADDR) --job N [--channel C]
                        [--from OFFSET] [--follow]
    meek-serve metrics  (--socket PATH | --tcp ADDR) [--follow]
                        [--interval-ms N] [--prom]
    meek-serve shutdown (--socket PATH | --tcp ADDR)

SERVE OPTIONS:
    --spool DIR           Spool root: one directory per job, holding its
                          spec, streamed outputs, and checkpointed state.
                          Restarting on the same spool resumes every
                          unfinished job from its last checkpoint.
    --socket PATH         Listen on a Unix domain socket.
    --tcp ADDR            Listen on a TCP address (e.g. 127.0.0.1:7799).
    --workers N           Shared-pool worker threads (default: cores).
    --window N            Per-job submit-ahead window: at most N units in
                          flight, so completed-but-unwritten results hold
                          O(window) memory (default 4) — the serve-side
                          twin of `meek-campaign --stream-window`.
    --fail-after-units N  Test hook: die (leaving resumable state) after
                          committing N units per job.

CLIENT NOTES:
    --json SPEC           A one-line job spec, e.g.
                          '{\"kind\":\"campaign\",\"suite\":\"specint\",\"faults\":100}'
                          Kinds: campaign, difftest, fuzz; missing fields
                          take that kind's defaults.
    --channel C           records | trace | samples | results (default
                          records). `tail` prints the decoded lines; the
                          final eof frame's offset resumes a later tail.
    --interval-ms N       Milliseconds between `metrics --follow`
                          snapshots (default 1000).
    --prom                Render `metrics` as Prometheus text exposition
                          (gauges for pool occupancy, merged per-job
                          counters) instead of JSON snapshots.
";

fn main() -> ExitCode {
    cli::main(USAGE, |argv| {
        let Some((cmd, rest)) = argv.split_first() else {
            return Err(CliError::Help);
        };
        match cmd.as_str() {
            "serve" => serve(rest),
            "submit" => submit(rest),
            "status" => status(rest),
            "cancel" => cancel(rest),
            "tail" => tail(rest),
            "metrics" => metrics(rest),
            "shutdown" => shutdown(rest),
            "-h" | "--help" => Err(CliError::Help),
            other => Err(CliError::Usage(format!("unknown subcommand `{other}`"))),
        }
    })
}

/// Reads a subcommand's flags: `--socket` and `--tcp` here, every other
/// flag through `flag`. Returns the endpoint, if one was named.
fn read_flags(
    args: &[String],
    mut flag: impl FnMut(&str, &mut Flags) -> Result<(), CliError>,
) -> Result<Option<Endpoint>, CliError> {
    let mut endpoint = None;
    let mut flags = Flags::new(args);
    while let Some(name) = flags.next_flag()? {
        match name {
            "--socket" => endpoint = Some(Endpoint::Unix(flags.value()?)),
            "--tcp" => endpoint = Some(Endpoint::Tcp(flags.value()?)),
            _ => flag(name, &mut flags)?,
        }
    }
    Ok(endpoint)
}

/// A client subcommand's endpoint, which it cannot run without.
fn need_endpoint(endpoint: Option<Endpoint>) -> Result<Endpoint, CliError> {
    endpoint.ok_or_else(|| CliError::Usage("need --socket PATH or --tcp ADDR".into()))
}

/// A runtime failure: a socket that does not answer, a daemon that
/// cannot start.
fn failed(e: impl ToString) -> CliError {
    CliError::Failed(e.to_string())
}

fn serve(args: &[String]) -> Result<bool, CliError> {
    let mut spool: Option<PathBuf> = None;
    let mut cfg_workers = 0usize;
    let mut window = 4usize;
    let mut fail_after = None;
    let endpoint = read_flags(args, |flag, flags| {
        match flag {
            "--spool" => spool = Some(flags.value()?),
            "--workers" => cfg_workers = flags.value()?,
            "--window" => window = flags.value()?,
            "--fail-after-units" => fail_after = Some(flags.value()?),
            _ => return Err(flags.unknown()),
        }
        Ok(())
    })?;
    let spool = spool.ok_or_else(|| CliError::Usage("serve needs --spool DIR".into()))?;
    let Some(endpoint) = endpoint else {
        return Err(CliError::Usage("serve needs --socket PATH or --tcp ADDR (or both)".into()));
    };
    let cfg = ServeConfig { spool, workers: cfg_workers, window, fail_after_units: fail_after };
    let daemon = Daemon::start(cfg).map_err(failed)?;
    match &endpoint {
        Endpoint::Unix(path) => {
            daemon.serve_unix(path).map_err(failed)?;
            println!("meek-serve: listening on unix {}", path.display());
        }
        Endpoint::Tcp(addr) => {
            let bound = daemon.serve_tcp(addr).map_err(failed)?;
            println!("meek-serve: listening on tcp {bound}");
        }
    }
    // The daemon runs until a client sends `shutdown`; coordinators
    // then stop at their next unit boundary and state stays resumable.
    while !daemon.quiesce_requested() {
        std::thread::sleep(Duration::from_millis(100));
    }
    daemon.shutdown();
    println!("meek-serve: stopped");
    Ok(true)
}

/// Sends one request; prints every response line; fails the process if
/// the first response carries `"ok":false`.
fn simple_exchange(endpoint: &Endpoint, req: &Request) -> Result<bool, CliError> {
    let lines = client::request(endpoint, req).map_err(failed)?;
    let mut ok = true;
    for line in &lines {
        println!("{line}");
        if let Ok(v) = Json::parse(line) {
            if v.get("ok").and_then(Json::as_bool) == Some(false) {
                ok = false;
            }
        }
    }
    Ok(ok)
}

fn submit(args: &[String]) -> Result<bool, CliError> {
    let mut json: Option<String> = None;
    let mut priority = 0i64;
    let endpoint = read_flags(args, |flag, flags| {
        match flag {
            "--json" => json = Some(flags.value()?),
            "--priority" => priority = flags.value()?,
            _ => return Err(flags.unknown()),
        }
        Ok(())
    })?;
    let endpoint = need_endpoint(endpoint)?;
    let text = json.ok_or_else(|| CliError::Usage("submit needs --json SPEC".into()))?;
    let spec = Json::parse(&text).and_then(|v| JobSpec::from_json(&v)).map_err(CliError::Usage)?;
    simple_exchange(&endpoint, &Request::Submit { spec, priority })
}

/// Reads `--job N` (and the endpoint) for `status` and `cancel`.
fn job_flag(args: &[String]) -> Result<(Endpoint, Option<u64>), CliError> {
    let mut job = None;
    let endpoint = read_flags(args, |flag, flags| {
        match flag {
            "--job" => job = Some(flags.value()?),
            _ => return Err(flags.unknown()),
        }
        Ok(())
    })?;
    Ok((need_endpoint(endpoint)?, job))
}

fn status(args: &[String]) -> Result<bool, CliError> {
    let (endpoint, job) = job_flag(args)?;
    simple_exchange(&endpoint, &Request::Status { job })
}

fn cancel(args: &[String]) -> Result<bool, CliError> {
    let (endpoint, job) = job_flag(args)?;
    let job = job.ok_or_else(|| CliError::Usage("cancel needs --job N".into()))?;
    simple_exchange(&endpoint, &Request::Cancel { job })
}

fn tail(args: &[String]) -> Result<bool, CliError> {
    let mut job = None;
    let mut channel = Channel::Records;
    let mut from = 0u64;
    let mut follow = false;
    let endpoint = read_flags(args, |flag, flags| {
        match flag {
            "--job" => job = Some(flags.value()?),
            "--channel" => {
                channel = Channel::from_name(&flags.value::<String>()?).map_err(CliError::Usage)?
            }
            "--from" => from = flags.value()?,
            "--follow" => follow = true,
            _ => return Err(flags.unknown()),
        }
        Ok(())
    })?;
    let endpoint = need_endpoint(endpoint)?;
    let job = job.ok_or_else(|| CliError::Usage("tail needs --job N".into()))?;
    let req = Request::Tail { job, channel, from, follow };
    let mut refused = false;
    client::stream_request(&endpoint, &req, |line| {
        match Json::parse(line) {
            Ok(v) => {
                if let Some(text) = v.get("line").and_then(Json::as_str) {
                    println!("{text}");
                } else if v.get("eof").and_then(Json::as_bool) == Some(true) {
                    if let Some(offset) = v.get("offset").and_then(Json::as_u64) {
                        eprintln!("eof: next offset {offset}");
                    }
                } else if v.get("ok").and_then(Json::as_bool) == Some(false) {
                    eprintln!("{line}");
                    refused = true;
                }
            }
            Err(_) => println!("{line}"),
        }
        true
    })
    .map_err(failed)?;
    Ok(!refused)
}

fn metrics(args: &[String]) -> Result<bool, CliError> {
    let mut follow = false;
    let mut interval_ms = 1000u64;
    let mut prom = false;
    let endpoint = read_flags(args, |flag, flags| {
        match flag {
            "--follow" => follow = true,
            "--interval-ms" => interval_ms = flags.value()?,
            "--prom" => prom = true,
            _ => return Err(flags.unknown()),
        }
        Ok(())
    })?;
    let req = Request::Metrics { follow, interval_ms, prom };
    client::stream_request(&need_endpoint(endpoint)?, &req, |line| {
        println!("{line}");
        true
    })
    .map_err(failed)?;
    Ok(true)
}

fn shutdown(args: &[String]) -> Result<bool, CliError> {
    let endpoint = read_flags(args, |_, flags| Err(flags.unknown()))?;
    simple_exchange(&need_endpoint(endpoint)?, &Request::Shutdown)
}

//! Client-side plumbing: connecting to a daemon endpoint and running
//! one request/response exchange over the JSONL protocol.

use crate::proto::Request;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::os::unix::net::UnixStream;
use std::path::PathBuf;

/// Where a daemon listens.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Endpoint {
    /// A Unix domain socket path.
    Unix(PathBuf),
    /// A TCP address (`host:port`).
    Tcp(String),
}

/// A connected byte stream to the daemon (either transport).
pub enum Stream {
    /// Unix domain socket.
    Unix(UnixStream),
    /// TCP socket.
    Tcp(TcpStream),
}

impl Stream {
    /// Connects to an endpoint.
    ///
    /// # Errors
    ///
    /// A connection failure, its message naming the socket path or TCP
    /// address.
    pub fn connect(endpoint: &Endpoint) -> io::Result<Stream> {
        let (stream, name) = match endpoint {
            Endpoint::Unix(path) => {
                (UnixStream::connect(path).map(Stream::Unix), path.display().to_string())
            }
            Endpoint::Tcp(addr) => (TcpStream::connect(addr).map(Stream::Tcp), addr.clone()),
        };
        stream.map_err(|e| io::Error::new(e.kind(), format!("cannot connect to {name}: {e}")))
    }

    /// An independently readable/writable clone of the stream.
    ///
    /// # Errors
    ///
    /// Propagates the underlying `try_clone` failure.
    pub fn try_clone(&self) -> io::Result<Stream> {
        match self {
            Stream::Unix(s) => s.try_clone().map(Stream::Unix),
            Stream::Tcp(s) => s.try_clone().map(Stream::Tcp),
        }
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Stream::Unix(s) => s.read(buf),
            Stream::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Stream::Unix(s) => s.write(buf),
            Stream::Tcp(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Stream::Unix(s) => s.flush(),
            Stream::Tcp(s) => s.flush(),
        }
    }
}

/// Sends one request and collects every response line until the daemon
/// closes the connection. Suits the non-streaming commands (submit,
/// status, cancel, shutdown, one-shot tail/metrics).
///
/// # Errors
///
/// Propagates connection and I/O failures.
pub fn request(endpoint: &Endpoint, req: &Request) -> io::Result<Vec<String>> {
    let mut lines = Vec::new();
    stream_request(endpoint, req, |line| {
        lines.push(line.to_string());
        true
    })?;
    Ok(lines)
}

/// Sends one request and feeds each response line to `on_line` as it
/// arrives; return `false` from the callback to hang up early. Suits
/// the streaming commands (`tail --follow`, `metrics --follow`).
///
/// # Errors
///
/// Propagates connection and I/O failures.
pub fn stream_request(
    endpoint: &Endpoint,
    req: &Request,
    mut on_line: impl FnMut(&str) -> bool,
) -> io::Result<()> {
    let mut stream = Stream::connect(endpoint)?;
    stream.write_all(format!("{}\n", req.to_json()).as_bytes())?;
    stream.flush()?;
    let reader = BufReader::new(stream.try_clone()?);
    for line in reader.lines() {
        let line = line?;
        if !on_line(&line) {
            break;
        }
    }
    Ok(())
}

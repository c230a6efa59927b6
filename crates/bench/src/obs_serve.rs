//! Embedded HTTP scrape endpoint over a [`Recorder`]'s live journal.
//!
//! A stdlib-`TcpListener` server (no dependencies, same offline rule as
//! the rest of the workspace) that `run_scenario --serve-obs <addr>`
//! mounts next to a running scenario or campaign:
//!
//! - `GET /metrics` — the Prometheus text exposition of the recorder's
//!   live counters and latency quantiles;
//! - `GET /progress` — the JSON [`Snapshot`](mpt_obs::Snapshot):
//!   per-cell progress, throughput, ETA, counters and histograms;
//! - `GET /events?cursor=N` — long-poll NDJSON of the journal: one meta
//!   line (`cursor`, `next_cursor`, `dropped`), then one event per line.
//!   Blocks up to `timeout_ms` (default 5 s, cap 30 s) waiting for an
//!   event past the cursor, so a follower loop needs no sleep of its own.
//!
//! Connections are handled one thread each with `Connection: close`
//! semantics — scrape traffic, not a web server. The server only ever
//! *reads* the journal: a poll or snapshot holds the journal's lock just
//! long enough to copy what it returns.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use mpt_obs::{clock, Recorder};

const LONG_POLL_DEFAULT_MS: u64 = 5_000;
const LONG_POLL_MAX_MS: u64 = 30_000;
const LONG_POLL_INTERVAL: Duration = Duration::from_millis(25);

/// A running observability server. Dropping (or [`stop`](Self::stop)ping)
/// it shuts the listener down and joins the accept thread.
#[derive(Debug)]
pub struct ObsServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl ObsServer {
    /// Binds `addr` (e.g. `127.0.0.1:9187`, port `0` for ephemeral) and
    /// serves `recorder`'s metrics, progress snapshot and journal until
    /// stopped.
    ///
    /// # Errors
    ///
    /// Propagates bind/spawn failures.
    pub fn start(addr: &str, recorder: Arc<Recorder>) -> std::io::Result<ObsServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let handle = std::thread::Builder::new()
            .name("obs-serve".into())
            .spawn({
                let shutdown = Arc::clone(&shutdown);
                move || accept_loop(&listener, &recorder, &shutdown)
            })?;
        Ok(ObsServer {
            addr,
            shutdown,
            handle: Some(handle),
        })
    }

    /// The bound address (with the real port when `:0` was requested).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Shuts the server down and joins its accept thread.
    pub fn stop(mut self) {
        self.shutdown_now();
    }

    fn shutdown_now(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Unblock the blocking accept with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for ObsServer {
    fn drop(&mut self) {
        if self.handle.is_some() {
            self.shutdown_now();
        }
    }
}

fn accept_loop(listener: &TcpListener, recorder: &Arc<Recorder>, shutdown: &Arc<AtomicBool>) {
    for stream in listener.incoming() {
        if shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let recorder = Arc::clone(recorder);
        let shutdown = Arc::clone(shutdown);
        let _ = std::thread::Builder::new()
            .name("obs-conn".into())
            .spawn(move || {
                let _ = handle_connection(stream, &recorder, &shutdown);
            });
    }
}

fn handle_connection(
    mut stream: TcpStream,
    recorder: &Recorder,
    shutdown: &AtomicBool,
) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut request_line = String::new();
    reader.read_line(&mut request_line)?;
    // Drain request headers; none of them influence the response.
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 || line == "\r\n" || line == "\n" {
            break;
        }
    }
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("");
    let target = parts.next().unwrap_or("");
    if method != "GET" {
        return respond(
            &mut stream,
            405,
            "text/plain; charset=utf-8",
            "method not allowed\n",
        );
    }
    let (path, query) = target.split_once('?').unwrap_or((target, ""));
    match path {
        "/metrics" => respond(
            &mut stream,
            200,
            "text/plain; version=0.0.4; charset=utf-8",
            &recorder.snapshot().to_prometheus(),
        ),
        "/progress" => respond(
            &mut stream,
            200,
            "application/json; charset=utf-8",
            &recorder.journal().snapshot(recorder).to_json(),
        ),
        "/events" => {
            let cursor = query_param(query, "cursor")
                .and_then(|v| v.parse().ok())
                .unwrap_or(0);
            let timeout_ms = query_param(query, "timeout_ms")
                .and_then(|v| v.parse().ok())
                .unwrap_or(LONG_POLL_DEFAULT_MS)
                .min(LONG_POLL_MAX_MS);
            let body = events_body(recorder, cursor, timeout_ms, shutdown);
            respond(&mut stream, 200, "application/x-ndjson", &body)
        }
        _ => respond(
            &mut stream,
            404,
            "text/plain; charset=utf-8",
            "not found (try /metrics, /progress, /events?cursor=N)\n",
        ),
    }
}

/// Long-polls the journal from `cursor`, then renders the NDJSON body:
/// one meta line, then one line per event.
fn events_body(recorder: &Recorder, cursor: u64, timeout_ms: u64, shutdown: &AtomicBool) -> String {
    let journal = recorder.journal();
    let start = clock::now();
    let timeout = Duration::from_millis(timeout_ms);
    let delta = loop {
        let delta = journal.poll(cursor);
        if !delta.events.is_empty()
            || delta.dropped > 0
            || !journal.is_enabled()
            || clock::elapsed(start) >= timeout
            || shutdown.load(Ordering::SeqCst)
        {
            break delta;
        }
        std::thread::sleep(LONG_POLL_INTERVAL);
    };
    let mut body = format!(
        "{{\"cursor\":{cursor},\"next_cursor\":{},\"dropped\":{}}}\n",
        delta.next_cursor, delta.dropped
    );
    for ev in &delta.events {
        body.push_str(&ev.to_json());
        body.push('\n');
    }
    body
}

fn query_param<'a>(query: &'a str, key: &str) -> Option<&'a str> {
    query.split('&').find_map(|pair| {
        let (k, v) = pair.split_once('=')?;
        (k == key).then_some(v)
    })
}

fn respond(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    body: &str,
) -> std::io::Result<()> {
    let reason = match status {
        200 => "OK",
        404 => "Not Found",
        405 => "Method Not Allowed",
        _ => "Error",
    };
    write!(
        stream,
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )?;
    stream.flush()
}

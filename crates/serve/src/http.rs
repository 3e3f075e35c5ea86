//! A minimal HTTP/1.1 server over `std::net` exposing the engine.
//!
//! | Method | Path                     | Body / response                        |
//! |--------|--------------------------|----------------------------------------|
//! | POST   | `/jobs`                  | job spec JSON (+ optional `"fleet"`) → `{"id": "job-n"}` |
//! | GET    | `/jobs`                  | array of job status documents          |
//! | GET    | `/jobs/:id[?wait_ms=n]`  | job status document, once the job leaves queued/running or `n` ms pass |
//! | GET    | `/jobs/:id/progress[?wait_ms=n]` | live per-outcome estimates + intervals (same wait) |
//! | GET    | `/jobs/:id/result`       | canonical result document (409 early)  |
//! | POST   | `/jobs/:id/cancel`       | `{"cancelled": true}`                  |
//! | POST   | `/leases`                | `{"worker": name, "wait_ms": n}` → lease grant as soon as a chunk is available, or `{"lease": null, "pending": n}` after `wait_ms` |
//! | POST   | `/leases/:id/heartbeat`  | `{"worker": name}` → `{"ttl_ms": n}` (404 gone, 409 stolen) |
//! | POST   | `/leases/:id/outcomes`   | checksummed outcome frame → `{"accepted": n}` |
//! | GET    | `/fleet`                 | fleet status (chunks, workers)         |
//! | GET    | `/kernels`               | kernel registry with fingerprints      |
//! | GET    | `/metrics`               | Prometheus text exposition             |
//! | GET    | `/trace`                 | Chrome trace-event JSON (span timeline) |
//! | GET    | `/dashboard`             | self-contained live-monitoring page    |
//!
//! `wait_ms` is optional (absent: answer at once), must be a whole,
//! non-negative number of milliseconds (anything else is a 400) and is
//! clamped to [`fsp_fleet::MAX_POLL_WAIT`]. Engine shutdown ends every
//! wait at once.
//!
//! Connections are `Connection: close`, one thread per request — campaign
//! throughput, not HTTP throughput, is the bottleneck by design. Every
//! connection gets a 10 s read/write deadline (`SOCKET_TIMEOUT`) so a stalled
//! or half-open peer cannot pin its handler thread forever.
//!
//! Request bytes are parsed by [`read_request`], which caps every line and
//! the body and rejects anything malformed (a bad or oversized
//! `Content-Length`, a line without a header colon, a truncated body,
//! non-UTF-8 text) with a [`RequestError`] that the server answers with a
//! 400. It never panics and never routes a request with a body it did not
//! read in full.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::engine::{kernels_json, Engine, ResultError};
use crate::job::JobSpec;
use fsp_fleet::Json;

/// Largest accepted request body (a job spec is tiny; the largest outcome
/// frame — a full lease chunk of hex-armored 32-byte records — stays well
/// under this).
pub const MAX_BODY: usize = 1 << 20;

/// Longest accepted request or header line, in bytes, line end included.
pub const MAX_LINE: usize = 8 << 10;

/// Most header lines accepted in one request.
pub const MAX_HEADERS: usize = 64;

/// Per-connection socket deadline, applied to both reads and writes. One
/// slow, stalled or half-open client (a worker dying mid-request, a
/// dropped network link) would otherwise pin its handler thread forever.
const SOCKET_TIMEOUT: Duration = Duration::from_secs(10);

/// A bound, not-yet-serving HTTP server.
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    engine: Arc<Engine>,
}

impl Server {
    /// Binds `addr` (e.g. `"127.0.0.1:7071"`, or port 0 for ephemeral).
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn bind(addr: impl ToSocketAddrs, engine: Arc<Engine>) -> std::io::Result<Server> {
        Ok(Server {
            listener: TcpListener::bind(addr)?,
            engine,
        })
    }

    /// The bound address (useful with ephemeral ports).
    ///
    /// # Errors
    ///
    /// Propagates the OS lookup failure.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Serves forever on the calling thread.
    pub fn run(self) {
        let stop = AtomicBool::new(false);
        serve_until(&self.listener, &self.engine, &stop);
    }

    /// Serves on a background thread; the handle stops it cleanly.
    ///
    /// # Errors
    ///
    /// Propagates address lookup or thread-spawn failures.
    pub fn spawn(self) -> std::io::Result<ServerHandle> {
        let addr = self.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let thread = {
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name("fsp-http".to_owned())
                .spawn(move || serve_until(&self.listener, &self.engine, &stop))?
        };
        Ok(ServerHandle { addr, stop, thread })
    }
}

/// Handle to a background server started by [`Server::spawn`].
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: std::thread::JoinHandle<()>,
}

impl ServerHandle {
    /// The serving address.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the accept loop and joins the serving thread. Does not touch
    /// the engine — shut that down separately.
    pub fn stop(self) {
        self.stop.store(true, Ordering::Relaxed);
        // Unblock the accept() call.
        let _ = TcpStream::connect(self.addr);
        let _ = self.thread.join();
    }
}

fn serve_until(listener: &TcpListener, engine: &Arc<Engine>, stop: &AtomicBool) {
    for stream in listener.incoming() {
        if stop.load(Ordering::Relaxed) {
            return;
        }
        match stream {
            Ok(stream) => {
                // A stalled client must never pin its handler thread:
                // bound every socket operation. `Some(..)` is never zero,
                // so set_* cannot fail with InvalidInput.
                let _ = stream.set_read_timeout(Some(SOCKET_TIMEOUT));
                let _ = stream.set_write_timeout(Some(SOCKET_TIMEOUT));
                let engine = Arc::clone(engine);
                let spawned = std::thread::Builder::new()
                    .name("fsp-http-conn".to_owned())
                    .spawn(move || {
                        if let Err(e) = handle_connection(stream, &engine) {
                            // Deadline expiries are routine (slow or gone
                            // peers); close silently rather than spam.
                            if !matches!(
                                e.kind(),
                                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                            ) {
                                eprintln!("fsp-serve: connection error: {e}");
                            }
                        }
                    });
                if let Err(e) = spawned {
                    eprintln!("fsp-serve: spawning connection handler failed: {e}");
                }
            }
            Err(e) => eprintln!("fsp-serve: accept failed: {e}"),
        }
    }
}

/// A request read off a connection by [`read_request`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// The method, e.g. `GET`.
    pub method: String,
    /// The request target: path and optional `?query`.
    pub target: String,
    /// The body, exactly `Content-Length` bytes of UTF-8 (empty without
    /// the header).
    pub body: String,
}

/// Why [`read_request`] returned no request.
#[derive(Debug)]
pub enum RequestError {
    /// The peer closed the connection before sending anything (e.g. the
    /// wake-up connection of [`ServerHandle::stop`]).
    Closed,
    /// The request line is not `METHOD TARGET HTTP/x`.
    RequestLine,
    /// A line is longer than [`MAX_LINE`] bytes.
    LineTooLong,
    /// More than [`MAX_HEADERS`] header lines.
    TooManyHeaders,
    /// A header line has no `name:` part.
    Header,
    /// `Content-Length` is not a decimal number, or is given twice with
    /// different values.
    ContentLength,
    /// `Content-Length` exceeds [`MAX_BODY`].
    BodyTooLarge(usize),
    /// The connection ended inside the head or the body.
    Truncated,
    /// The request line, a header or the body is not UTF-8.
    Encoding,
    /// Reading the connection failed.
    Io(std::io::Error),
}

impl std::fmt::Display for RequestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RequestError::Closed => write!(f, "connection closed before a request"),
            RequestError::RequestLine => write!(f, "malformed request line"),
            RequestError::LineTooLong => write!(f, "request line or header over {MAX_LINE} bytes"),
            RequestError::TooManyHeaders => write!(f, "more than {MAX_HEADERS} headers"),
            RequestError::Header => write!(f, "malformed header line"),
            RequestError::ContentLength => write!(f, "malformed Content-Length"),
            RequestError::BodyTooLarge(n) => {
                write!(f, "body of {n} bytes exceeds the {MAX_BODY}-byte limit")
            }
            RequestError::Truncated => write!(f, "request truncated"),
            RequestError::Encoding => write!(f, "request is not UTF-8"),
            RequestError::Io(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for RequestError {}

/// Reads one line of at most [`MAX_LINE`] bytes, without its line end.
/// `None` at end of input.
fn read_line(reader: &mut impl BufRead) -> Result<Option<String>, RequestError> {
    let mut buf = Vec::new();
    reader
        .take(MAX_LINE as u64)
        .read_until(b'\n', &mut buf)
        .map_err(RequestError::Io)?;
    if buf.is_empty() {
        return Ok(None);
    }
    if buf.pop() != Some(b'\n') {
        // Capped or cut off before the line end.
        return Err(if buf.len() + 1 == MAX_LINE {
            RequestError::LineTooLong
        } else {
            RequestError::Truncated
        });
    }
    if buf.last() == Some(&b'\r') {
        buf.pop();
    }
    String::from_utf8(buf)
        .map(Some)
        .map_err(|_| RequestError::Encoding)
}

/// Reads one HTTP/1.1 request: the request line, the headers and exactly
/// `Content-Length` bytes of body.
///
/// # Errors
///
/// A [`RequestError`] for input that is not a well-formed request within
/// the line, header and body limits; [`RequestError::Closed`] if the input
/// ends before any byte.
pub fn read_request(reader: &mut impl BufRead) -> Result<Request, RequestError> {
    let line = read_line(reader)?.ok_or(RequestError::Closed)?;
    let mut parts = line.split(' ');
    let (Some(method), Some(target), Some(version), None) =
        (parts.next(), parts.next(), parts.next(), parts.next())
    else {
        return Err(RequestError::RequestLine);
    };
    if method.is_empty()
        || !method.bytes().all(|b| b.is_ascii_uppercase())
        || target.is_empty()
        || !version.starts_with("HTTP/")
    {
        return Err(RequestError::RequestLine);
    }
    let (method, target) = (method.to_owned(), target.to_owned());

    let mut content_length: Option<usize> = None;
    let mut headers = 0;
    loop {
        let line = read_line(reader)?.ok_or(RequestError::Truncated)?;
        if line.is_empty() {
            break;
        }
        headers += 1;
        if headers > MAX_HEADERS {
            return Err(RequestError::TooManyHeaders);
        }
        let (name, value) = line.split_once(':').ok_or(RequestError::Header)?;
        if name.is_empty() || name.bytes().any(|b| b.is_ascii_whitespace()) {
            return Err(RequestError::Header);
        }
        if !name.eq_ignore_ascii_case("content-length") {
            continue;
        }
        let value = value.trim();
        if value.is_empty() || !value.bytes().all(|b| b.is_ascii_digit()) {
            return Err(RequestError::ContentLength);
        }
        // All digits: only overflow can fail, and that is over the limit.
        let n = value.parse().unwrap_or(usize::MAX);
        if content_length.is_some_and(|m| m != n) {
            return Err(RequestError::ContentLength);
        }
        if n > MAX_BODY {
            return Err(RequestError::BodyTooLarge(n));
        }
        content_length = Some(n);
    }
    let mut body = vec![0u8; content_length.unwrap_or(0)];
    reader.read_exact(&mut body).map_err(|e| match e.kind() {
        std::io::ErrorKind::UnexpectedEof => RequestError::Truncated,
        _ => RequestError::Io(e),
    })?;
    let body = String::from_utf8(body).map_err(|_| RequestError::Encoding)?;
    Ok(Request {
        method,
        target,
        body,
    })
}

fn handle_connection(stream: TcpStream, engine: &Engine) -> std::io::Result<()> {
    let mut reader = BufReader::new(stream);
    let (status, content_type, response_body) = match read_request(&mut reader) {
        Ok(Request {
            method,
            target,
            body,
        }) => {
            let _request = fsp_obs::span_labeled("http.request", format!("{method} {target}"));
            route(engine, &method, &target, &body)
        }
        Err(RequestError::Closed) => return Ok(()),
        Err(RequestError::Io(e)) => return Err(e),
        Err(e) => (400, JSON, error_body(&e.to_string())),
    };
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        _ => "Internal Server Error",
    };
    let stream = reader.get_mut();
    write!(
        stream,
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{response_body}",
        response_body.len()
    )?;
    stream.flush()
}

fn error_body(message: &str) -> String {
    Json::obj([("error", Json::Str(message.to_owned()))]).to_string()
}

const JSON: &str = "application/json";

/// Largest `wait_ms` a JSON number carries exactly (2^53).
const MAX_EXACT_MS: f64 = 9_007_199_254_740_992.0;

/// The `wait_ms` field of a request body: absent means no wait.
///
/// # Errors
///
/// Anything but a whole, non-negative number of at most 2^53 ms: a
/// string, `null`, a negative, fractional or overflowing number.
fn body_wait(body: &Json) -> Result<Duration, String> {
    match body.get("wait_ms") {
        None => Ok(Duration::ZERO),
        Some(Json::Num(ms)) if ms.fract() == 0.0 && (0.0..=MAX_EXACT_MS).contains(ms) => {
            Ok(Duration::from_millis(*ms as u64))
        }
        Some(other) => Err(format!(
            "`wait_ms` must be a whole number of milliseconds, got {other}"
        )),
    }
}

/// The `wait_ms` query parameter: absent means no wait.
///
/// # Errors
///
/// A value that is not a plain run of decimal digits fitting a `u64`.
fn query_wait(query: &str) -> Result<Duration, String> {
    let Some(value) = query
        .split('&')
        .find_map(|pair| pair.strip_prefix("wait_ms="))
    else {
        return Ok(Duration::ZERO);
    };
    if value.is_empty() || !value.bytes().all(|b| b.is_ascii_digit()) {
        return Err(format!(
            "`wait_ms` must be a whole number of milliseconds, got `{value}`"
        ));
    }
    value
        .parse()
        .map(Duration::from_millis)
        .map_err(|_| format!("`wait_ms` out of range: `{value}`"))
}

/// A job document (`render`) after the query's `wait_ms` wait.
fn job_doc(
    engine: &Engine,
    id: &str,
    query: &str,
    render: fn(&Engine, &str) -> Option<Json>,
) -> (u16, &'static str, String) {
    match query_wait(query) {
        Ok(wait) => {
            engine.wait_job(id, wait);
            match render(engine, id) {
                Some(doc) => (200, JSON, doc.to_string()),
                None => (404, JSON, error_body("no such job")),
            }
        }
        Err(e) => (400, JSON, error_body(&e)),
    }
}

fn route(engine: &Engine, method: &str, target: &str, body: &str) -> (u16, &'static str, String) {
    let (path, query) = target.split_once('?').unwrap_or((target, ""));
    match (method, path) {
        ("POST", "/jobs") => match Json::parse(body).and_then(|v| {
            let fleet = v.get("fleet").and_then(Json::as_bool).unwrap_or(false);
            JobSpec::from_json(&v).and_then(|spec| engine.submit_with(spec, fleet))
        }) {
            Ok(id) => (200, JSON, Json::obj([("id", Json::Str(id))]).to_string()),
            Err(e) => (400, JSON, error_body(&e)),
        },
        ("GET", "/jobs") => (200, JSON, engine.jobs_json().to_string()),
        ("POST", "/leases") => match Json::parse(body).and_then(|v| Ok((body_wait(&v)?, v))) {
            Ok((wait, v)) => {
                let worker = v
                    .get("worker")
                    .and_then(Json::as_str)
                    .unwrap_or("anonymous");
                (200, JSON, engine.fleet_acquire(worker, wait).to_string())
            }
            Err(e) => (400, JSON, error_body(&e)),
        },
        ("POST", _) if path.starts_with("/leases/") && path.ends_with("/heartbeat") => {
            let id = &path["/leases/".len()..path.len() - "/heartbeat".len()];
            match Json::parse(body) {
                Ok(v) => {
                    let worker = v
                        .get("worker")
                        .and_then(Json::as_str)
                        .unwrap_or("anonymous");
                    let (status, response) = engine.fleet_heartbeat(id, worker);
                    (status, JSON, response.to_string())
                }
                Err(e) => (400, JSON, error_body(&e)),
            }
        }
        ("POST", _) if path.starts_with("/leases/") && path.ends_with("/outcomes") => {
            let id = &path["/leases/".len()..path.len() - "/outcomes".len()];
            match Json::parse(body) {
                Ok(v) => {
                    let (status, response) = engine.fleet_submit_outcomes(id, &v);
                    (status, JSON, response.to_string())
                }
                Err(e) => (400, JSON, error_body(&e)),
            }
        }
        ("GET", "/fleet") => (200, JSON, engine.fleet_status_json().to_string()),
        ("GET", "/kernels") => (200, JSON, kernels_json().to_string()),
        ("GET", "/metrics") => (200, "text/plain; version=0.0.4", engine.metrics_text()),
        ("GET", "/dashboard") => (
            200,
            "text/html; charset=utf-8",
            crate::dashboard::PAGE.to_owned(),
        ),
        ("GET", "/trace") => (200, JSON, engine.trace_json()),
        ("GET", _) if path.starts_with("/jobs/") && path.ends_with("/progress") => {
            let id = &path["/jobs/".len()..path.len() - "/progress".len()];
            job_doc(engine, id, query, Engine::progress_json)
        }
        ("GET", _) if path.starts_with("/jobs/") && path.ends_with("/result") => {
            let id = &path["/jobs/".len()..path.len() - "/result".len()];
            match engine.result_json(id) {
                Ok(result) => (200, JSON, result.to_string()),
                Err(ResultError::NotFound) => (404, JSON, error_body("no such job")),
                Err(ResultError::NotReady(state)) => (
                    409,
                    JSON,
                    Json::obj([
                        ("error", Json::Str("job not completed".to_owned())),
                        ("state", Json::Str(state.name().to_owned())),
                    ])
                    .to_string(),
                ),
                Err(ResultError::Failed(e)) => (500, JSON, error_body(&e)),
            }
        }
        ("POST", _) if path.starts_with("/jobs/") && path.ends_with("/cancel") => {
            let id = &path["/jobs/".len()..path.len() - "/cancel".len()];
            if engine.cancel(id) {
                (
                    200,
                    JSON,
                    Json::obj([("cancelled", Json::Bool(true))]).to_string(),
                )
            } else {
                (409, JSON, error_body("job not cancellable"))
            }
        }
        ("GET", _) if path.starts_with("/jobs/") => {
            job_doc(engine, &path["/jobs/".len()..], query, Engine::job_json)
        }
        ("GET" | "POST", _) => (404, JSON, error_body("no such route")),
        _ => (405, JSON, error_body("method not allowed")),
    }
}

//! A minimal blocking HTTP client for the service, used by `fsp submit`,
//! `fsp status` and `fsp fetch`.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use crate::job::JobSpec;
use fsp_fleet::Json;

/// Client for one fsp-serve instance.
#[derive(Debug, Clone)]
pub struct Client {
    addr: String,
}

impl Client {
    /// A client for `addr` (e.g. `"127.0.0.1:7071"`).
    #[must_use]
    pub fn new(addr: impl Into<String>) -> Client {
        Client { addr: addr.into() }
    }

    /// Submits a job; returns its id.
    ///
    /// # Errors
    ///
    /// Transport failures and server-side rejections (as their message).
    pub fn submit(&self, spec: &JobSpec) -> Result<String, String> {
        let body =
            expect_json(self.request("POST", "/jobs", Some(&spec.to_json().to_string()))?)?;
        body.get("id")
            .and_then(Json::as_str)
            .map(str::to_owned)
            .ok_or_else(|| "malformed submit response".to_owned())
    }

    /// Submits a job for fleet execution: the campaign is sharded into
    /// leases drained by `fsp worker` processes instead of the server's
    /// in-process pool. Returns its id.
    ///
    /// # Errors
    ///
    /// Transport failures and server-side rejections (as their message).
    pub fn submit_fleet(&self, spec: &JobSpec) -> Result<String, String> {
        let mut doc = spec.to_json();
        if let Json::Obj(pairs) = &mut doc {
            pairs.push(("fleet".to_owned(), Json::Bool(true)));
        }
        let body = expect_json(self.request("POST", "/jobs", Some(&doc.to_string()))?)?;
        body.get("id")
            .and_then(Json::as_str)
            .map(str::to_owned)
            .ok_or_else(|| "malformed submit response".to_owned())
    }

    /// The fleet status document (`GET /fleet`): chunk counts by state
    /// and per-worker lease/heartbeat/throughput counters.
    ///
    /// # Errors
    ///
    /// Transport failures.
    pub fn fleet_status(&self) -> Result<Json, String> {
        expect_json(self.request("GET", "/fleet", None)?)
    }

    /// The job's status document.
    ///
    /// # Errors
    ///
    /// Transport failures and 4xx/5xx responses.
    pub fn status(&self, id: &str) -> Result<Json, String> {
        expect_json(self.request("GET", &format!("/jobs/{id}"), None)?)
    }

    /// The job's live statistical progress document: per-outcome point
    /// estimates with confidence intervals, achieved-vs-requested margin
    /// and projected sites remaining.
    ///
    /// # Errors
    ///
    /// Transport failures and 4xx/5xx responses.
    pub fn progress(&self, id: &str) -> Result<Json, String> {
        self.progress_after(id, Duration::ZERO)
    }

    /// The job's progress document once the job leaves the queued/running
    /// states or `wait` passes, whichever comes first: the server holds
    /// the request open (`?wait_ms=`, capped at
    /// [`fsp_fleet::MAX_POLL_WAIT`]).
    ///
    /// # Errors
    ///
    /// Transport failures and 4xx/5xx responses.
    pub fn progress_after(&self, id: &str, wait: Duration) -> Result<Json, String> {
        expect_json(self.request(
            "GET",
            &format!("/jobs/{id}/progress?wait_ms={}", wait.as_millis()),
            None,
        )?)
    }

    /// The canonical result document of a completed job.
    ///
    /// # Errors
    ///
    /// Transport failures; 409 (not completed yet) surfaces the state.
    pub fn result(&self, id: &str) -> Result<Json, String> {
        expect_json(self.request("GET", &format!("/jobs/{id}/result"), None)?)
    }

    /// Waits until the job leaves the queued/running states, then returns
    /// its final status document. Each request asks the server to hold it
    /// open (`GET /jobs/:id?wait_ms=`) for the next delay of the fleet
    /// retry schedule ([`fsp_fleet::Backoff`]); the server answers as soon
    /// as the job settles, so the schedule only sets how often a long job
    /// is re-asked about, never how late its end is seen.
    ///
    /// # Errors
    ///
    /// Transport failures, or `timeout` elapsing first.
    pub fn wait(&self, id: &str, timeout: Duration) -> Result<Json, String> {
        let deadline = Instant::now() + timeout;
        let mut backoff = fsp_fleet::Backoff::poll(fsp_fleet::wire::frame_fnv(id.as_bytes()));
        loop {
            // Never wait past the caller's deadline.
            let wait = backoff
                .next_delay()
                .min(deadline.saturating_duration_since(Instant::now()));
            let status = expect_json(self.request(
                "GET",
                &format!("/jobs/{id}?wait_ms={}", wait.as_millis()),
                None,
            )?)?;
            match status.get("state").and_then(Json::as_str) {
                Some("queued" | "running") => {}
                Some(_) => return Ok(status),
                None => return Err("status document missing `state`".to_owned()),
            }
            if Instant::now() >= deadline {
                return Err(format!("timed out waiting for {id}"));
            }
        }
    }

    /// Requests cancellation of a job.
    ///
    /// # Errors
    ///
    /// Transport failures and non-cancellable states.
    pub fn cancel(&self, id: &str) -> Result<(), String> {
        expect_json(self.request("POST", &format!("/jobs/{id}/cancel"), None)?).map(|_| ())
    }

    /// Status documents of every job on the server.
    ///
    /// # Errors
    ///
    /// Transport failures.
    pub fn jobs(&self) -> Result<Json, String> {
        expect_json(self.request("GET", "/jobs", None)?)
    }

    /// The kernel registry with fingerprints.
    ///
    /// # Errors
    ///
    /// Transport failures.
    pub fn kernels(&self) -> Result<Json, String> {
        expect_json(self.request("GET", "/kernels", None)?)
    }

    /// The raw Prometheus metrics text.
    ///
    /// # Errors
    ///
    /// Transport failures.
    pub fn metrics(&self) -> Result<String, String> {
        let (status, body) = self.request("GET", "/metrics", None)?;
        if status == 200 {
            Ok(body)
        } else {
            Err(format!("GET /metrics returned {status}"))
        }
    }

    /// The live span timeline as Chrome trace-event JSON (requires the
    /// server to run with tracing enabled — `fsp serve --trace`).
    ///
    /// # Errors
    ///
    /// Transport failures.
    pub fn trace(&self) -> Result<String, String> {
        let (status, body) = self.request("GET", "/trace", None)?;
        if status == 200 {
            Ok(body)
        } else {
            Err(format!("GET /trace returned {status}"))
        }
    }

    /// One scrape value from `/metrics` (e.g. `"fsp_cache_hits_total"`).
    ///
    /// # Errors
    ///
    /// Transport failures or an absent metric.
    pub fn metric(&self, name: &str) -> Result<f64, String> {
        self.metrics()?
            .lines()
            .find_map(|l| {
                l.strip_prefix(name)
                    .and_then(|rest| rest.strip_prefix(' '))
                    .and_then(|v| v.trim().parse().ok())
            })
            .ok_or_else(|| format!("metric `{name}` not exposed"))
    }

    fn request(
        &self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> Result<(u16, String), String> {
        let mut stream = TcpStream::connect(&self.addr)
            .map_err(|e| format!("connecting to {}: {e}", self.addr))?;
        let body = body.unwrap_or("");
        write!(
            stream,
            "{method} {path} HTTP/1.1\r\nHost: {}\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
            self.addr,
            body.len()
        )
        .map_err(|e| format!("sending request: {e}"))?;
        let mut response = String::new();
        stream
            .read_to_string(&mut response)
            .map_err(|e| format!("reading response: {e}"))?;
        let (head, response_body) = response
            .split_once("\r\n\r\n")
            .ok_or("truncated HTTP response")?;
        let status: u16 = head
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or("malformed status line")?;
        Ok((status, response_body.to_owned()))
    }
}

fn expect_json((status, body): (u16, String)) -> Result<Json, String> {
    let value = Json::parse(&body).map_err(|e| format!("malformed response ({status}): {e}"))?;
    if status == 200 {
        Ok(value)
    } else {
        let detail = value
            .get("error")
            .and_then(Json::as_str)
            .unwrap_or("unknown error");
        let state = value
            .get("state")
            .and_then(Json::as_str)
            .map(|s| format!(" (state: {s})"))
            .unwrap_or_default();
        Err(format!("server returned {status}: {detail}{state}"))
    }
}

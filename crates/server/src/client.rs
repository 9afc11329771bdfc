//! A typed client for the wire protocol — used by the integration tests,
//! `bench serve`, and CI's corpus replay.
//!
//! With a [`RetryPolicy`] armed, transient failures — `overloaded`
//! rejections and transport errors (the server dropped, truncated or
//! garbled a response) — are retried with jittered exponential backoff on
//! a fresh connection, and previously opened sessions are re-opened first,
//! so a corrupted connection costs latency, not correctness. Every command
//! here is idempotent (queries are pure; `OPEN` hits the compiled-program
//! cache), which is what makes blind retry sound.

use crate::session::{ErrorCode, ServeError};
use std::collections::BTreeMap;
use std::io;
use std::net::SocketAddr;
use std::time::Duration;

/// Errors a client call can produce: transport failures or typed protocol
/// errors.
#[derive(Debug)]
pub enum ClientError {
    /// The connection failed mid-call.
    Io(io::Error),
    /// The server answered `ERR <code>` with a JSON body.
    Serve(ServeError),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport error: {e}"),
            ClientError::Serve(e) => write!(f, "{}: {}", e.code.token(), e.message),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

fn parse_error_code(token: &str) -> ErrorCode {
    match token {
        "no-session" => ErrorCode::NoSession,
        "compile-failed" => ErrorCode::CompileFailed,
        "query-failed" => ErrorCode::QueryFailed,
        "overloaded" => ErrorCode::Overloaded,
        "deadline-exceeded" => ErrorCode::DeadlineExceeded,
        "internal-error" => ErrorCode::Internal,
        _ => ErrorCode::BadRequest,
    }
}

/// Bounded, jittered exponential backoff for transient failures.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts, including the first (so `1` disables retrying).
    pub attempts: u32,
    /// Backoff before retry `n` is `base_delay * 2^n`, capped below.
    pub base_delay: Duration,
    /// Cap on a single backoff sleep.
    pub max_delay: Duration,
    /// Seed of the deterministic jitter stream (tests replay exactly).
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            attempts: 4,
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_millis(400),
            seed: 0,
        }
    }
}

impl RetryPolicy {
    /// The backoff before retry `attempt` (0-based): exponential, capped,
    /// then jittered to 50–150% so synchronized clients don't re-dogpile
    /// an overloaded server in lockstep.
    fn backoff(&self, attempt: u32, rng: &mut u64) -> Duration {
        let exp = self
            .base_delay
            .saturating_mul(1u32.checked_shl(attempt.min(16)).unwrap_or(u32::MAX));
        let capped = exp.min(self.max_delay);
        let mut x = *rng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *rng = x;
        capped * (50 + (x % 101) as u32) / 100
    }
}

/// Pull the `"message"` string out of an error body without a JSON parser —
/// the body shape is fixed (our own renderer), so a split suffices.
fn error_message(body: &str) -> String {
    body.split_once("\"message\": \"")
        .map(|(_, rest)| {
            let mut out = String::new();
            let mut chars = rest.chars();
            while let Some(c) = chars.next() {
                match c {
                    '"' => break,
                    '\\' => match chars.next() {
                        Some('n') => out.push('\n'),
                        Some('t') => out.push('\t'),
                        Some(other) => out.push(other),
                        None => break,
                    },
                    c => out.push(c),
                }
            }
            out
        })
        .unwrap_or_else(|| body.to_owned())
}

/// One blocking connection to a `gdlog serve` instance.
pub struct ServeClient {
    inner: netline::Client,
    addr: SocketAddr,
    retry: Option<RetryPolicy>,
    rng: u64,
    /// Sessions opened through this client (`label → source`), replayed
    /// after a retry reconnect — sessions are connection-scoped on the
    /// server, so a fresh connection starts with none.
    opened: BTreeMap<String, String>,
}

impl ServeClient {
    /// Connect.
    pub fn connect(addr: SocketAddr) -> io::Result<ServeClient> {
        Ok(ServeClient {
            inner: netline::Client::connect(addr)?,
            addr,
            retry: None,
            rng: 0,
            opened: BTreeMap::new(),
        })
    }

    /// Arm (or disarm) retry-with-backoff for `overloaded` and transport
    /// errors.
    pub fn set_retry_policy(&mut self, policy: Option<RetryPolicy>) {
        // Displace the jitter seed off xorshift's zero fixpoint.
        self.rng = policy.map_or(0, |p| p.seed ^ 0x9e37_79b9_7f4a_7c15);
        self.retry = policy;
    }

    /// Arm (or disarm) a socket read/write timeout so calls against a
    /// stalled server fail (and, with a retry policy, reconnect) instead of
    /// blocking forever.
    pub fn set_io_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        self.inner.set_io_timeout(timeout)
    }

    fn call_once(&mut self, head: &str, body: &[u8]) -> Result<String, ClientError> {
        let response = self.inner.call(head, body.to_vec())?;
        let body = response.body_text();
        if let Some(code) = response.head.strip_prefix("ERR ") {
            return Err(ClientError::Serve(ServeError {
                code: parse_error_code(code.trim()),
                message: error_message(&body),
            }));
        }
        Ok(body)
    }

    /// Reconnect and re-open every session this client had opened, so a
    /// retried `QUERY` does not land on a session-less fresh connection.
    fn reconnect(&mut self) -> Result<(), ClientError> {
        self.inner = netline::Client::connect(self.addr)?;
        for (label, source) in self.opened.clone() {
            self.call_once(&format!("OPEN {label}"), source.as_bytes())?;
        }
        Ok(())
    }

    fn call(&mut self, head: &str, body: Vec<u8>) -> Result<String, ClientError> {
        let Some(policy) = self.retry else {
            return self.call_once(head, &body);
        };
        let mut last = None;
        for attempt in 0..policy.attempts.max(1) {
            if attempt > 0 {
                std::thread::sleep(policy.backoff(attempt - 1, &mut self.rng));
            }
            let transport_failed = matches!(last, Some(ClientError::Io(_)));
            if transport_failed {
                if let Err(e) = self.reconnect() {
                    last = Some(e);
                    continue;
                }
            }
            match self.call_once(head, &body) {
                Ok(response) => return Ok(response),
                // Transient: the server shed load, or the transport died
                // (dropped/truncated/garbled response, stalled socket).
                Err(e @ ClientError::Io(_)) => last = Some(e),
                Err(ClientError::Serve(e)) if e.code == ErrorCode::Overloaded => {
                    last = Some(ClientError::Serve(e))
                }
                // Typed, non-transient protocol errors never retry.
                Err(other) => return Err(other),
            }
        }
        Err(last.expect("at least one attempt"))
    }

    /// `PING` → `pong`.
    pub fn ping(&mut self) -> Result<String, ClientError> {
        self.call("PING", Vec::new())
    }

    /// Open a session: compile `source` under `label` (label must be a
    /// single token; scenario paths are).
    pub fn open(&mut self, label: &str, source: &str) -> Result<String, ClientError> {
        let response = self.call(&format!("OPEN {label}"), source.as_bytes().to_vec())?;
        self.opened.insert(label.to_owned(), source.to_owned());
        Ok(response)
    }

    /// Query an open session with `gdlog run`-style flags, one argument per
    /// element. Returns the response JSON.
    pub fn query(&mut self, label: &str, argv: &[&str]) -> Result<String, ClientError> {
        let body = argv.join("\n").into_bytes();
        self.call(&format!("QUERY {label}"), body)
    }

    /// Close a session.
    pub fn close(&mut self, label: &str) -> Result<String, ClientError> {
        self.opened.remove(label);
        self.call(&format!("CLOSE {label}"), Vec::new())
    }

    /// Server statistics JSON.
    pub fn stats(&mut self) -> Result<String, ClientError> {
        self.call("STATS", Vec::new())
    }

    /// Drop the server's compiled-program cache (cold-path measurements).
    pub fn reset(&mut self) -> Result<String, ClientError> {
        self.call("RESET", Vec::new())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_bodies_round_trip_through_the_scraper() {
        let e = ServeError {
            code: ErrorCode::CompileFailed,
            message: "error: boom\n  --> x.gdl:1:9\n".into(),
        };
        let body = e.body();
        assert_eq!(error_message(&body), e.message);
        assert_eq!(parse_error_code("compile-failed"), ErrorCode::CompileFailed);
        assert_eq!(parse_error_code("???"), ErrorCode::BadRequest);
    }
}

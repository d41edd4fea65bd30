//! A small blocking HTTP client over one keep-alive connection.
//!
//! This is the counterpart the server's own tests, the CLI tests, the
//! `netload` harness and `examples/client.rs` all share — deliberately
//! minimal (no redirects, no TLS, no chunked bodies) because it only
//! ever talks to [`crate::server::Server`].

use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

/// The most body bytes a response's `Content-Length` reserves before
/// any arrive: the server's own request limit
/// ([`ParserLimits::max_body_bytes`](crate::ParserLimits::max_body_bytes)).
const PRESIZED_BODY_MAX: usize = 4 * 1024 * 1024;

/// The most bytes one read of a response body asks for.
const READ_CHUNK: usize = 64 * 1024;

/// Backoff tuning for [`HttpClient::send_with_retry`].
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Total attempts, including the first (so `1` means no retries).
    pub attempts: u32,
    /// Backoff before the first retry; doubles per retry.
    pub base_backoff: Duration,
    /// Cap on any single backoff — also caps an honored `Retry-After`,
    /// so a server asking for 30 s cannot stall a caller that budgeted
    /// less.
    pub max_backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            attempts: 4,
            base_backoff: Duration::from_millis(50),
            max_backoff: Duration::from_secs(2),
        }
    }
}

impl RetryPolicy {
    /// The backoff before retry number `retry` (0-based), honoring the
    /// server's `Retry-After` hint when it is larger: exponential from
    /// [`base_backoff`](RetryPolicy::base_backoff), jittered to 50-100%
    /// so synchronized clients spread out, capped at
    /// [`max_backoff`](RetryPolicy::max_backoff).
    fn backoff(&self, retry: u32, retry_after: Option<Duration>, jitter_seed: u64) -> Duration {
        let exp = self
            .base_backoff
            .saturating_mul(1u32 << retry.min(16))
            .min(self.max_backoff);
        let hinted = match retry_after {
            Some(ra) => exp.max(ra.min(self.max_backoff)),
            None => exp,
        };
        // Multiplicative 50-100% jitter from a tiny splitmix step — a
        // real RNG would be a dependency for one scalar.
        let mut z = jitter_seed.wrapping_add(0x9e3779b97f4a7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        let frac = 0.5 + 0.5 * ((z >> 11) as f64 / (1u64 << 53) as f64);
        hinted.mul_f64(frac)
    }
}

/// A parsed response.
#[derive(Debug, Clone)]
pub struct HttpResponse {
    /// Status code.
    pub status: u16,
    /// Headers, lower-cased names.
    pub headers: BTreeMap<String, String>,
    /// Body bytes (Content-Length framed).
    pub body: Vec<u8>,
}

impl HttpResponse {
    /// Header lookup by case-insensitive name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .get(&name.to_ascii_lowercase())
            .map(|s| s.as_str())
    }

    /// The body as UTF-8 text (lossy).
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// A persistent connection to one server.
pub struct HttpClient {
    stream: TcpStream,
    leftover: Vec<u8>,
    /// The server's resolved address — kept for reconnecting after a
    /// reset inside [`HttpClient::send_with_retry`].
    addr: SocketAddr,
    timeout: Option<Duration>,
}

impl HttpClient {
    /// Connect to `addr`.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<HttpClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        let addr = stream.peer_addr()?;
        Ok(HttpClient {
            stream,
            leftover: Vec::new(),
            addr,
            timeout: None,
        })
    }

    /// Set a read timeout for responses (None = block forever). The
    /// timeout survives a retry-triggered reconnect.
    pub fn set_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        self.timeout = timeout;
        self.stream.set_read_timeout(timeout)
    }

    /// Drop the current connection and dial the server again.
    pub fn reconnect(&mut self) -> io::Result<()> {
        let stream = TcpStream::connect(self.addr)?;
        stream.set_nodelay(true).ok();
        stream.set_read_timeout(self.timeout)?;
        self.stream = stream;
        self.leftover.clear();
        Ok(())
    }

    /// `GET path` and read the response.
    pub fn get(&mut self, path: &str) -> io::Result<HttpResponse> {
        self.request("GET", path, &[], b"")
    }

    /// `POST path` with a JSON body.
    pub fn post_json(&mut self, path: &str, body: &str) -> io::Result<HttpResponse> {
        self.request(
            "POST",
            path,
            &[("Content-Type", "application/json")],
            body.as_bytes(),
        )
    }

    /// Issue a request with arbitrary extra headers.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        headers: &[(&str, &str)],
        body: &[u8],
    ) -> io::Result<HttpResponse> {
        let mut head = format!("{method} {path} HTTP/1.1\r\nHost: mpq\r\n");
        for (name, value) in headers {
            head.push_str(&format!("{name}: {value}\r\n"));
        }
        head.push_str(&format!("Content-Length: {}\r\n\r\n", body.len()));
        self.stream.write_all(head.as_bytes())?;
        self.stream.write_all(body)?;
        self.read_response()
    }

    /// Issue a request, retrying on backpressure and broken
    /// connections.
    ///
    /// Retries happen on `429 Too Many Requests` (honoring the server's
    /// `Retry-After`, capped by the policy) and on connection errors
    /// (reset, broken pipe, unexpected EOF — the client reconnects
    /// first), with jittered exponential backoff between attempts.
    /// Other statuses — including `4xx`/`5xx` — return immediately:
    /// whether e.g. a `503` mutation is safe to resend is the caller's
    /// call, not the transport's. **Only send idempotent requests
    /// through this** (`/match` is: evaluation never mutates), since a
    /// request whose response was lost may execute twice.
    ///
    /// Returns the last response once one arrives and no retry applies
    /// (so an exhausted budget surfaces the final `429` to the caller),
    /// or the last connection error if the budget ends without any
    /// response.
    pub fn send_with_retry(
        &mut self,
        method: &str,
        path: &str,
        headers: &[(&str, &str)],
        body: &[u8],
        policy: RetryPolicy,
    ) -> io::Result<HttpResponse> {
        let attempts = policy.attempts.max(1);
        let mut last_err: Option<io::Error> = None;
        for attempt in 0..attempts {
            if last_err.is_some() {
                // The previous attempt died mid-exchange; the old
                // stream's framing is unknown, start fresh.
                match self.reconnect() {
                    Ok(()) => last_err = None,
                    Err(e) => {
                        last_err = Some(e);
                        continue;
                    }
                }
            }
            let retry_after = match self.request(method, path, headers, body) {
                Ok(resp) if resp.status == 429 && attempt + 1 < attempts => resp
                    .header("retry-after")
                    .and_then(|v| v.trim().parse::<u64>().ok())
                    .map(Duration::from_secs),
                Ok(resp) => return Ok(resp),
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::ConnectionReset
                            | io::ErrorKind::ConnectionAborted
                            | io::ErrorKind::BrokenPipe
                            | io::ErrorKind::UnexpectedEof
                    ) =>
                {
                    last_err = Some(e);
                    None
                }
                Err(e) => return Err(e),
            };
            if attempt + 1 < attempts {
                let seed = (attempt as u64) << 32 | self.addr.port() as u64;
                std::thread::sleep(policy.backoff(attempt, retry_after, seed));
            }
        }
        Err(last_err.unwrap_or_else(|| {
            io::Error::other("retry budget exhausted without a terminal response")
        }))
    }

    /// Write a request but never read the response — used by tests that
    /// exercise the server's disconnect-cancellation path.
    pub fn fire_and_forget(&mut self, method: &str, path: &str, body: &[u8]) -> io::Result<()> {
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: mpq\r\nContent-Length: {}\r\n\r\n",
            body.len()
        );
        self.stream.write_all(head.as_bytes())?;
        self.stream.write_all(body)
    }

    fn read_response(&mut self) -> io::Result<HttpResponse> {
        let mut buf = std::mem::take(&mut self.leftover);
        let head_end = loop {
            if let Some(i) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break i + 4;
            }
            let mut chunk = [0u8; 8 * 1024];
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed before response head",
                ));
            }
            buf.extend_from_slice(&chunk[..n]);
        };
        let head = String::from_utf8_lossy(&buf[..head_end]).into_owned();
        let mut lines = head.split("\r\n");
        let status_line = lines.next().unwrap_or_default();
        let status: u16 = status_line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("bad status: {status_line}"),
                )
            })?;
        let mut headers = BTreeMap::new();
        for line in lines {
            if let Some((name, value)) = line.split_once(':') {
                headers.insert(name.to_ascii_lowercase(), value.trim().to_string());
            }
        }
        let content_length: usize = headers
            .get("content-length")
            .and_then(|v| v.parse().ok())
            .unwrap_or(0);
        // One buffer sized from the declared length, which a server
        // could inflate: past `PRESIZED_BODY_MAX` the body grows as it
        // arrives.
        let mut body = Vec::with_capacity(content_length.min(PRESIZED_BODY_MAX));
        body.extend_from_slice(&buf[head_end..]);
        while body.len() < content_length {
            let filled = body.len();
            body.resize(content_length.min(filled + READ_CHUNK), 0);
            let n = self.stream.read(&mut body[filled..])?;
            body.truncate(filled + n);
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid-body",
                ));
            }
        }
        // Anything past the declared body belongs to the next response.
        self.leftover = body.split_off(content_length);
        Ok(HttpResponse {
            status,
            headers,
            body,
        })
    }
}

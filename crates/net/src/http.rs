//! A deliberately small HTTP/1.1 implementation: exactly what the wire
//! front-end needs, and nothing the container can't provide.
//!
//! The parser is **incremental**: feed it whatever bytes the socket
//! produced ([`RequestParser::feed`]) and ask whether a full request has
//! materialized ([`RequestParser::take_request`]). Splitting the input
//! at any byte boundary must never change the outcome — the proptest
//! suite in `tests/parser.rs` holds the parser to that.
//!
//! Scope (documented, not accidental):
//!
//! * Request head terminated by `\r\n\r\n`; head size capped by
//!   [`ParserLimits::max_head_bytes`] (violations are [`HttpError::HeadersTooLarge`],
//!   which the server maps to `431`).
//! * Bodies are `Content-Length` only — `Transfer-Encoding` is rejected
//!   with `400` rather than mis-framed. Body size is capped by
//!   [`ParserLimits::max_body_bytes`] (`413`).
//! * Header names are lower-cased on parse; values are trimmed of
//!   optional whitespace. Obsolete line folding is rejected.
//! * `HTTP/1.1` and `HTTP/1.0` are accepted; anything else is `400`.
//!
//! Responses are written by [`Response`], which always emits an explicit
//! `Content-Length` and a `Connection` header so keep-alive is never
//! ambiguous.

use std::collections::BTreeMap;
use std::fmt;
use std::io::{self, Write};

/// Hard caps the parser enforces while buffering a request.
#[derive(Debug, Clone, Copy)]
pub struct ParserLimits {
    /// Maximum bytes of request line + headers (through the blank line).
    pub max_head_bytes: usize,
    /// Maximum bytes of request body (`Content-Length`).
    pub max_body_bytes: usize,
}

impl Default for ParserLimits {
    fn default() -> Self {
        ParserLimits {
            max_head_bytes: 16 * 1024,
            max_body_bytes: 4 * 1024 * 1024,
        }
    }
}

/// Why a request could not be parsed. Each variant pins the status code
/// the server answers with before closing the connection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HttpError {
    /// Malformed request line, header, or framing → `400 Bad Request`.
    BadRequest(&'static str),
    /// The head exceeded [`ParserLimits::max_head_bytes`] → `431`.
    HeadersTooLarge,
    /// The declared body exceeds [`ParserLimits::max_body_bytes`] → `413`.
    BodyTooLarge,
}

impl HttpError {
    /// The HTTP status code this parse failure maps to.
    pub fn status(&self) -> u16 {
        match self {
            HttpError::BadRequest(_) => 400,
            HttpError::HeadersTooLarge => 431,
            HttpError::BodyTooLarge => 413,
        }
    }
}

impl fmt::Display for HttpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HttpError::BadRequest(why) => write!(f, "bad request: {why}"),
            HttpError::HeadersTooLarge => write!(f, "request head too large"),
            HttpError::BodyTooLarge => write!(f, "request body too large"),
        }
    }
}

impl std::error::Error for HttpError {}

/// A fully parsed request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Uppercased method token as sent (`GET`, `POST`, ...).
    pub method: String,
    /// Request target, e.g. `/t/hotels/match`.
    pub path: String,
    /// `true` for `HTTP/1.1`, `false` for `HTTP/1.0`.
    pub http11: bool,
    /// Headers with lower-cased names; later duplicates overwrite.
    pub headers: BTreeMap<String, String>,
    /// The body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
}

impl Request {
    /// Look up a header by (case-insensitive) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .get(&name.to_ascii_lowercase())
            .map(|s| s.as_str())
    }

    /// Whether the connection should stay open after this request:
    /// HTTP/1.1 defaults to keep-alive unless `Connection: close`;
    /// HTTP/1.0 defaults to close unless `Connection: keep-alive`.
    pub(crate) fn keep_alive(&self) -> bool {
        match self.header("connection").map(|v| v.to_ascii_lowercase()) {
            Some(v) if v.split(',').any(|t| t.trim() == "close") => false,
            Some(v) if v.split(',').any(|t| t.trim() == "keep-alive") => true,
            _ => self.http11,
        }
    }
}

enum ParseState {
    /// Buffering until the `\r\n\r\n` that ends the head.
    Head,
    /// Head parsed; waiting for `remaining` more body bytes.
    Body { request: Request, remaining: usize },
    /// A request is ready for [`RequestParser::take_request`].
    Ready(Request),
    /// A parse error was hit; the connection must be torn down.
    Failed(HttpError),
}

/// Incremental HTTP/1.1 request parser. One parser instance per
/// connection; it carries leftover bytes across requests so pipelined
/// requests are handled correctly.
///
/// A body's bytes are copied once, from the fed slice straight into
/// [`Request::body`]; the parser's own buffer holds only head bytes and
/// whatever arrived behind a finished request.
pub struct RequestParser {
    limits: ParserLimits,
    buf: Vec<u8>,
    state: ParseState,
}

impl RequestParser {
    /// A fresh parser with the given limits.
    pub fn new(limits: ParserLimits) -> Self {
        RequestParser {
            limits,
            buf: Vec::new(),
            state: ParseState::Head,
        }
    }

    /// Feed bytes read from the socket. Errors are sticky: once a feed
    /// fails, the parser stays failed and the connection should close
    /// (after answering with [`HttpError::status`]).
    pub fn feed(&mut self, bytes: &[u8]) -> Result<(), HttpError> {
        if let ParseState::Failed(e) = &self.state {
            return Err(e.clone());
        }
        self.consume(bytes).inspect_err(|e| {
            self.state = ParseState::Failed(e.clone());
        })
    }

    /// Take a completed request, if one has fully arrived. Leftover
    /// bytes (a pipelined next request) stay buffered.
    pub fn take_request(&mut self) -> Option<Request> {
        if matches!(self.state, ParseState::Ready(_)) {
            let state = std::mem::replace(&mut self.state, ParseState::Head);
            let ParseState::Ready(req) = state else {
                unreachable!()
            };
            // Leftover bytes may already contain the next request.
            if !self.buf.is_empty() {
                let leftover = std::mem::take(&mut self.buf);
                if let Err(e) = self.consume(&leftover) {
                    self.state = ParseState::Failed(e);
                }
            }
            Some(req)
        } else {
            None
        }
    }

    /// Whether any bytes are buffered (a partially received request).
    /// Used by the server to distinguish "idle keep-alive close" from
    /// "peer vanished mid-request".
    pub(crate) fn mid_request(&self) -> bool {
        !self.buf.is_empty() || matches!(self.state, ParseState::Body { .. })
    }

    /// Take `bytes` in: a head's into the buffer until it ends, a body's
    /// straight into its request, and everything behind a finished
    /// request into the buffer until that request is taken.
    fn consume(&mut self, mut bytes: &[u8]) -> Result<(), HttpError> {
        while !bytes.is_empty() {
            match &mut self.state {
                ParseState::Head => {
                    let Some(end) = head_end(&self.buf, bytes) else {
                        self.buf.extend_from_slice(bytes);
                        if self.buf.len() > self.limits.max_head_bytes {
                            return Err(HttpError::HeadersTooLarge);
                        }
                        return Ok(());
                    };
                    if self.buf.len() + end > self.limits.max_head_bytes {
                        return Err(HttpError::HeadersTooLarge);
                    }
                    self.buf.extend_from_slice(&bytes[..end]);
                    bytes = &bytes[end..];
                    let request = parse_head(&self.buf)?;
                    self.buf.clear();
                    let remaining = match request.header("transfer-encoding") {
                        Some(_) => {
                            return Err(HttpError::BadRequest("transfer-encoding unsupported"))
                        }
                        None => match request.header("content-length") {
                            Some(v) => v
                                .trim()
                                .parse::<usize>()
                                .map_err(|_| HttpError::BadRequest("invalid content-length"))?,
                            None => 0,
                        },
                    };
                    if remaining > self.limits.max_body_bytes {
                        return Err(HttpError::BodyTooLarge);
                    }
                    self.state = match remaining {
                        0 => ParseState::Ready(request),
                        _ => ParseState::Body { request, remaining },
                    };
                }
                ParseState::Body { request, remaining } => {
                    // The body grows with the bytes that arrive, never
                    // by the declared length: a client may declare
                    // `max_body_bytes` and send nothing.
                    let take = (*remaining).min(bytes.len());
                    request.body.extend_from_slice(&bytes[..take]);
                    bytes = &bytes[take..];
                    *remaining -= take;
                    if *remaining == 0 {
                        let state = std::mem::replace(&mut self.state, ParseState::Head);
                        let ParseState::Body { request, .. } = state else {
                            unreachable!()
                        };
                        self.state = ParseState::Ready(request);
                    }
                }
                // A ready request must be taken before more parsing; the
                // bytes behind it wait in the buffer.
                ParseState::Ready(_) => {
                    self.buf.extend_from_slice(bytes);
                    return Ok(());
                }
                ParseState::Failed(e) => return Err(e.clone()),
            }
        }
        Ok(())
    }
}

/// One past the `\r\n\r\n` that ends a head whose first bytes are
/// `buffered` and whose rest begins with `bytes`, as an index into
/// `bytes`. `buffered` holds no terminator of its own.
fn head_end(buffered: &[u8], bytes: &[u8]) -> Option<usize> {
    const END: &[u8] = b"\r\n\r\n";
    // One that starts in `buffered`, earliest first, else one in `bytes`.
    (1..END.len())
        .rev()
        .find(|&k| buffered.ends_with(&END[..k]) && bytes.starts_with(&END[k..]))
        .map(|k| END.len() - k)
        .or_else(|| {
            let at = bytes.windows(END.len()).position(|w| w == END);
            at.map(|i| i + END.len())
        })
}

fn parse_head(head: &[u8]) -> Result<Request, HttpError> {
    let head = std::str::from_utf8(head).map_err(|_| HttpError::BadRequest("head not utf-8"))?;
    // `head` ends with "\r\n\r\n"; split into lines on CRLF strictly.
    let mut lines = head.split("\r\n");
    let request_line = lines.next().ok_or(HttpError::BadRequest("empty head"))?;
    let mut parts = request_line.split(' ');
    let method = parts.next().unwrap_or_default();
    let path = parts
        .next()
        .ok_or(HttpError::BadRequest("missing target"))?;
    let version = parts
        .next()
        .ok_or(HttpError::BadRequest("missing version"))?;
    if parts.next().is_some() {
        return Err(HttpError::BadRequest("malformed request line"));
    }
    if method.is_empty() || !method.bytes().all(|b| b.is_ascii_uppercase()) {
        return Err(HttpError::BadRequest("malformed method"));
    }
    if path.is_empty() || !path.starts_with('/') {
        return Err(HttpError::BadRequest("malformed target"));
    }
    let http11 = match version {
        "HTTP/1.1" => true,
        "HTTP/1.0" => false,
        _ => return Err(HttpError::BadRequest("unsupported version")),
    };
    let mut headers = BTreeMap::new();
    for line in lines {
        if line.is_empty() {
            continue; // the trailing blank line(s) from "\r\n\r\n"
        }
        if line.starts_with(' ') || line.starts_with('\t') {
            return Err(HttpError::BadRequest("obsolete line folding"));
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(HttpError::BadRequest("malformed header"));
        };
        if name.is_empty()
            || !name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b == b'-' || b == b'_')
        {
            return Err(HttpError::BadRequest("malformed header name"));
        }
        headers.insert(name.to_ascii_lowercase(), value.trim().to_string());
    }
    Ok(Request {
        method: method.to_string(),
        path: path.to_string(),
        http11,
        headers,
        body: Vec::new(),
    })
}

/// Reason phrase for the status codes the server emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    }
}

/// An outgoing response, rendered with explicit framing.
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code (see [`reason`] for the phrases we know).
    pub status: u16,
    /// Extra headers beyond the framing set; names used as given.
    pub headers: Vec<(String, String)>,
    /// Response body.
    pub body: Vec<u8>,
}

impl Response {
    /// A response with a JSON body.
    pub fn json(status: u16, body: String) -> Self {
        Response {
            status,
            headers: vec![("Content-Type".to_string(), "application/json".to_string())],
            body: body.into_bytes(),
        }
    }

    /// A plain-text response (errors, healthz).
    pub fn text(status: u16, body: &str) -> Self {
        Response {
            status,
            headers: vec![("Content-Type".to_string(), "text/plain".to_string())],
            body: body.as_bytes().to_vec(),
        }
    }

    /// Add a header.
    pub(crate) fn with_header(mut self, name: &str, value: String) -> Self {
        self.headers.push((name.to_string(), value));
        self
    }

    /// Serialize head + body into one buffer, stamping
    /// `Content-Length` and `Connection: keep-alive`/`close` from
    /// `keep_alive`.
    pub fn write_to(&self, keep_alive: bool) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEAD_CAPACITY + self.body.len());
        self.write_head(&mut out, keep_alive);
        out.extend_from_slice(&self.body);
        out
    }

    /// Write the response to `out` as two writes, its head and then its
    /// body as it is, never copied behind the head (the server sets
    /// `TCP_NODELAY`, so the second write does not wait for the first's
    /// acknowledgement).
    pub(crate) fn send(&self, out: &mut impl Write, keep_alive: bool) -> io::Result<()> {
        let mut head = Vec::with_capacity(HEAD_CAPACITY);
        self.write_head(&mut head, keep_alive);
        out.write_all(&head)?;
        out.write_all(&self.body)
    }

    /// Append the head: status line, extra headers, the framing pair and
    /// the blank line.
    fn write_head(&self, out: &mut Vec<u8>, keep_alive: bool) {
        let status = self.status;
        // Writes into a `Vec` cannot fail.
        let _ = write!(out, "HTTP/1.1 {status} {}\r\n", reason(status));
        for (name, value) in &self.headers {
            let _ = write!(out, "{name}: {value}\r\n");
        }
        let _ = write!(out, "Content-Length: {}\r\n", self.body.len());
        out.extend_from_slice(if keep_alive {
            b"Connection: keep-alive\r\n\r\n".as_slice()
        } else {
            b"Connection: close\r\n\r\n".as_slice()
        });
    }
}

/// Room for a head: the status line, `Content-Type`, the framing pair
/// and one more short header.
const HEAD_CAPACITY: usize = 128;

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_all(bytes: &[u8]) -> Result<Option<Request>, HttpError> {
        let mut p = RequestParser::new(ParserLimits::default());
        p.feed(bytes)?;
        Ok(p.take_request())
    }

    #[test]
    fn parses_a_get_in_one_feed() {
        let req = parse_all(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap()
            .unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/healthz");
        assert!(req.http11);
        assert_eq!(req.header("host"), Some("x"));
        assert!(req.body.is_empty());
        assert!(req.keep_alive());
    }

    #[test]
    fn parses_a_post_with_body_split_anywhere() {
        let raw = b"POST /match HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello";
        for cut in 0..=raw.len() {
            let mut p = RequestParser::new(ParserLimits::default());
            p.feed(&raw[..cut]).unwrap();
            p.feed(&raw[cut..]).unwrap();
            let req = p.take_request().expect("request completes");
            assert_eq!(req.body, b"hello");
            assert_eq!(req.path, "/match");
        }
    }

    #[test]
    fn pipelined_requests_come_out_in_order() {
        let mut p = RequestParser::new(ParserLimits::default());
        p.feed(b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n")
            .unwrap();
        assert_eq!(p.take_request().unwrap().path, "/a");
        assert_eq!(p.take_request().unwrap().path, "/b");
        assert!(p.take_request().is_none());
    }

    #[test]
    fn rejects_malformed_request_lines() {
        for raw in [
            b"GET\r\n\r\n".as_slice(),
            b"GET /\r\n\r\n",
            b"get / HTTP/1.1\r\n\r\n",
            b"GET / HTTP/2.0\r\n\r\n",
            b"GET / HTTP/1.1 extra\r\n\r\n",
            b"GET noslash HTTP/1.1\r\n\r\n",
            b"\r\n\r\n",
        ] {
            assert!(
                matches!(parse_all(raw), Err(HttpError::BadRequest(_))),
                "should reject {:?}",
                String::from_utf8_lossy(raw)
            );
        }
    }

    #[test]
    fn rejects_bad_headers_and_framing() {
        assert!(matches!(
            parse_all(b"GET / HTTP/1.1\r\nno-colon-here\r\n\r\n"),
            Err(HttpError::BadRequest(_))
        ));
        assert!(matches!(
            parse_all(b"GET / HTTP/1.1\r\nA: 1\r\n folded\r\n\r\n"),
            Err(HttpError::BadRequest(_))
        ));
        assert!(matches!(
            parse_all(b"POST / HTTP/1.1\r\nContent-Length: nan\r\n\r\n"),
            Err(HttpError::BadRequest(_))
        ));
        assert!(matches!(
            parse_all(b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"),
            Err(HttpError::BadRequest(_))
        ));
    }

    #[test]
    fn oversized_head_is_431_even_without_terminator() {
        let limits = ParserLimits {
            max_head_bytes: 64,
            max_body_bytes: 1024,
        };
        let mut p = RequestParser::new(limits);
        let mut err = None;
        for _ in 0..16 {
            if let Err(e) = p.feed(b"GET / HTTP/1.1\r\nX: yyyyyyyy\r\n") {
                err = Some(e);
                break;
            }
        }
        assert_eq!(err, Some(HttpError::HeadersTooLarge));
        // Sticky: further feeds keep failing.
        assert_eq!(p.feed(b"x"), Err(HttpError::HeadersTooLarge));
    }

    #[test]
    fn oversized_body_is_413_at_the_header() {
        let limits = ParserLimits {
            max_head_bytes: 1024,
            max_body_bytes: 8,
        };
        let mut p = RequestParser::new(limits);
        let res = p.feed(b"POST / HTTP/1.1\r\nContent-Length: 9\r\n\r\n");
        assert_eq!(res, Err(HttpError::BodyTooLarge));
    }

    #[test]
    fn connection_close_and_http10_defaults() {
        let req = parse_all(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n")
            .unwrap()
            .unwrap();
        assert!(!req.keep_alive());
        let req = parse_all(b"GET / HTTP/1.0\r\n\r\n").unwrap().unwrap();
        assert!(!req.keep_alive());
        let req = parse_all(b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n")
            .unwrap()
            .unwrap();
        assert!(req.keep_alive());
    }

    #[test]
    fn response_framing_is_explicit() {
        let bytes = Response::json(200, "{}".to_string()).write_to(true);
        let text = String::from_utf8(bytes).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 2\r\n"));
        assert!(text.contains("Connection: keep-alive\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));
        let bytes = Response::text(429, "slow down")
            .with_header("Retry-After", "2".to_string())
            .write_to(false);
        let text = String::from_utf8(bytes).unwrap();
        assert!(text.contains("Retry-After: 2\r\n"));
        assert!(text.contains("Connection: close\r\n"));
    }
}

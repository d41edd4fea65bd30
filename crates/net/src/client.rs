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
    /// The server's resolved address — kept for
    /// [`HttpClient::reconnect`].
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
    /// timeout survives a reconnect.
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

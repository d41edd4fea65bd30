//! The blocking HTTP server: one accept loop, one thread per
//! connection, no async runtime.
//!
//! The threading model follows the rest of the workspace (the build
//! container has no tokio, and the service layer is already a
//! thread-pool): the listener runs nonblocking and is polled by the
//! accept thread, each accepted connection gets a thread that owns its
//! [`RequestParser`], and the connection
//! thread parks **on the ticket**, not the queue — so a slow evaluation
//! never blocks parsing on other connections.
//!
//! ## Routes
//!
//! | method & path            | behaviour                                     |
//! |--------------------------|-----------------------------------------------|
//! | `GET /healthz`           | `200` with per-tenant health states as JSON   |
//! | `GET /metrics`           | all tenants' [`ServiceMetrics`] as JSON       |
//! | `GET /t/NAME/metrics`    | one tenant's metrics                          |
//! | `POST /t/NAME/match`     | evaluate a [`WireRequest`] on tenant `NAME`   |
//! | `POST /t/NAME/mutate`    | apply a `WireMutation` to tenant `NAME`       |
//!
//! A tenant is reached by its path alone: any other `GET` or `POST`
//! path, `POST /match` among them, is `404 no such route`, and an
//! unknown `NAME` is `404 no such tenant`.
//!
//! ## Status mapping
//!
//! * queue full ([`MpqError::Overloaded`]) → `429` with a `Retry-After`
//!   estimated from the tenant's queue depth and p50 latency,
//! * queue deadline lapsed ([`MpqError::DeadlineExceeded`]) → `504`,
//! * service stopped → `503`, worker panic / I/O error → `500`,
//! * a mutation hitting degraded storage ([`MpqError::StorageDegraded`]
//!   or an I/O error) → `503` with a `Retry-After` of the engine's
//!   [`retry_after`](mpq_core::Engine::retry_after) (the wait until its
//!   next repair is due), at least 1 s and at most 30 s — reads are
//!   unaffected and keep serving from the engine's snapshot,
//! * a request head or body that trickles in slower than
//!   [`ServerConfig::request_read_timeout`] → `408` and close (so a
//!   slow-loris peer cannot pin a connection slot),
//! * every validation error → `400` with the reason in the body.
//!
//! ## Client disconnects cancel work
//!
//! While a connection thread waits on its ticket it polls the socket;
//! a peer that hung up ([`TcpStream::peek`] returning `Ok(0)`) gets its
//! queued request [`cancel`](mpq_core::Ticket::cancel)led so an
//! abandoned submission stops occupying a queue slot.
//!
//! [`ServiceMetrics`]: mpq_core::ServiceMetrics
//! [`WireRequest`]: crate::codec::WireRequest

use std::collections::BTreeMap;
use std::io::{self, Read};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use mpq_core::json::Json;
use mpq_core::{MpqError, Ticket};

use crate::codec::{decode_match_request, decode_mutation, encode_matching, encode_mutation_ack};
use crate::http::{ParserLimits, Request, RequestParser, Response};
use crate::tenant::{Tenant, TenantRegistry};

/// Server tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Concurrent connections; excess connections get `503` and close.
    pub max_connections: usize,
    /// Parser caps (head → `431`, body → `413`).
    pub limits: ParserLimits,
    /// Idle keep-alive connections are closed after this long.
    pub keep_alive_timeout: Duration,
    /// A started request (some bytes received, framing incomplete) must
    /// finish arriving within this long, or the connection is answered
    /// `408` and closed. This is the slow-loris bound: without it a
    /// peer drip-feeding one byte per keep-alive period holds a
    /// connection slot forever.
    pub request_read_timeout: Duration,
    /// Granularity of socket polling — bounds shutdown latency,
    /// disconnect-detection latency and accept latency.
    pub poll_interval: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_connections: 256,
            limits: ParserLimits::default(),
            keep_alive_timeout: Duration::from_secs(30),
            request_read_timeout: Duration::from_secs(10),
            poll_interval: Duration::from_millis(25),
        }
    }
}

struct Shared {
    registry: TenantRegistry,
    config: ServerConfig,
    stop: AtomicBool,
    active: AtomicUsize,
}

/// A running server. Dropping it (or calling [`Server::shutdown`])
/// stops the accept loop, joins every connection thread, and — via the
/// registry drop — shuts down the tenant services.
pub struct Server {
    shared: Arc<Shared>,
    local_addr: std::net::SocketAddr,
    accept_handle: Option<thread::JoinHandle<()>>,
}

impl Server {
    /// Bind `addr` (e.g. `"127.0.0.1:0"`) and start serving `registry`.
    pub fn bind<A: ToSocketAddrs>(
        addr: A,
        registry: TenantRegistry,
        config: ServerConfig,
    ) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            registry,
            config,
            stop: AtomicBool::new(false),
            active: AtomicUsize::new(0),
        });
        let accept_shared = Arc::clone(&shared);
        let accept_handle = thread::Builder::new()
            .name("mpq-net-accept".to_string())
            .spawn(move || accept_loop(listener, accept_shared))
            .expect("spawn accept thread");
        Ok(Server {
            shared,
            local_addr,
            accept_handle: Some(accept_handle),
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.local_addr
    }

    /// The hosted tenants (read access, e.g. for tests comparing wire
    /// results against direct evaluation).
    pub fn registry(&self) -> &TenantRegistry {
        &self.shared.registry
    }

    /// Stop accepting, drain connection threads, and return. Equivalent
    /// to dropping the server, but explicit at call sites that care.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        if let Some(handle) = self.accept_handle.take() {
            let _ = handle.join();
        }
        // Connection threads observe the stop flag within one poll
        // interval; wait for the count to drain rather than collecting
        // their JoinHandles (threads remove themselves on exit).
        while self.shared.active.load(Ordering::SeqCst) > 0 {
            thread::sleep(Duration::from_millis(1));
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("local_addr", &self.local_addr)
            .field("tenants", &self.shared.registry.len())
            .field(
                "active_connections",
                &self.shared.active.load(Ordering::SeqCst),
            )
            .finish()
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    let poll = shared.config.poll_interval;
    while !shared.stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                if shared.active.load(Ordering::SeqCst) >= shared.config.max_connections {
                    // Shed before spawning: answer 503 inline and close.
                    let _ = stream.set_nonblocking(false);
                    let resp = Response::text(503, "connection limit reached\n");
                    let _ = resp.send(&mut &stream, false);
                    continue;
                }
                shared.active.fetch_add(1, Ordering::SeqCst);
                let conn_shared = Arc::clone(&shared);
                let spawned = thread::Builder::new()
                    .name("mpq-net-conn".to_string())
                    .spawn(move || {
                        let _ = serve_connection(stream, &conn_shared);
                        conn_shared.active.fetch_sub(1, Ordering::SeqCst);
                    });
                if spawned.is_err() {
                    shared.active.fetch_sub(1, Ordering::SeqCst);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => thread::sleep(poll),
            Err(_) => thread::sleep(poll),
        }
    }
}

fn serve_connection(mut stream: TcpStream, shared: &Shared) -> io::Result<()> {
    stream.set_nodelay(true).ok();
    stream.set_read_timeout(Some(shared.config.poll_interval))?;
    let mut parser = RequestParser::new(shared.config.limits);
    let mut buf = [0u8; 16 * 1024];
    let mut idle_since = Instant::now();
    // When the current request's first byte arrived — the slow-loris
    // clock. `None` between requests.
    let mut request_started: Option<Instant> = None;
    loop {
        // Drain every request the parser already holds (pipelining).
        while let Some(request) = parser.take_request() {
            idle_since = Instant::now();
            let keep_alive = request.keep_alive();
            match handle_request(&request, &stream, shared) {
                Outcome::Respond(resp) => {
                    resp.send(&mut stream, keep_alive)?;
                    if !keep_alive {
                        return Ok(());
                    }
                }
                Outcome::PeerGone => return Ok(()),
            }
        }
        // The drain consumed complete requests; whatever is buffered
        // now is the (possibly empty) start of the next one.
        if !parser.mid_request() {
            request_started = None;
        }
        if shared.stop.load(Ordering::SeqCst) {
            return Ok(());
        }
        match stream.read(&mut buf) {
            Ok(0) => return Ok(()), // peer closed
            Ok(n) => {
                idle_since = Instant::now();
                if let Err(e) = parser.feed(&buf[..n]) {
                    // Answer with the parse error's status and close —
                    // framing is unknown from here on.
                    let resp = Response::text(e.status(), &format!("{e}\n"));
                    let _ = resp.send(&mut stream, false);
                    return Ok(());
                }
                request_started = if parser.mid_request() {
                    request_started.or(Some(idle_since))
                } else {
                    None
                };
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                if !parser.mid_request() && idle_since.elapsed() >= shared.config.keep_alive_timeout
                {
                    return Ok(()); // idle keep-alive expiry
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return Ok(()), // reset/broken pipe: nothing to salvage
        }
        // Slow-loris bound: a request that started but has not finished
        // arriving within the budget gets `408` and the slot back. The
        // check runs every loop turn, so trickled bytes (which reset
        // `idle_since` but not `request_started`) do not extend it.
        if let Some(started) = request_started {
            if started.elapsed() >= shared.config.request_read_timeout {
                let resp = Response::text(408, "request read timeout\n");
                let _ = resp.send(&mut stream, false);
                return Ok(());
            }
        }
    }
}

enum Outcome {
    Respond(Response),
    /// The peer hung up while we were evaluating; nothing to write.
    PeerGone,
}

fn handle_request(request: &Request, stream: &TcpStream, shared: &Shared) -> Outcome {
    let path = request.path.as_str();
    let segments: Vec<&str> = path.split('/').filter(|s| !s.is_empty()).collect();
    match (request.method.as_str(), segments.as_slice()) {
        ("GET", ["healthz"]) => Outcome::Respond(healthz(shared)),
        ("GET", ["metrics"]) => Outcome::Respond(all_metrics(shared)),
        ("GET", ["t", name, "metrics"]) => match shared.registry.get(name) {
            Some(tenant) => {
                Outcome::Respond(Response::json(200, tenant.metrics().to_json().render()))
            }
            None => Outcome::Respond(Response::text(404, "no such tenant\n")),
        },
        ("POST", ["t", name, "match"]) => match shared.registry.get(name) {
            Some(tenant) => handle_match(request, stream, shared, tenant),
            None => Outcome::Respond(Response::text(404, "no such tenant\n")),
        },
        ("POST", ["t", name, "mutate"]) => match shared.registry.get(name) {
            Some(tenant) => Outcome::Respond(handle_mutate(request, tenant)),
            None => Outcome::Respond(Response::text(404, "no such tenant\n")),
        },
        ("GET" | "POST", _) => Outcome::Respond(Response::text(404, "no such route\n")),
        _ => Outcome::Respond(Response::text(405, "method not allowed\n")),
    }
}

/// `/healthz`: always `200` while the listener is up (the process is
/// alive and routing), with each tenant's storage-health state in the
/// body so operators and load-balancers can see degradation without
/// taking reads out of rotation — a degraded tenant still serves them.
fn healthz(shared: &Shared) -> Response {
    let tenants: BTreeMap<String, Json> = shared
        .registry
        .iter()
        .map(|t| {
            (
                t.name().to_string(),
                Json::Str(t.engine().health().as_str().to_string()),
            )
        })
        .collect();
    let all_healthy = shared
        .registry
        .iter()
        .all(|t| t.engine().health().is_healthy());
    let doc = Json::obj([
        (
            "status",
            Json::Str(if all_healthy { "ok" } else { "degraded" }.to_string()),
        ),
        ("tenants", Json::Obj(tenants)),
    ]);
    Response::json(200, doc.render())
}

fn all_metrics(shared: &Shared) -> Response {
    let tenants: BTreeMap<String, Json> = shared
        .registry
        .iter()
        .map(|t| (t.name().to_string(), t.metrics().to_json()))
        .collect();
    let doc = Json::obj([
        ("schema", Json::Str("mpq.metrics/1".to_string())),
        ("tenants", Json::Obj(tenants)),
    ]);
    Response::json(200, doc.render())
}

fn handle_match(
    request: &Request,
    stream: &TcpStream,
    shared: &Shared,
    tenant: &Arc<Tenant>,
) -> Outcome {
    let wire = match decode_match_request(&request.body) {
        Ok(wire) => wire,
        Err(why) => return Outcome::Respond(error_response(400, &why)),
    };
    let deadline = wire
        .deadline_ms
        .map_or(Duration::MAX, Duration::from_millis);
    let submitted = tenant.submit_match(
        &wire.functions,
        &wire.exclude,
        wire.capacities.as_deref(),
        deadline,
    );
    let ticket = match submitted {
        Ok(ticket) => ticket,
        Err(e) => return Outcome::Respond(mpq_error_response(&e, tenant)),
    };
    match await_ticket(ticket, stream, shared) {
        TicketOutcome::Done(result) => match *result {
            Ok(matching) => {
                Outcome::Respond(Response::json(200, encode_matching(&matching).render()))
            }
            Err(e) => Outcome::Respond(mpq_error_response(&e, tenant)),
        },
        TicketOutcome::PeerGone => Outcome::PeerGone,
    }
}

/// Apply a `POST .../mutate` body to the tenant's engine. Mutations
/// run inline on the connection thread — they are index maintenance,
/// not evaluations, and never park on a ticket.
fn handle_mutate(request: &Request, tenant: &Arc<Tenant>) -> Response {
    let mutation = match decode_mutation(&request.body) {
        Ok(m) => m,
        Err(why) => return error_response(400, &why),
    };
    match tenant.mutate(&mutation) {
        Ok((oid, version)) => Response::json(200, encode_mutation_ack(oid, version)),
        Err(e @ (MpqError::Io(_) | MpqError::StorageDegraded)) => {
            // Storage failure. Tell the client when the engine's next
            // repair is due (at least a second), so retries line up with
            // repair instead of hammering a broken device.
            let secs = tenant.engine().retry_after().as_secs().clamp(1, 30);
            error_response(503, &e.to_string()).with_header("Retry-After", secs.to_string())
        }
        Err(e) => error_response(400, &e.to_string()),
    }
}

enum TicketOutcome {
    Done(Box<Result<mpq_core::Matching, MpqError>>),
    PeerGone,
}

/// Park on the ticket in poll-interval slices, watching the socket for
/// a client disconnect between slices. A gone peer cancels the ticket.
fn await_ticket(mut ticket: Ticket, stream: &TcpStream, shared: &Shared) -> TicketOutcome {
    let poll = shared.config.poll_interval;
    loop {
        match ticket.wait_timeout(poll) {
            Ok(result) => return TicketOutcome::Done(Box::new(result)),
            Err(pending) => ticket = pending,
        }
        if shared.stop.load(Ordering::SeqCst) {
            // Server shutdown: let the service resolve or reject it;
            // one more bounded wait keeps the answer deterministic.
            return TicketOutcome::Done(Box::new(
                ticket
                    .wait_timeout(poll)
                    .unwrap_or(Err(MpqError::ServiceStopped)),
            ));
        }
        if peer_disconnected(stream) {
            ticket.cancel();
            return TicketOutcome::PeerGone;
        }
    }
}

/// `true` iff the peer has closed its end: a nonblocking `peek` that
/// returns `Ok(0)` or a hard error. Pending pipelined bytes (`Ok(n)`)
/// and `WouldBlock` both mean the peer is still there.
fn peer_disconnected(stream: &TcpStream) -> bool {
    if stream.set_nonblocking(true).is_err() {
        return true;
    }
    let mut probe = [0u8; 1];
    let gone = match stream.peek(&mut probe) {
        Ok(0) => true,
        Ok(_) => false,
        Err(e) if e.kind() == io::ErrorKind::WouldBlock => false,
        Err(e) if e.kind() == io::ErrorKind::Interrupted => false,
        Err(_) => true,
    };
    // Restore blocking-with-timeout mode for the main read loop.
    if stream.set_nonblocking(false).is_err() {
        return true;
    }
    gone
}

fn error_response(status: u16, message: &str) -> Response {
    let body = Json::obj([("error", Json::Str(message.to_string()))]).render();
    Response::json(status, body)
}

/// Map an [`MpqError`] onto the wire, attaching `Retry-After` to `429`.
fn mpq_error_response(e: &MpqError, tenant: &Tenant) -> Response {
    let status = match e {
        MpqError::Overloaded => 429,
        MpqError::DeadlineExceeded => 504,
        MpqError::ServiceStopped | MpqError::Cancelled | MpqError::StorageDegraded => 503,
        MpqError::WorkerPanicked | MpqError::Io(_) => 500,
        _ => 400,
    };
    let resp = error_response(status, &e.to_string());
    if status == 429 {
        resp.with_header("Retry-After", retry_after_secs(tenant).to_string())
    } else {
        resp
    }
}

/// Estimate how long until a queue slot frees: outstanding work
/// (queued + running) divided across the workers, times the p50
/// latency, clamped to `[1, 30]` seconds. Coarse on purpose — it is a
/// hint for backoff, not a promise.
fn retry_after_secs(tenant: &Tenant) -> u64 {
    let metrics = tenant.metrics();
    let outstanding = (metrics.queue_depth + metrics.in_flight) as f64;
    let workers = tenant.workers().max(1) as f64;
    let p50 = metrics.p50_latency.as_secs_f64().max(0.001);
    ((outstanding / workers) * p50).ceil().clamp(1.0, 30.0) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_sane() {
        let c = ServerConfig::default();
        assert!(c.max_connections >= 64);
        assert!(c.poll_interval < c.keep_alive_timeout);
    }
}

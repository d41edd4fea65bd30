//! # mpq-net — the network front-end
//!
//! Puts the [`mpq_core`] service layer on the wire: a std-only
//! HTTP/1.1 server (no async runtime — the build container vendors no
//! tokio, and the service layer is already thread-based) hosting one or
//! more named engines ("tenants") behind a single listener.
//!
//! * [`http`] — incremental request parser with hard limits, and an
//!   explicit-framing response writer.
//! * [`codec`] — the JSON wire format for match requests and matchings
//!   (bit-exact score round-trips via [`mpq_core::json`]).
//! * [`tenant`] — [`TenantRegistry`]: per-tenant engine + service +
//!   cache, which is the isolation boundary.
//! * [`server`] — the accept loop, routing, backpressure mapping
//!   (`429` + `Retry-After`), deadline mapping (`504`), and
//!   disconnect-cancellation.
//! * [`client`] — the minimal blocking client used by tests, the CLI
//!   tests, the `netload` harness and the examples.
//!
//! ```no_run
//! use std::sync::Arc;
//! use mpq_net::{Server, ServerConfig, TenantConfig, TenantRegistry};
//! # fn objects() -> mpq_rtree::PointSet { unimplemented!() }
//!
//! let mut registry = TenantRegistry::new();
//! registry.add_objects("hotels", &objects(), TenantConfig::default()).unwrap();
//! let server = Server::bind("127.0.0.1:8080", registry, ServerConfig::default()).unwrap();
//! println!("listening on {}", server.local_addr());
//! // ... server serves until dropped ...
//! ```

#![warn(missing_docs)]

pub mod client;
pub mod codec;
pub mod http;
pub mod server;
pub mod tenant;

pub use client::{HttpClient, HttpResponse};
pub use codec::{decode_match_request, decode_pairs, encode_matching, MatchingBody, WireRequest};
pub use http::{HttpError, ParserLimits, Request, RequestParser, Response};
pub use server::{Server, ServerConfig};
pub use tenant::{Tenant, TenantConfig, TenantRegistry};

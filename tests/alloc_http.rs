//! Allocation behaviour of a cache hit served over HTTP: one `POST
//! /t/NAME/match` whose result the tenant's cache already holds, sent
//! over a loopback keep-alive connection and read to its last byte.
//!
//! The counter is process-wide, and the client side of the round trip
//! allocates nothing: the request is rendered and the response buffer
//! sized before the count starts. What is counted is the server's
//! connection thread from the read to the write — the parser, the
//! codec's decode, the service's hit, the encode and the response —
//! since a hit wakes no worker and the acceptor allocates nothing while
//! it polls. A request that fits one read is parsed from one buffer, so
//! the count is exact:
//!
//! | a hit of a 40-function, 3-d request                     | allocations |
//! |---------------------------------------------------------|------------:|
//! | the key's material shrunk to its length after it is built |        41 |
//! | the key's material sized exactly                        |          40 |
//! | the head parsed where it was buffered, the response's head written in place (no `format!` strings) and sent apart from its body | 34 |
//!
//! Of those, the service's hit is 3 (the key, the ticket and the
//! matching rebuilt from the entry's columns; `alloc_round` pins them
//! alone) and the codec's decode 12 (`alloc_codec`); the rest are the
//! request's body and headers, the route, the response's text and its
//! head. A 1 000-function, 4-d request arrives in several reads, so
//! its buffers grow by how the bytes arrive: 46 allocations here (52
//! before the change in the last row, 53 with the shrunk key), held
//! under the 40-function count plus five more doublings of each buffer
//! that grows with the request. The parser's own buffer is not one of
//! them: it holds the head alone, and the body's bytes go straight from
//! each read into the request.

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};

use mpq::datagen::WorkloadBuilder;
use mpq::net::{Server, ServerConfig, TenantConfig, TenantRegistry};
use mpq::ta::FunctionSet;

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// A hit of the 40-function request, recorded.
const SMALL_HIT_ALLOCATIONS: u64 = 34;
/// How many more times a buffer doubles holding a 1 000-function body
/// than a 40-function one: ⌈log₂(1 000 / 40)⌉, for each of the request
/// body, the function set's two columns and the response text.
const MORE_DOUBLINGS: u64 = 5;
const GROWING_BUFFERS: u64 = 4;

/// The wire request of `functions`, rendered whole.
fn match_request(functions: &FunctionSet) -> Vec<u8> {
    let rows: Vec<String> = (0..functions.len() as u32)
        .map(|fid| {
            let weights: Vec<String> = (functions.weights(fid).iter())
                .map(|w| format!("{w:?}"))
                .collect();
            format!("[{}]", weights.join(","))
        })
        .collect();
    let body = format!(r#"{{"functions":[{}]}}"#, rows.join(","));
    let head = format!(
        "POST /t/t/match HTTP/1.1\r\nHost: localhost\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    [head.into_bytes(), body.into_bytes()].concat()
}

/// Send `request` and read its whole response into `buf`, allocating
/// nothing; the response's length.
fn round_trip(stream: &mut TcpStream, request: &[u8], buf: &mut [u8]) -> usize {
    stream.write_all(request).unwrap();
    let mut filled = 0;
    loop {
        let n = stream.read(&mut buf[filled..]).unwrap();
        assert!(n > 0, "the server closed the connection");
        filled += n;
        let Some(head_end) = buf[..filled].windows(4).position(|w| w == b"\r\n\r\n") else {
            continue;
        };
        assert!(buf.starts_with(b"HTTP/1.1 200"), "a hit answers 200");
        let length = content_length(&buf[..head_end]);
        if filled >= head_end + 4 + length {
            assert_eq!(filled, head_end + 4 + length, "one response");
            return filled;
        }
    }
}

/// The `Content-Length` of a response head, read without allocating.
fn content_length(head: &[u8]) -> usize {
    const NAME: &[u8] = b"content-length:";
    let at = (head.windows(NAME.len()))
        .position(|w| w.eq_ignore_ascii_case(NAME))
        .expect("a sized response");
    head[at + NAME.len()..]
        .iter()
        .skip_while(|b| **b == b' ')
        .take_while(|b| b.is_ascii_digit())
        .fold(0, |n, b| n * 10 + usize::from(b - b'0'))
}

/// The allocations of a hit of an `n`-function, `dim`-d request against
/// a fresh one-tenant server.
fn hit_allocations(n: usize, dim: usize) -> u64 {
    let objects = WorkloadBuilder::new()
        .objects(2_000)
        .functions(1)
        .dim(dim)
        .seed(2009)
        .build()
        .objects;
    let functions = WorkloadBuilder::new()
        .objects(1)
        .functions(n)
        .dim(dim)
        .seed(7)
        .build()
        .functions;
    let mut registry = TenantRegistry::new();
    registry
        .add_objects("t", &objects, TenantConfig::default())
        .unwrap();
    let server = Server::bind("127.0.0.1:0", registry, ServerConfig::default()).unwrap();
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream.set_nodelay(true).unwrap();
    let request = match_request(&functions);
    let mut buf = vec![0u8; 1 << 20];

    // The miss evaluates and publishes before it answers; a first hit
    // warms the connection's parser and the service's latency window.
    let evaluated = round_trip(&mut stream, &request, &mut buf);
    let first = round_trip(&mut stream, &request, &mut buf);
    assert_eq!(first, evaluated, "a hit answers the evaluated bytes");
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let hit = round_trip(&mut stream, &request, &mut buf);
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(hit, evaluated);

    let cache = server.registry().get("t").unwrap().metrics().cache;
    assert_eq!((cache.hits, cache.misses), (2, 1));
    drop(stream);
    server.shutdown();
    allocations
}

/// One test, so nothing else in this process allocates into the count.
#[test]
fn an_http_cache_hit_allocates_a_fixed_count() {
    let small = hit_allocations(40, 3);
    assert_eq!(
        small, SMALL_HIT_ALLOCATIONS,
        "a 40-function hit over HTTP made {small} allocations"
    );
    let large = hit_allocations(1_000, 4);
    assert!(
        large <= small + GROWING_BUFFERS * MORE_DOUBLINGS,
        "a 1 000-function hit over HTTP made {large} allocations, a 40-function one {small}"
    );
}

//! Property tests for the incremental HTTP parser: no input — however
//! malformed, oversized or adversarially fragmented — may panic it, and
//! split position must never change the outcome.

use proptest::prelude::*;

use mpq_net::{HttpError, ParserLimits, RequestParser};

fn small_limits() -> ParserLimits {
    ParserLimits {
        max_head_bytes: 512,
        max_body_bytes: 1024,
    }
}

/// Run the parser over `raw` split into the given chunk sizes,
/// returning either the parsed request count or the first error.
fn drive(raw: &[u8], cuts: &[usize]) -> Result<usize, HttpError> {
    let mut parser = RequestParser::new(small_limits());
    let mut taken = 0usize;
    let mut offset = 0usize;
    for &cut in cuts {
        let end = (offset + cut.max(1)).min(raw.len());
        parser.feed(&raw[offset..end])?;
        while parser.take_request().is_some() {
            taken += 1;
        }
        offset = end;
        if offset == raw.len() {
            break;
        }
    }
    if offset < raw.len() {
        parser.feed(&raw[offset..])?;
        while parser.take_request().is_some() {
            taken += 1;
        }
    }
    Ok(taken)
}

/// A canonical well-formed request with the given body.
fn well_formed(path_tail: u32, body: &[u8]) -> Vec<u8> {
    let mut raw = format!(
        "POST /t/x{path_tail}/match HTTP/1.1\r\nHost: h\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    raw.extend_from_slice(body);
    raw
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Splitting a valid request at ANY set of byte boundaries yields
    /// exactly one request, never an error.
    #[test]
    fn split_position_is_invisible(
        tail in 0u32..1000,
        body in proptest::collection::vec(any::<u8>(), 0..200),
        cuts in proptest::collection::vec(1usize..64, 0..32),
    ) {
        let raw = well_formed(tail, &body);
        prop_assert_eq!(drive(&raw, &cuts), Ok(1));
    }

    /// Two pipelined requests parse as two, under arbitrary splits.
    #[test]
    fn pipelining_survives_fragmentation(
        body in proptest::collection::vec(any::<u8>(), 0..100),
        cuts in proptest::collection::vec(1usize..48, 0..48),
    ) {
        let mut raw = well_formed(1, &body);
        raw.extend_from_slice(&well_formed(2, &body));
        prop_assert_eq!(drive(&raw, &cuts), Ok(2));
    }

    /// Arbitrary bytes never panic the parser; any reported error is
    /// one of the three typed variants with the right status code.
    #[test]
    fn garbage_never_panics(
        raw in proptest::collection::vec(any::<u8>(), 0..2048),
        cuts in proptest::collection::vec(1usize..128, 0..64),
    ) {
        match drive(&raw, &cuts) {
            Ok(_) => {}
            Err(e) => {
                prop_assert!(matches!(e.status(), 400 | 413 | 431));
            }
        }
    }

    /// Mutating one byte of a valid request never panics, and any
    /// failure is a clean typed error.
    #[test]
    fn single_byte_corruption_is_handled(
        pos_seed in 0usize..10_000,
        byte in any::<u8>(),
        cuts in proptest::collection::vec(1usize..32, 0..16),
    ) {
        let mut raw = well_formed(7, b"{\"functions\":[[1.0]]}");
        let pos = pos_seed % raw.len();
        raw[pos] = byte;
        match drive(&raw, &cuts) {
            Ok(n) => prop_assert!(n <= 1),
            Err(e) => prop_assert!(matches!(e.status(), 400 | 413 | 431)),
        }
    }

    /// A head that never terminates trips the 431 limit regardless of
    /// how the bytes arrive.
    #[test]
    fn unterminated_heads_hit_the_limit(
        filler in proptest::collection::vec(97u8..123, 1..64),
        cuts in proptest::collection::vec(1usize..64, 0..8),
    ) {
        // Build > max_head_bytes of endless header bytes with no blank line.
        let mut raw = b"GET / HTTP/1.1\r\n".to_vec();
        while raw.len() <= 600 {
            raw.extend_from_slice(b"X-Filler: ");
            raw.extend_from_slice(&filler);
            raw.extend_from_slice(b"\r\n");
        }
        prop_assert_eq!(drive(&raw, &cuts), Err(HttpError::HeadersTooLarge));
    }

    /// Oversized declared bodies are refused at the header, before any
    /// body bytes are buffered.
    #[test]
    fn oversized_bodies_are_413(
        extra in 1usize..10_000,
        cuts in proptest::collection::vec(1usize..64, 0..8),
    ) {
        let raw = format!(
            "POST /match HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            1024 + extra
        );
        prop_assert_eq!(drive(raw.as_bytes(), &cuts), Err(HttpError::BodyTooLarge));
    }
}

/// Exhaustive (not sampled) split sweep for one canonical request:
/// every single split point, byte by byte.
#[test]
fn every_single_split_point_parses() {
    let body = br#"{"functions":[[0.5,0.5]],"priority":1}"#;
    let raw = well_formed(3, body);
    for cut in 0..=raw.len() {
        let mut parser = RequestParser::new(small_limits());
        parser.feed(&raw[..cut]).unwrap();
        parser.feed(&raw[cut..]).unwrap();
        let req = parser
            .take_request()
            .unwrap_or_else(|| panic!("no request at split {cut}"));
        assert_eq!(req.path, "/t/x3/match");
        assert_eq!(req.body, body);
        assert!(parser.take_request().is_none());
    }
}

/// Errors are sticky: after a failure every further feed fails with the
/// same typed error.
#[test]
fn errors_are_sticky() {
    let mut parser = RequestParser::new(small_limits());
    let err = parser.feed(b"BAD/REQUEST LINE\r\n\r\n").unwrap_err();
    assert_eq!(err.status(), 400);
    for _ in 0..3 {
        assert_eq!(parser.feed(b"GET / HTTP/1.1\r\n\r\n"), Err(err.clone()));
        assert!(parser.take_request().is_none());
    }
}

/// What a parse yields: each request taken, in order, as its parts.
type Parsed = Vec<(String, String, bool, Vec<(String, String)>, Vec<u8>)>;

/// Feed `raw` in pieces ending at `ends` (then whatever is left), taking
/// every request as it completes; the requests, and the error that
/// stopped the parser, if one did.
fn parse_in_pieces(raw: &[u8], ends: &[usize]) -> (Parsed, Option<HttpError>) {
    let mut parser = RequestParser::new(small_limits());
    let mut taken = Vec::new();
    let mut from = 0;
    for &end in ends.iter().chain([raw.len()].iter()) {
        let end = end.clamp(from, raw.len());
        let fed = parser.feed(&raw[from..end]);
        while let Some(r) = parser.take_request() {
            let headers = r.headers.into_iter().collect();
            taken.push((r.method, r.path, r.http11, headers, r.body));
        }
        if let Err(e) = fed {
            return (taken, Some(e));
        }
        from = end;
    }
    // A failure met while parsing what was buffered behind a taken
    // request surfaces at the next feed.
    (taken, parser.feed(&[]).err())
}

/// Seeded hostile input — valid requests truncated, bit-flipped and
/// pipelined, random heads and random bodies — never panics the parser,
/// fails only with a typed error, and parses the same fed whole or in
/// random pieces, byte by byte included.
#[test]
fn hostile_bytes_never_panic_and_pieces_parse_as_the_whole() {
    let mut state = 0x9E37_79B9_7F4A_7C15_u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    const HEADISH: &[u8] =
        b"GETPOS /t:-_HTP1.0\r\n \tContent-Length: 7\r\nTransfer-Encoding\xff\xc3";
    let valid: Vec<Vec<u8>> = vec![
        b"GET /healthz HTTP/1.1\r\nHost: h\r\n\r\n".to_vec(),
        b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n".to_vec(),
        well_formed(9, br#"{"functions":[[0.5,0.5]]}"#),
        well_formed(4, b""),
        [well_formed(1, b"abc"), well_formed(2, b"\r\n\r\n")].concat(),
        [&b"GET /a HTTP/1.1\r\n\r\n"[..], &well_formed(3, b"xyz")].concat(),
    ];
    let mut failures = [0usize; 3];
    for round in 0..6_000 {
        let base = &valid[next() as usize % valid.len()];
        let raw: Vec<u8> = match round % 5 {
            0 => base.clone(),
            1 => base[..next() as usize % (base.len() + 1)].to_vec(),
            2 => {
                let mut raw = base.clone();
                for _ in 0..1 + next() % 3 {
                    let at = next() as usize % raw.len();
                    raw[at] ^= 1 << (next() % 8);
                }
                raw
            }
            3 => {
                let head: Vec<u8> = (0..next() % 96)
                    .map(|_| HEADISH[next() as usize % HEADISH.len()])
                    .collect();
                let padding = b"X-Pad: abcdefgh\r\n".repeat(next() as usize % 48);
                [&head[..], &padding, b"\r\n\r\n", base].concat()
            }
            _ => {
                let body: Vec<u8> = (0..next() % 64).map(|_| next() as u8).collect();
                let length = next() % 1280;
                let head = format!("POST /b HTTP/1.1\r\nContent-Length: {length}\r\n\r\n");
                [head.as_bytes(), &body, base].concat()
            }
        };
        let whole = parse_in_pieces(&raw, &[]);
        if let Some(e) = &whole.1 {
            let status = e.status();
            assert!(matches!(status, 400 | 413 | 431), "{e:?}");
            failures[[400, 413, 431].iter().position(|&s| s == status).unwrap()] += 1;
        }
        for split in 0..3 {
            let ends: Vec<usize> = match split {
                0 => (1..raw.len()).collect(),
                _ => {
                    let mut ends: Vec<usize> = (0..next() % 8)
                        .map(|_| next() as usize % (raw.len() + 1))
                        .collect();
                    ends.sort_unstable();
                    ends
                }
            };
            let pieces = parse_in_pieces(&raw, &ends);
            assert!(
                pieces == whole,
                "round {round}, ends {ends:?}: {pieces:?} != {whole:?}"
            );
        }
    }
    // Each kind of failure was met, so each path was exercised.
    assert!(failures.iter().all(|&n| n > 0), "{failures:?}");
}

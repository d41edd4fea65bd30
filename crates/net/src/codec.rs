//! JSON wire codec: request bodies in, matchings out.
//!
//! A `POST .../match` body is a [`WireRequest`]:
//!
//! ```json
//! {
//!   "functions": [[0.7, 0.3], [0.5, 0.5]],
//!   "algorithm": "sb",
//!   "exclude": [17, 42],
//!   "capacities": [1, 0, 2, 1, 1],
//!   "deadline_ms": 250
//! }
//! ```
//!
//! Only `functions` is required; a field the codec does not know is
//! skipped, `"priority"` among them (the queue is FIFO). The server
//! runs SB alone: `algorithm`, if present, must be `"sb"`, and any
//! other value is a `400` naming the field. `capacities` is per *object*, not per
//! function: entry `oid` is how many functions object `oid` may take,
//! and there must be one for every id below the tenant's id bound (a
//! five-object inventory above) — any other length is a `400` whose
//! body names the expected one. The response is [`encode_matching`],
//! with its keys in this order:
//! `{"len":..,"pairs":[{"fid":..,"oid":..,"score":..}],"total_score":..}`.
//! Scores cross the wire in shortest-round-trip `f64` form
//! ([`write_num`], the one [`Json`] renders with), so a decoded pair is
//! **bit-identical** to what `Engine::evaluate` produced — the e2e
//! suite asserts exactly that. Ids and counts cross as JSON integers
//! written from their digits and read from them
//! ([`Scanner::integer`]), never through an `f64`: every `u64` id is
//! exact, and an id that is no integer or does not fit in `u64` is a
//! `400` (an `exclude` entry or an `oid` of `1e30` no longer saturates
//! to `u64::MAX`). `deadline_ms` is read the same way: `250` and
//! `250.0` are 250 ms, while `1e30` or `1e-400` is a `400`, not "no
//! deadline" or a 0 ms one.
//!
//! No body is turned into a [`Json`] tree on its way. The decoders pull
//! tokens from one [`Scanner`] straight into their results — weight
//! rows into the [`FunctionSet`] through one row buffer, pairs into a
//! `Vec<Pair>` — and skip unknown fields, checking that they are well
//! formed. The encoder writes the response text directly. Each is linear
//! in the body's length.
//!
//! Decoding is strict where it matters (types, finiteness, ranges) and
//! produces a human-readable message for the `400` body; semantic
//! validation (dimension mismatch, empty sets, weight errors) stays in
//! the engine, which already does it canonically. The messages do not
//! depend on the order of the fields: a body that is not JSON is
//! refused as such wherever it breaks, and the fields are then judged
//! in a fixed order.

//! `POST .../mutate` bodies are a `WireMutation`:
//!
//! ```json
//! {"op": "insert", "point": [0.3, 0.7]}
//! {"op": "remove", "oid": 17}
//! {"op": "update", "oid": 17, "point": [0.4, 0.6]}
//! ```
//!
//! [`Json`]: mpq_core::json::Json

use std::borrow::Cow;
use std::fmt::Write;

use mpq_core::json::{write_num, Scanner, Token};
use mpq_core::{Matching, Pair};
use mpq_ta::{FunctionSet, WeightError};

/// A decoded `POST .../match` body, ready to submit.
#[derive(Debug, Clone)]
pub struct WireRequest {
    /// The preference functions, one weight row per function.
    pub functions: FunctionSet,
    /// Object ids excluded from this evaluation.
    pub exclude: Vec<u64>,
    /// Optional per-object capacities, indexed by object id: one entry
    /// for every id below the engine's id bound
    /// ([`Engine::oid_bound`](mpq_core::Engine::oid_bound)),
    /// or the request is refused with
    /// [`MpqError::CapacityMismatch`](mpq_core::MpqError::CapacityMismatch).
    pub capacities: Option<Vec<u32>>,
    /// Optional per-request deadline in milliseconds.
    pub deadline_ms: Option<u64>,
}

/// One field as the decoders read it. The outer `Err` says the body is
/// not JSON at all; the inner one that it is, but the field is wrong.
type Scanned<T> = Result<Result<T, String>, String>;

/// Scan `body` as one JSON document, handing each member of a top-level
/// object to `member` with the scanner at the member's value, which
/// `member` must consume whole. `Ok(false)`: well-formed, but not an
/// object. `Err`: the `400` message for a body that is not UTF-8 or not
/// JSON.
fn scan_object<'a>(
    body: &'a [u8],
    member: impl FnMut(&str, &mut Scanner<'a>) -> Result<(), String>,
) -> Result<bool, String> {
    fn scan<'a>(
        s: &mut Scanner<'a>,
        mut member: impl FnMut(&str, &mut Scanner<'a>) -> Result<(), String>,
    ) -> Result<bool, String> {
        let first = s.value()?;
        let is_object = first == Token::Obj;
        if is_object {
            while let Some(key) = s.next_key()? {
                member(&key, s)?;
            }
        } else {
            s.skip(first)?;
        }
        s.end()?;
        Ok(is_object)
    }
    let text = std::str::from_utf8(body).map_err(|_| "body is not valid UTF-8".to_string())?;
    scan(&mut Scanner::new(text), member).map_err(|e| format!("invalid JSON: {e}"))
}

/// Skip the next value whole.
fn skip_value(s: &mut Scanner<'_>) -> Result<(), String> {
    let first = s.value()?;
    s.skip(first)
}

/// The next value as a number, or `None` (the value skipped) if it is
/// not one.
fn number(s: &mut Scanner<'_>) -> Result<Option<f64>, String> {
    match s.value()? {
        Token::Num(n) => Ok(Some(n)),
        other => s.skip(other).map(|()| None),
    }
}

/// The next value as an id read from its digits ([`Scanner::integer`]):
/// `None` (the value skipped) if it is not a number, `Some(None)` if it
/// is one but no `u64` integer.
fn id(s: &mut Scanner<'_>) -> Result<Option<Option<u64>>, String> {
    Ok(number(s)?.map(|_| s.integer()))
}

/// Read the array that `first` opens into `out`, mapping each element —
/// its value, and the scanner that just read it — through `each`. The
/// inner `Err` is `None` for a value that is not an array and `Some(i)`
/// for the first element `each` refuses (or that is not a number). The
/// value is consumed whole either way.
fn numbers<'a, T>(
    s: &mut Scanner<'a>,
    first: Token<'a>,
    out: &mut Vec<T>,
    each: impl Fn(f64, &Scanner<'a>) -> Option<T>,
) -> Result<Result<(), Option<usize>>, String> {
    if first != Token::Arr {
        s.skip(first)?;
        return Ok(Err(None));
    }
    let mut refused = None;
    let mut i = 0;
    while s.next_item()? {
        match number(s)?.and_then(|n| each(n, s)) {
            Some(v) if refused.is_none() => out.push(v),
            Some(_) => {}
            None => {
                refused.get_or_insert(i);
            }
        }
        i += 1;
    }
    Ok(refused.map_or(Ok(()), |i| Err(Some(i))))
}

/// An optional non-negative integer field, read by `read` from the
/// number and the scanner that just read it; `null` reads as absent.
fn optional_u64(
    s: &mut Scanner<'_>,
    key: &str,
    read: impl Fn(f64, &Scanner<'_>) -> Option<u64>,
) -> Scanned<Option<u64>> {
    Ok(match s.value()? {
        Token::Null => Ok(None),
        Token::Num(n) => match read(n, s) {
            Some(n) => Ok(Some(n)),
            None => Err(format!("'{key}' must be a non-negative integer")),
        },
        other => {
            s.skip(other)?;
            Err(format!("'{key}' must be a number"))
        }
    })
}

/// `functions`: each weight row goes through one row buffer straight
/// into the [`FunctionSet`], whose dimension the first row sets.
fn weight_rows(s: &mut Scanner<'_>) -> Scanned<FunctionSet> {
    let first = s.value()?;
    if first != Token::Arr {
        s.skip(first)?;
        return Ok(Err(
            "'functions' must be an array of weight rows".to_string()
        ));
    }
    let mut set: Option<FunctionSet> = None;
    let mut row = Vec::new();
    // A row that is not an array of numbers is reported before an
    // invalid one, wherever the two lie.
    let (mut misshapen, mut invalid) = (None, None);
    let mut i = 0;
    while s.next_item()? {
        let first = s.value()?;
        if misshapen.is_some() {
            s.skip(first)?;
        } else {
            row.clear();
            match numbers(s, first, &mut row, |n, _| Some(n))? {
                Err(None) => misshapen = Some(format!("function {i} must be an array of numbers")),
                Err(Some(_)) => misshapen = Some(format!("function {i} has a non-numeric weight")),
                Ok(()) if invalid.is_none() => {
                    let pushed = match &mut set {
                        Some(set) => set.try_push(&row),
                        // No dimension to set: the row has no weight
                        // that is not zero.
                        None if row.is_empty() => Err(WeightError::AllZero),
                        None => set.insert(FunctionSet::new(row.len())).try_push(&row),
                    };
                    if let Err(e) = pushed {
                        invalid = Some(format!("function {i} is invalid: {e}"));
                    }
                }
                Ok(()) => {}
            }
        }
        i += 1;
    }
    Ok(match (misshapen.or(invalid), set) {
        (Some(why), _) => Err(why),
        (None, Some(set)) => Ok(set),
        (None, None) => Err("'functions' must not be empty".to_string()),
    })
}

/// An optional array of integers, each mapped through `each`; `null`
/// reads as absent.
fn integers<T>(
    s: &mut Scanner<'_>,
    key: &str,
    what: &str,
    each: impl Fn(f64, &Scanner<'_>) -> Option<T>,
) -> Scanned<Option<Vec<T>>> {
    let first = s.value()?;
    if first == Token::Null {
        return Ok(Ok(None));
    }
    let mut out = Vec::new();
    Ok(match numbers(s, first, &mut out, each)? {
        Ok(()) => Ok(Some(out)),
        Err(None) => Err(format!("'{key}' must be an array of {what}")),
        Err(Some(i)) => Err(format!("'{key}[{i}]' must be a non-negative integer")),
    })
}

/// Decode a request body. `Err` carries the message for the `400` body.
pub fn decode_match_request(body: &[u8]) -> Result<WireRequest, String> {
    let mut functions = None;
    let mut algorithm = Ok(());
    let mut exclude = Ok(None);
    let mut capacities = Ok(None);
    let mut deadline_ms = Ok(None);
    let is_object = scan_object(body, |key, s| {
        match key {
            "functions" => functions = Some(weight_rows(s)?),
            // A served request is SB alone. The field stays only to refuse
            // any other value: unknown fields are skipped, so a client
            // asking for "bf" would otherwise be answered by SB without a
            // word.
            "algorithm" => {
                algorithm = match s.value()? {
                    Token::Null => Ok(()),
                    Token::Str(name) if name.eq_ignore_ascii_case("sb") => Ok(()),
                    other => {
                        s.skip(other)?;
                        Err("'algorithm' must be \"sb\" or absent: the server runs SB \
                             alone (`mpq match --algo` runs the others)")
                    }
                }
            }
            // An id is read from its digits: every `u64` exactly, and
            // one past it refused.
            "exclude" => exclude = integers(s, key, "object ids", |_, s| s.integer())?,
            "capacities" => {
                capacities = integers(s, key, "counts", |n, _| {
                    (n.fract() == 0.0 && (0.0..=u32::MAX as f64).contains(&n)).then_some(n as u32)
                })?
            }
            "deadline_ms" => deadline_ms = optional_u64(s, key, |_, s| s.integer())?,
            _ => skip_value(s)?,
        }
        Ok(())
    })?;
    if !is_object {
        return Err("body must be a JSON object".to_string());
    }
    let functions = functions.ok_or_else(|| "missing 'functions'".to_string())??;
    algorithm?;
    Ok(WireRequest {
        functions,
        exclude: exclude?.unwrap_or_default(),
        capacities: capacities?,
        deadline_ms: deadline_ms?,
    })
}

/// A response body [`encode_matching`] wrote.
#[derive(Debug, Clone, PartialEq)]
pub struct MatchingBody(String);

impl MatchingBody {
    /// The body's text (the one buffer it was written into, not a copy).
    pub fn render(self) -> String {
        self.0
    }
}

/// Encode a matching as the response body, written straight into one
/// buffer sized for the pairs: while every id is below 1e15, the text
/// [`Json::render`](mpq_core::json::Json::render) gives the same
/// document, byte for byte; an id past that is its own digits, exact.
pub fn encode_matching(m: &Matching) -> MatchingBody {
    // Room for a pair with a six-digit oid and a full-precision score.
    let mut out = String::with_capacity(64 + 64 * m.len());
    // Counts and ids are integers, written from their digits: below
    // 1e15 the text `write_num` gives their `f64`, and exact above 2^53.
    let _ = write!(out, "{{\"len\":{},\"pairs\":[", m.len());
    for (i, p) in m.pairs().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{{\"fid\":{},\"oid\":{},\"score\":", p.fid, p.oid);
        write_num(p.score, &mut out);
        out.push('}');
    }
    out.push_str("],\"total_score\":");
    write_num(m.total_score(), &mut out);
    out.push('}');
    MatchingBody(out)
}

/// `pairs`: each member read straight into a [`Pair`].
fn pairs(s: &mut Scanner<'_>) -> Scanned<Vec<Pair>> {
    let first = s.value()?;
    if first != Token::Arr {
        s.skip(first)?;
        return Ok(Err("missing 'pairs' array".to_string()));
    }
    let mut pairs = Vec::new();
    let mut fault = None;
    let mut i = 0;
    while s.next_item()? {
        let (mut fid, mut oid, mut score) = (None, None, None);
        match s.value()? {
            Token::Obj => {
                while let Some(key) = s.next_key()? {
                    match &*key {
                        "fid" => fid = id(s)?,
                        "oid" => oid = id(s)?,
                        "score" => score = number(s)?,
                        _ => skip_value(s)?,
                    }
                }
            }
            other => s.skip(other)?,
        }
        if fault.is_none() {
            let fid = fid.map(|fid| fid.and_then(|fid| u32::try_from(fid).ok()));
            match (fid, oid, score) {
                (Some(Some(fid)), Some(Some(oid)), Some(score)) => {
                    pairs.push(Pair { fid, oid, score })
                }
                (None, _, _) => fault = Some(format!("pair {i} missing 'fid'")),
                (_, None, _) => fault = Some(format!("pair {i} missing 'oid'")),
                (_, _, None) => fault = Some(format!("pair {i} missing 'score'")),
                (Some(None), _, _) => {
                    fault = Some(format!("pair {i}: 'fid' must be a non-negative integer"))
                }
                (_, Some(None), _) => {
                    fault = Some(format!("pair {i}: 'oid' must be a non-negative integer"))
                }
            }
        }
        i += 1;
    }
    Ok(fault.map_or(Ok(pairs), Err))
}

/// Decode the pairs from a response body (the client side of
/// [`encode_matching`]). Returns `(fid, oid, score)` triples in wire
/// order.
pub fn decode_pairs(body: &[u8]) -> Result<Vec<Pair>, String> {
    let mut read = None;
    scan_object(body, |key, s| {
        match key {
            "pairs" => read = Some(pairs(s)?),
            _ => skip_value(s)?,
        }
        Ok(())
    })?;
    read.unwrap_or_else(|| Err("missing 'pairs' array".to_string()))
}

/// A decoded `POST .../mutate` body.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum WireMutation {
    /// Insert a new object at `point`; the ack carries its oid.
    Insert(Vec<f64>),
    /// Remove object `oid`.
    Remove(u64),
    /// Move object `oid` to `point`.
    Update(u64, Vec<f64>),
}

/// `point`: a non-empty array of numbers.
fn point(s: &mut Scanner<'_>) -> Scanned<Vec<f64>> {
    let first = s.value()?;
    let mut point = Vec::new();
    Ok(match numbers(s, first, &mut point, |n, _| Some(n))? {
        Err(None) => Err("'point' must be an array of numbers".to_string()),
        Err(Some(i)) => Err(format!("'point[{i}]' must be a finite number")),
        Ok(()) if point.is_empty() => Err("'point' must not be empty".to_string()),
        Ok(()) => Ok(point),
    })
}

/// Decode a mutation body. `Err` carries the message for the `400` body.
pub(crate) fn decode_mutation(body: &[u8]) -> Result<WireMutation, String> {
    // `op` is `None` while absent or not a string.
    let mut op: Option<Cow<'_, str>> = None;
    let mut oid = Ok(None);
    let mut read_point = None;
    let is_object = scan_object(body, |key, s| {
        match key {
            "op" => {
                op = match s.value()? {
                    Token::Str(op) => Some(op),
                    other => s.skip(other).map(|()| None)?,
                }
            }
            "oid" => oid = optional_u64(s, key, |_, s| s.integer())?,
            "point" => read_point = Some(point(s)?),
            _ => skip_value(s)?,
        }
        Ok(())
    })?;
    if !is_object {
        return Err("body must be a JSON object".to_string());
    }
    let op =
        op.ok_or_else(|| "'op' must be one of \"insert\", \"remove\", \"update\"".to_string())?;
    let oid = oid.and_then(|oid| oid.ok_or_else(|| format!("'{op}' requires an 'oid'")));
    let point =
        read_point.unwrap_or_else(|| Err("'point' must be an array of numbers".to_string()));
    match &*op {
        "insert" => Ok(WireMutation::Insert(point?)),
        "remove" => Ok(WireMutation::Remove(oid?)),
        "update" => Ok(WireMutation::Update(oid?, point?)),
        other => Err(format!("unknown op {other:?}")),
    }
}

/// Encode a successful mutation's ack:
/// `{"inventory_version":..,"oid":..,"ok":true}` (`oid` only for
/// inserts; keys in the order a `Json` object renders them). The
/// integers are written from their digits, exact over the whole `u64`
/// range.
pub(crate) fn encode_mutation_ack(oid: Option<u64>, inventory_version: u64) -> String {
    let mut out = format!("{{\"inventory_version\":{inventory_version},");
    if let Some(oid) = oid {
        let _ = write!(out, "\"oid\":{oid},");
    }
    out.push_str("\"ok\":true}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpq_core::json::Json;

    #[test]
    fn decodes_a_minimal_request() {
        let req = decode_match_request(br#"{"functions":[[0.7,0.3],[0.5,0.5]]}"#).unwrap();
        assert_eq!(req.functions.len(), 2);
        assert_eq!(req.functions.dim(), 2);
        assert!(req.exclude.is_empty());
        assert!(req.capacities.is_none());
        assert!(req.deadline_ms.is_none());
    }

    #[test]
    fn decodes_all_optional_fields() {
        let req = decode_match_request(
            br#"{"functions":[[1.0,0.0]],"algorithm":"sb","exclude":[3,9],
                 "capacities":[2],"deadline_ms":250}"#,
        )
        .unwrap();
        assert_eq!(req.exclude, vec![3, 9]);
        assert_eq!(req.capacities, Some(vec![2]));
        assert_eq!(req.deadline_ms, Some(250));
        let req = decode_match_request(br#"{"functions":[[1]],"deadline_ms":250.0}"#).unwrap();
        assert_eq!(req.deadline_ms, Some(250));
    }

    #[test]
    fn rejects_malformed_bodies_with_a_reason() {
        for (body, needle) in [
            (&b"not json"[..], "invalid JSON"),
            (br#"[1,2]"#, "must be a JSON object"),
            (br#"{}"#, "missing 'functions'"),
            (br#"{"functions":[]}"#, "must not be empty"),
            (br#"{"functions":[["x"]]}"#, "non-numeric weight"),
            (br#"{"functions":[[0.5,0.5]],"algorithm":3}"#, "'algorithm'"),
            (
                br#"{"functions":[[0.5,0.5]],"exclude":[-1]}"#,
                "'exclude[0]'",
            ),
            (
                br#"{"functions":[[0.5,0.5]],"deadline_ms":1.5}"#,
                "'deadline_ms'",
            ),
            (
                br#"{"functions":[[0.5,0.5]],"capacities":[0.5]}"#,
                "'capacities[0]'",
            ),
        ] {
            let err = decode_match_request(body).unwrap_err();
            assert!(
                err.contains(needle),
                "body {:?} gave {err:?}, wanted {needle:?}",
                String::from_utf8_lossy(body)
            );
        }
    }

    /// The server runs SB alone: an absent, null or `"sb"` algorithm is
    /// accepted, anything else refused by the field's name.
    #[test]
    fn only_sb_passes_the_algorithm_field() {
        let body = |field: &str| format!(r#"{{"functions":[[0.5,0.5]]{field}}}"#);
        for refused in [r#""bf""#, r#""chain""#, "3"] {
            let err = decode_match_request(body(&format!(r#","algorithm":{refused}"#)).as_bytes())
                .unwrap_err();
            assert!(err.contains("'algorithm'"), "{refused}: {err}");
        }
        for accepted in ["", r#","algorithm":null"#, r#","algorithm":"sb""#] {
            assert!(
                decode_match_request(body(accepted).as_bytes()).is_ok(),
                "{accepted}"
            );
        }
    }

    #[test]
    fn invalid_weight_rows_are_refused_at_decode() {
        // Negative weights violate the FunctionSet contract; the decoder
        // surfaces that as a 400-worthy message rather than a panic.
        let err = decode_match_request(br#"{"functions":[[-0.5,0.5]]}"#).unwrap_err();
        assert!(err.contains("function 0"), "{err}");
    }

    #[test]
    fn decodes_mutations() {
        assert_eq!(
            decode_mutation(br#"{"op":"insert","point":[0.3,0.7]}"#).unwrap(),
            WireMutation::Insert(vec![0.3, 0.7])
        );
        assert_eq!(
            decode_mutation(br#"{"op":"remove","oid":17}"#).unwrap(),
            WireMutation::Remove(17)
        );
        assert_eq!(
            decode_mutation(br#"{"op":"update","oid":3,"point":[0.1,0.2]}"#).unwrap(),
            WireMutation::Update(3, vec![0.1, 0.2])
        );
    }

    #[test]
    fn rejects_malformed_mutations_with_a_reason() {
        for (body, needle) in [
            (&br#"{"point":[0.1]}"#[..], "'op'"),
            (br#"{"op":"explode"}"#, "unknown op"),
            (br#"{"op":"insert"}"#, "'point'"),
            (br#"{"op":"insert","point":[]}"#, "must not be empty"),
            (br#"{"op":"insert","point":["x"]}"#, "'point[0]'"),
            (br#"{"op":"remove"}"#, "requires an 'oid'"),
            (br#"{"op":"remove","oid":-1}"#, "'oid'"),
            (br#"{"op":"update","oid":1}"#, "'point'"),
        ] {
            let err = decode_mutation(body).unwrap_err();
            assert!(
                err.contains(needle),
                "body {:?} gave {err:?}, wanted {needle:?}",
                String::from_utf8_lossy(body)
            );
        }
    }

    #[test]
    fn mutation_ack_includes_oid_only_for_inserts() {
        let with = encode_mutation_ack(Some(5), 9);
        assert!(with.contains("\"oid\":5"), "{with}");
        let without = encode_mutation_ack(None, 9);
        assert!(!without.contains("oid"), "{without}");
        assert!(without.contains("\"inventory_version\":9"), "{without}");
        // The bytes a `Json` object of the ack renders.
        let tree = |oid: Option<u64>| {
            let mut fields = vec![("ok", Json::Bool(true))];
            fields.extend(oid.map(|oid| ("oid", Json::Num(oid as f64))));
            fields.push(("inventory_version", Json::Num(9.0)));
            Json::obj(fields).render()
        };
        assert_eq!(with, tree(Some(5)));
        assert_eq!(without, tree(None));
    }

    /// Ids are integers on the wire over the whole `u64` range: written
    /// from their digits, and read from them — never through an `f64`,
    /// which rounds every id above 2^53 and saturates one past `u64`.
    #[test]
    fn ids_cross_the_wire_exactly() {
        let ids = [0, (1 << 53) + 1, u64::MAX - 1, u64::MAX];
        let ack = encode_mutation_ack(Some(u64::MAX), u64::MAX - 1);
        assert_eq!(
            ack,
            r#"{"inventory_version":18446744073709551614,"oid":18446744073709551615,"ok":true}"#
        );
        let body = format!(r#"{{"functions":[[1]],"exclude":{ids:?}}}"#);
        assert_eq!(decode_match_request(body.as_bytes()).unwrap().exclude, ids);
        for oid in ids {
            let body = format!(r#"{{"op":"remove","oid":{oid}}}"#);
            assert_eq!(
                decode_mutation(body.as_bytes()).unwrap(),
                WireMutation::Remove(oid)
            );
        }
        let pairs: Vec<Pair> = (ids.iter().enumerate())
            .map(|(fid, &oid)| Pair {
                fid: u32::MAX - fid as u32,
                oid,
                score: 0.5,
            })
            .collect();
        let text = encode_matching(&Matching::new(pairs.clone(), Default::default())).render();
        assert!(text.contains(r#""oid":9007199254740993,"#), "{text}");
        assert_eq!(decode_pairs(text.as_bytes()).unwrap(), pairs);
        // Written as a decimal fraction or with an exponent, an integer
        // is still one.
        let body = br#"{"functions":[[1]],"exclude":[1.7e1,17.0,-0,1.8446744073709551615e19]}"#;
        let exclude = decode_match_request(body).unwrap().exclude;
        assert_eq!(exclude, [17, 17, 0, u64::MAX]);
    }

    #[test]
    fn matchings_round_trip_bit_exactly() {
        let pairs = vec![
            Pair {
                fid: 0,
                oid: 7,
                score: 0.1 + 0.2, // deliberately non-representable sum
            },
            Pair {
                fid: 1,
                oid: 3,
                score: 1.0 / 3.0,
            },
        ];
        let m = Matching::new(pairs.clone(), Default::default());
        let body = encode_matching(&m).render();
        let back = decode_pairs(body.as_bytes()).unwrap();
        assert_eq!(back.len(), pairs.len());
        for (a, b) in pairs.iter().zip(&back) {
            assert_eq!(a.fid, b.fid);
            assert_eq!(a.oid, b.oid);
            assert_eq!(a.score.to_bits(), b.score.to_bits());
        }
    }

    /// Every `400` message, word for word, including which one a body
    /// with several faults gets: not JSON anywhere first, then the fields
    /// in a fixed order, whatever order they came in.
    #[test]
    fn every_message_is_pinned_word_for_word() {
        let algorithm = "'algorithm' must be \"sb\" or absent: the server runs SB alone \
                         (`mpq match --algo` runs the others)";
        for (body, message) in [
            (&b"\xff"[..], "body is not valid UTF-8"),
            (b"", "invalid JSON: unexpected end of input"),
            (b"not json", "invalid JSON: invalid literal at byte 0"),
            (
                br#"{"priority":"x","functions":[]"#,
                "invalid JSON: expected ',' or '}' at byte 30",
            ),
            (
                br#"{"functions":[[1,]]}"#,
                "invalid JSON: invalid number '' at byte 17",
            ),
            (br#"{"a":"\q"}"#, "invalid JSON: invalid escape at byte 7"),
            (
                br#"{"functions":[[1e999]]}"#,
                "invalid JSON: non-finite number '1e999'",
            ),
            (br#"[1,2]"#, "body must be a JSON object"),
            (br#"{"priority":"x"}"#, "missing 'functions'"),
            (
                br#"{"functions":null}"#,
                "'functions' must be an array of weight rows",
            ),
            (
                br#"{"priority":"x","functions":[]}"#,
                "'functions' must not be empty",
            ),
            (
                br#"{"functions":[[-1,1],[1,2],3]}"#,
                "function 2 must be an array of numbers",
            ),
            (
                br#"{"functions":[[1,0],[0,"x"],3]}"#,
                "function 1 has a non-numeric weight",
            ),
            (
                br#"{"functions":[[1,0],[0,0],[-1,1]]}"#,
                "function 1 is invalid: weights must not be all zero",
            ),
            (
                br#"{"functions":[[1,0],[1,2,3]]}"#,
                "function 1 is invalid: weight row has 3 entries, expected 2",
            ),
            (
                br#"{"functions":[[0.5,-1]]}"#,
                "function 0 is invalid: weight -1 at dimension 1 is not finite and non-negative",
            ),
            // No dimension to build a set of: refused, never a panic.
            (
                br#"{"functions":[[]]}"#,
                "function 0 is invalid: weights must not be all zero",
            ),
            (
                br#"{"exclude":{},"functions":[[1]],"algorithm":"bf"}"#,
                algorithm,
            ),
            (
                br#"{"exclude":{},"functions":[[1]]}"#,
                "'exclude' must be an array of object ids",
            ),
            (
                br#"{"exclude":[1,0.5,-1],"functions":[[1]]}"#,
                "'exclude[1]' must be a non-negative integer",
            ),
            (
                br#"{"exclude":[18446744073709551615,1e30],"functions":[[1]]}"#,
                "'exclude[1]' must be a non-negative integer",
            ),
            (
                br#"{"exclude":[18446744073709551616],"functions":[[1]]}"#,
                "'exclude[0]' must be a non-negative integer",
            ),
            (
                br#"{"capacities":[1,4294967296],"functions":[[1]]}"#,
                "'capacities[1]' must be a non-negative integer",
            ),
            (
                br#"{"capacities":7,"functions":[[1]]}"#,
                "'capacities' must be an array of counts",
            ),
            (
                br#"{"deadline_ms":"soon","functions":[[1]]}"#,
                "'deadline_ms' must be a number",
            ),
            (
                br#"{"priority":null,"deadline_ms":-5,"functions":[[1]]}"#,
                "'deadline_ms' must be a non-negative integer",
            ),
            (
                br#"{"deadline_ms":1e30,"functions":[[1]]}"#,
                "'deadline_ms' must be a non-negative integer",
            ),
            (
                br#"{"deadline_ms":18446744073709551616,"functions":[[1]]}"#,
                "'deadline_ms' must be a non-negative integer",
            ),
            (
                br#"{"deadline_ms":1e-400,"functions":[[1]]}"#,
                "'deadline_ms' must be a non-negative integer",
            ),
        ] {
            assert_eq!(
                decode_match_request(body).unwrap_err(),
                message,
                "{}",
                String::from_utf8_lossy(body)
            );
        }
        for (body, message) in [
            (
                &br#"{"op":1,"oid":"x"}"#[..],
                "'op' must be one of \"insert\", \"remove\", \"update\"",
            ),
            (br#""insert""#, "body must be a JSON object"),
            (br#"{"op":"remove","oid":"x"}"#, "'oid' must be a number"),
            (
                br#"{"op":"update","oid":1.5,"point":[]}"#,
                "'oid' must be a non-negative integer",
            ),
            (
                br#"{"op":"remove","oid":1e30}"#,
                "'oid' must be a non-negative integer",
            ),
            (
                br#"{"op":"remove","oid":18446744073709551616}"#,
                "'oid' must be a non-negative integer",
            ),
            (
                br#"{"op":"update","point":[1]}"#,
                "'update' requires an 'oid'",
            ),
            (
                br#"{"op":"insert","oid":"x"}"#,
                "'point' must be an array of numbers",
            ),
            (
                br#"{"op":"insert","point":[]}"#,
                "'point' must not be empty",
            ),
            (
                br#"{"op":"insert","point":[1,null]}"#,
                "'point[1]' must be a finite number",
            ),
            (br#"{"op":"ex\"plode"}"#, "unknown op \"ex\\\"plode\""),
        ] {
            assert_eq!(
                decode_mutation(body).unwrap_err(),
                message,
                "{}",
                String::from_utf8_lossy(body)
            );
        }
        for (body, message) in [
            (&br#"{"len":1}"#[..], "missing 'pairs' array"),
            (br#"[]"#, "missing 'pairs' array"),
            (
                br#"{"pairs":[{"fid":0,"oid":1,"score":1},7]}"#,
                "pair 1 missing 'fid'",
            ),
            (
                br#"{"pairs":[{"fid":0,"score":1}]}"#,
                "pair 0 missing 'oid'",
            ),
            (
                br#"{"pairs":[{"fid":0,"oid":1,"score":"1"}]}"#,
                "pair 0 missing 'score'",
            ),
            (
                br#"{"pairs":[{"fid":0,"oid":1,"score":1},{"fid":0,"oid":1.5,"score":1}]}"#,
                "pair 1: 'oid' must be a non-negative integer",
            ),
            (
                br#"{"pairs":[{"fid":4294967296,"oid":1,"score":1}]}"#,
                "pair 0: 'fid' must be a non-negative integer",
            ),
            (
                br#"{"pairs":[],"len":}"#,
                "invalid JSON: invalid number '' at byte 18",
            ),
        ] {
            assert_eq!(
                decode_pairs(body).unwrap_err(),
                message,
                "{}",
                String::from_utf8_lossy(body)
            );
        }
    }

    /// A repeated field counts once, as its last occurrence; unknown
    /// fields are skipped, but only when well formed.
    #[test]
    fn the_last_of_a_repeated_field_counts_and_unknown_fields_are_checked() {
        let req = decode_match_request(
            br#"{"functions":[[1,"x"]],"note":{"a":[1,{"b":null}]},"functions":[[1,3]]}"#,
        )
        .unwrap();
        assert_eq!(req.functions.weights(0), &[0.25, 0.75]);
        let err = decode_match_request(br#"{"functions":[[1,3]],"note":{"a":[1}}"#).unwrap_err();
        assert!(err.starts_with("invalid JSON"), "{err}");
        let pairs =
            decode_pairs(br#"{"pairs":[],"pairs":[{"score":2,"oid":5,"fid":1,"x":[]}]}"#).unwrap();
        assert_eq!((pairs[0].fid, pairs[0].oid, pairs[0].score), (1, 5, 2.0));
    }

    /// A `"priority"` field is skipped like any unknown one, whatever
    /// its value: the body decodes to the request it names without it.
    #[test]
    fn a_priority_field_changes_nothing() {
        let decode = |body: String| {
            let req = decode_match_request(body.as_bytes()).unwrap();
            (req.functions, req.exclude, req.capacities, req.deadline_ms)
        };
        let plain = r#""functions":[[0.7,0.3],[1,3]],"exclude":[4],"deadline_ms":250"#;
        let without = decode(format!("{{{plain}}}"));
        for priority in [
            r#""priority":5"#,
            r#""priority":"high""#,
            r#""priority":2147483648"#,
            r#""priority":9,"priority":-2"#,
        ] {
            assert_eq!(decode(format!("{{{priority},{plain}}}")), without);
            assert_eq!(decode(format!("{{{plain},{priority}}}")), without);
        }
    }

    /// The largest body the parser admits, most of it one string, is
    /// answered in one pass: this took minutes when each character of a
    /// string re-validated the rest of the body.
    #[test]
    fn four_mebibyte_strings_are_answered_promptly() {
        let limit = crate::ParserLimits::default().max_body_bytes;
        let fill = |head: &str, tail: &str| {
            let pad = "é".repeat((limit - head.len() - tail.len()) / 2);
            format!("{head}{pad}{tail}").into_bytes()
        };
        let start = std::time::Instant::now();
        let req = decode_match_request(&fill(r#"{"functions":[[0.5,0.5]],"note":""#, r#""}"#));
        assert_eq!(req.unwrap().functions.len(), 1);
        let err = decode_match_request(&fill(r#"{"functions":[[0.5,0.5]],"algorithm":""#, r#""}"#));
        assert!(err.unwrap_err().contains("'algorithm'"));
        let err = decode_match_request(&fill(r#"{"functions":""#, r#""}"#)).unwrap_err();
        assert_eq!(err, "'functions' must be an array of weight rows");
        let m = decode_mutation(&fill(r#"{"op":"insert","point":[0.5],"note":""#, r#""}"#));
        assert_eq!(m.unwrap(), WireMutation::Insert(vec![0.5]));
        let err = decode_mutation(&fill(r#"{"op":""#, r#""}"#)).unwrap_err();
        assert!(err.starts_with("unknown op"));
        let err = decode_pairs(&fill(r#"{"pairs":[{"fid":""#, r#""}]}"#)).unwrap_err();
        assert_eq!(err, "pair 0 missing 'fid'");
        let elapsed = start.elapsed();
        assert!(elapsed.as_secs() < 60, "six 4 MiB bodies took {elapsed:?}");
    }

    /// Seeded random bytes, and valid bodies cut short or with one byte
    /// changed: every decoder answers `Ok` or `Err`, and never panics.
    #[test]
    fn hostile_bytes_never_panic() {
        let valid: [&[u8]; 6] = [
            br#"{"functions":[[0.7,0.3],[0.5,0.5]],"algorithm":"sb","exclude":[3,9],"capacities":[2,0],"deadline_ms":250,"priority":-1}"#,
            br#"{"functions":[[1,0]],"note":{"a":["\u00e9\\\"x",{"b":[true,false,null]}]}}"#,
            br#"{"op":"update","oid":3,"point":[0.1,0.2]}"#,
            br#"{"op":"insert","point":[0.3,0.7]}"#,
            br#"{"len":2,"pairs":[{"fid":0,"oid":7,"score":0.30000000000000004},{"fid":1,"oid":3,"score":1e-310}],"total_score":0.30000000000000004}"#,
            br#"{"functions":[[]]}"#,
        ];
        let mut state = 0x2545_f491_4f6c_dd1d_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        const JSONISH: &[u8] = b"{}[]:,\"\\ 0123456789.-eEtrufalsn\xc3\xa9\xff";
        let feed = |body: &[u8]| {
            let _ = decode_match_request(body);
            let _ = decode_mutation(body);
            let _ = decode_pairs(body);
            if let Ok(text) = std::str::from_utf8(body) {
                let _ = Json::parse(text);
            }
        };
        for body in valid {
            for cut in 0..=body.len() {
                feed(&body[..cut]);
            }
        }
        for _ in 0..20_000 {
            let mut body = valid[next() as usize % valid.len()].to_vec();
            let at = next() as usize % body.len();
            body[at] = match next() % 2 {
                0 => JSONISH[next() as usize % JSONISH.len()],
                _ => next() as u8,
            };
            feed(&body);
            let random: Vec<u8> = (0..next() % 48)
                .map(|_| JSONISH[next() as usize % JSONISH.len()])
                .collect();
            feed(&random);
            let raw: Vec<u8> = (0..next() % 48).map(|_| next() as u8).collect();
            feed(&raw);
        }
    }
}

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
//!   "deadline_ms": 250,
//!   "priority": 5
//! }
//! ```
//!
//! Only `functions` is required. The server runs SB alone: `algorithm`,
//! if present, must be `"sb"`, and any other value is a `400` naming
//! the field. `capacities` is per *object*, not per
//! function: entry `oid` is how many functions object `oid` may take,
//! and there must be one for every id below the tenant's id bound (a
//! five-object inventory above) — any other length is a `400` whose
//! body names the expected one. The response is [`encode_matching`]:
//! `{"pairs":[{"fid":..,"oid":..,"score":..}],"len":..,"total_score":..}`.
//! Scores cross the wire through [`Json`]'s shortest-round-trip `f64`
//! rendering, so a decoded pair is **bit-identical** to what
//! `Engine::evaluate` produced — the e2e suite asserts exactly that.
//!
//! Decoding is strict where it matters (types, finiteness, ranges) and
//! produces a human-readable message for the `400` body; semantic
//! validation (dimension mismatch, empty sets, weight errors) stays in
//! the engine, which already does it canonically.

//! `POST .../mutate` bodies are a `WireMutation`:
//!
//! ```json
//! {"op": "insert", "point": [0.3, 0.7]}
//! {"op": "remove", "oid": 17}
//! {"op": "update", "oid": 17, "point": [0.4, 0.6]}
//! ```

use mpq_core::json::Json;
use mpq_core::{Matching, Pair};
use mpq_ta::FunctionSet;

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
    /// Queue priority (higher runs first; default 0).
    pub priority: i32,
}

fn field_u64(json: &Json, key: &str) -> Result<Option<u64>, String> {
    match json.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => {
            let n = v
                .as_f64()
                .ok_or_else(|| format!("'{key}' must be a number"))?;
            if !(n.fract() == 0.0 && (0.0..=u64::MAX as f64).contains(&n)) {
                return Err(format!("'{key}' must be a non-negative integer"));
            }
            Ok(Some(n as u64))
        }
    }
}

/// Decode a request body. `Err` carries the message for the `400` body.
pub fn decode_match_request(body: &[u8]) -> Result<WireRequest, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not valid UTF-8".to_string())?;
    let json = Json::parse(text).map_err(|e| format!("invalid JSON: {e}"))?;
    if !matches!(json, Json::Obj(_)) {
        return Err("body must be a JSON object".to_string());
    }

    let rows_json = json
        .get("functions")
        .ok_or_else(|| "missing 'functions'".to_string())?;
    let rows_json = rows_json
        .as_arr()
        .ok_or_else(|| "'functions' must be an array of weight rows".to_string())?;
    if rows_json.is_empty() {
        return Err("'functions' must not be empty".to_string());
    }
    let mut rows = Vec::with_capacity(rows_json.len());
    for (i, row) in rows_json.iter().enumerate() {
        let row = row
            .as_arr()
            .ok_or_else(|| format!("function {i} must be an array of numbers"))?;
        let mut weights = Vec::with_capacity(row.len());
        for w in row {
            weights.push(
                w.as_f64()
                    .ok_or_else(|| format!("function {i} has a non-numeric weight"))?,
            );
        }
        rows.push(weights);
    }
    let dim = rows[0].len();
    let functions = FunctionSet::try_from_rows(dim, &rows)
        .map_err(|(i, e)| format!("function {i} is invalid: {e}"))?;

    // A served request is SB alone. The field stays only to refuse any
    // other value: the decoder ignores unknown fields, so a client asking
    // for "bf" would otherwise be answered by SB without a word.
    match json.get("algorithm") {
        None | Some(Json::Null) => {}
        Some(Json::Str(name)) if name.eq_ignore_ascii_case("sb") => {}
        Some(_) => {
            return Err("'algorithm' must be \"sb\" or absent: the server runs SB \
                        alone (`mpq match --algo` runs the others)"
                .to_string())
        }
    }

    let exclude = match json.get("exclude") {
        None | Some(Json::Null) => Vec::new(),
        Some(v) => {
            let arr = v
                .as_arr()
                .ok_or_else(|| "'exclude' must be an array of object ids".to_string())?;
            let mut oids = Vec::with_capacity(arr.len());
            for (i, oid) in arr.iter().enumerate() {
                let n = oid
                    .as_f64()
                    .filter(|n| n.fract() == 0.0 && *n >= 0.0)
                    .ok_or_else(|| format!("'exclude[{i}]' must be a non-negative integer"))?;
                oids.push(n as u64);
            }
            oids
        }
    };

    let capacities = match json.get("capacities") {
        None | Some(Json::Null) => None,
        Some(v) => {
            let arr = v
                .as_arr()
                .ok_or_else(|| "'capacities' must be an array of counts".to_string())?;
            let mut caps = Vec::with_capacity(arr.len());
            for (i, c) in arr.iter().enumerate() {
                let n = c
                    .as_f64()
                    .filter(|n| n.fract() == 0.0 && (0.0..=u32::MAX as f64).contains(n))
                    .ok_or_else(|| format!("'capacities[{i}]' must be a non-negative integer"))?;
                caps.push(n as u32);
            }
            Some(caps)
        }
    };

    let deadline_ms = field_u64(&json, "deadline_ms")?;

    let priority = match json.get("priority") {
        None | Some(Json::Null) => 0,
        Some(v) => {
            let n = v
                .as_f64()
                .filter(|n| n.fract() == 0.0 && (i32::MIN as f64..=i32::MAX as f64).contains(n))
                .ok_or_else(|| "'priority' must be an integer".to_string())?;
            n as i32
        }
    };

    Ok(WireRequest {
        functions,
        exclude,
        capacities,
        deadline_ms,
        priority,
    })
}

/// Encode a matching as the response body.
pub fn encode_matching(m: &Matching) -> Json {
    Json::obj([
        (
            "pairs",
            Json::Arr(
                m.pairs()
                    .iter()
                    .map(|p| {
                        Json::obj([
                            ("fid", Json::Num(p.fid as f64)),
                            ("oid", Json::Num(p.oid as f64)),
                            ("score", Json::Num(p.score)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("len", Json::Num(m.len() as f64)),
        ("total_score", Json::Num(m.total_score())),
    ])
}

/// Decode the pairs from a response body (the client side of
/// [`encode_matching`]). Returns `(fid, oid, score)` triples in wire
/// order.
pub fn decode_pairs(body: &[u8]) -> Result<Vec<Pair>, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not valid UTF-8".to_string())?;
    let json = Json::parse(text).map_err(|e| format!("invalid JSON: {e}"))?;
    let arr = json
        .get("pairs")
        .and_then(|p| p.as_arr())
        .ok_or_else(|| "missing 'pairs' array".to_string())?;
    let mut pairs = Vec::with_capacity(arr.len());
    for (i, p) in arr.iter().enumerate() {
        let fid = p
            .get("fid")
            .and_then(|v| v.as_f64())
            .ok_or_else(|| format!("pair {i} missing 'fid'"))? as u32;
        let oid = p
            .get("oid")
            .and_then(|v| v.as_f64())
            .ok_or_else(|| format!("pair {i} missing 'oid'"))? as u64;
        let score = p
            .get("score")
            .and_then(|v| v.as_f64())
            .ok_or_else(|| format!("pair {i} missing 'score'"))?;
        pairs.push(Pair { fid, oid, score });
    }
    Ok(pairs)
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

fn field_point(json: &Json) -> Result<Vec<f64>, String> {
    let arr = json
        .get("point")
        .and_then(|p| p.as_arr())
        .ok_or_else(|| "'point' must be an array of numbers".to_string())?;
    if arr.is_empty() {
        return Err("'point' must not be empty".to_string());
    }
    let mut point = Vec::with_capacity(arr.len());
    for (i, v) in arr.iter().enumerate() {
        let x = v
            .as_f64()
            .filter(|x| x.is_finite())
            .ok_or_else(|| format!("'point[{i}]' must be a finite number"))?;
        point.push(x);
    }
    Ok(point)
}

/// Decode a mutation body. `Err` carries the message for the `400` body.
pub(crate) fn decode_mutation(body: &[u8]) -> Result<WireMutation, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not valid UTF-8".to_string())?;
    let json = Json::parse(text).map_err(|e| format!("invalid JSON: {e}"))?;
    if !matches!(json, Json::Obj(_)) {
        return Err("body must be a JSON object".to_string());
    }
    let op = json
        .get("op")
        .and_then(|v| v.as_str())
        .ok_or_else(|| "'op' must be one of \"insert\", \"remove\", \"update\"".to_string())?;
    let oid = || field_u64(&json, "oid")?.ok_or_else(|| format!("'{op}' requires an 'oid'"));
    match op {
        "insert" => Ok(WireMutation::Insert(field_point(&json)?)),
        "remove" => Ok(WireMutation::Remove(oid()?)),
        "update" => Ok(WireMutation::Update(oid()?, field_point(&json)?)),
        other => Err(format!("unknown op {other:?}")),
    }
}

/// Encode a successful mutation's ack:
/// `{"ok":true,"oid":..,"inventory_version":..}` (`oid` only for
/// inserts).
pub(crate) fn encode_mutation_ack(oid: Option<u64>, inventory_version: u64) -> Json {
    let mut fields = vec![("ok", Json::Bool(true))];
    if let Some(oid) = oid {
        fields.push(("oid", Json::Num(oid as f64)));
    }
    fields.push(("inventory_version", Json::Num(inventory_version as f64)));
    Json::obj(fields)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decodes_a_minimal_request() {
        let req = decode_match_request(br#"{"functions":[[0.7,0.3],[0.5,0.5]]}"#).unwrap();
        assert_eq!(req.functions.len(), 2);
        assert_eq!(req.functions.dim(), 2);
        assert!(req.exclude.is_empty());
        assert!(req.capacities.is_none());
        assert!(req.deadline_ms.is_none());
        assert_eq!(req.priority, 0);
    }

    #[test]
    fn decodes_all_optional_fields() {
        let req = decode_match_request(
            br#"{"functions":[[1.0,0.0]],"algorithm":"sb","exclude":[3,9],
                 "capacities":[2],"deadline_ms":250,"priority":-1}"#,
        )
        .unwrap();
        assert_eq!(req.exclude, vec![3, 9]);
        assert_eq!(req.capacities, Some(vec![2]));
        assert_eq!(req.deadline_ms, Some(250));
        assert_eq!(req.priority, -1);
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
        let with = encode_mutation_ack(Some(5), 9).render();
        assert!(with.contains("\"oid\":5"), "{with}");
        let without = encode_mutation_ack(None, 9).render();
        assert!(!without.contains("oid"), "{without}");
        assert!(without.contains("\"inventory_version\":9"), "{without}");
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
}

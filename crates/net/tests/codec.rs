//! The wire form of a matching, property-tested over seeded random
//! matchings: [`encode_matching`] writes the document with every number
//! in the form a [`Json`] tree renders it and every id as its decimal
//! digits — exactly the bytes the tree renders while the ids are below
//! 1e15 — and [`decode_pairs`] reads every pair back to the bit.
//!
//! Scores are drawn where a number formatter goes wrong: integers at
//! and above 1e15 (where the integer form stops), subnormals, zero,
//! values a few ulps either side of 1, and plain fractions. Object ids
//! are drawn over the whole `u64` range in half of the matchings — far
//! past 2⁵³, the last integer an `f64` carries exactly — and below 1e15
//! in the other half.

use mpq_core::json::Json;
use mpq_core::{Matching, Pair};
use mpq_net::{decode_pairs, encode_matching, MatchingBody};

/// The response as a value tree, keys in any order: the document the
/// encoder writes without building one, for ids below 1e15.
fn tree(m: &Matching) -> Json {
    let pairs = m
        .pairs()
        .iter()
        .map(|p| {
            Json::obj([
                ("fid", Json::Num(p.fid as f64)),
                ("oid", Json::Num(p.oid as f64)),
                ("score", Json::Num(p.score)),
            ])
        })
        .collect();
    Json::obj([
        ("pairs", Json::Arr(pairs)),
        ("len", Json::Num(m.len() as f64)),
        ("total_score", Json::Num(m.total_score())),
    ])
}

/// The response as text: the tree's numbers, the ids' own digits.
fn text(m: &Matching) -> String {
    let num = |x: f64| Json::Num(x).render();
    let pairs: Vec<String> = (m.pairs().iter())
        .map(|p| {
            format!(
                r#"{{"fid":{},"oid":{},"score":{}}}"#,
                p.fid,
                p.oid,
                num(p.score)
            )
        })
        .collect();
    let (len, total) = (m.len(), num(m.total_score()));
    format!(
        r#"{{"len":{len},"pairs":[{}],"total_score":{total}}}"#,
        pairs.join(",")
    )
}

struct Xorshift(u64);

impl Xorshift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn score(&mut self) -> f64 {
        let k = (self.next() % 1_000) as f64;
        match self.next() % 7 {
            0 => 1e15 + k,
            1 => (1e15 * (1.0 + 1e3 * self.unit())).floor(),
            2 => f64::from_bits(1 + self.next() % ((1 << 52) - 1)),
            3 => 0.0,
            4 => 1.0 - k * f64::EPSILON,
            5 => 1.0 + k * f64::EPSILON,
            _ => self.unit() * 4.0,
        }
    }

    /// A random matching, its ids below 1e15 unless `any_id`.
    fn matching(&mut self, any_id: bool) -> Matching {
        let n = self.next() % 120;
        let below = if any_id {
            u64::MAX
        } else {
            1_000_000_000_000_000
        };
        let pairs = (0..n)
            .map(|_| Pair {
                fid: self.next() as u32,
                oid: match self.next() % 4 {
                    0 => below - self.next() % 1_000,
                    _ => self.next() % below,
                },
                score: self.score(),
            })
            .collect();
        Matching::new(pairs, Default::default())
    }
}

#[test]
fn the_encoder_writes_the_trees_bytes_and_decodes_to_the_bit() {
    let mut rng = Xorshift(0x51_7cc1_b727_220a);
    for round in 0..400 {
        let any_id = round % 2 == 0;
        let m = rng.matching(any_id);
        let body: MatchingBody = encode_matching(&m);
        let text = body.render();
        assert_eq!(text, self::text(&m));
        if !any_id {
            assert_eq!(text, tree(&m).render());
        }
        assert!(text.starts_with(r#"{"len":"#), "{text}");
        let back = decode_pairs(text.as_bytes()).unwrap();
        assert_eq!(back.len(), m.len());
        for (a, b) in m.pairs().iter().zip(&back) {
            assert_eq!((a.fid, a.oid), (b.fid, b.oid));
            assert_eq!(
                a.score.to_bits(),
                b.score.to_bits(),
                "{} vs {}",
                a.score,
                b.score
            );
        }
    }
}

#[test]
fn an_empty_matching_is_an_empty_pairs_array() {
    let m = Matching::new(Vec::new(), Default::default());
    assert_eq!(
        encode_matching(&m).render(),
        r#"{"len":0,"pairs":[],"total_score":0}"#
    );
    assert!(decode_pairs(br#"{"len":0,"pairs":[],"total_score":0}"#)
        .unwrap()
        .is_empty());
}

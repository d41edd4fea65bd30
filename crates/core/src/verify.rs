//! Stability verification (Property 1 of the paper).
//!
//! A matching is the greedy stable assignment iff it is maximal
//! (`min(|F|, |O|)` pairs) and admits no *blocking pair*: an unmatched
//! combination `(f, o)` that both sides strictly prefer — under the
//! canonical tie-broken preference order — to their assigned partners.
//! With preferences derived from one global pair order, the stable
//! matching is unique, so this check certifies a matcher's output
//! without re-running a reference algorithm.

use std::collections::HashMap;

use mpq_rtree::PointSet;
use mpq_ta::FunctionSet;

use crate::matching::Pair;

/// Verify that `pairs` is the stable matching of `(objects, functions)`.
///
/// Checks, in order:
/// 1. every pair references an alive function and an existing object,
///    each at most once (1-1 property);
/// 2. stored scores equal the recomputed `f(o)` bit-for-bit;
/// 3. the matching is maximal: `min(|F|, |O|)` pairs;
/// 4. no blocking pair exists.
///
/// Returns a human-readable description of the first violation.
pub fn verify_stable(
    objects: &PointSet,
    functions: &FunctionSet,
    pairs: &[Pair],
) -> Result<(), String> {
    let mut f_match: HashMap<u32, &Pair> = HashMap::with_capacity(pairs.len());
    let mut o_match: HashMap<u64, &Pair> = HashMap::with_capacity(pairs.len());

    for p in pairs {
        if !functions.is_alive(p.fid) {
            return Err(format!("pair uses unknown/removed function {}", p.fid));
        }
        if p.oid as usize >= objects.len() {
            return Err(format!("pair uses unknown object {}", p.oid));
        }
        if f_match.insert(p.fid, p).is_some() {
            return Err(format!("function {} assigned twice", p.fid));
        }
        if o_match.insert(p.oid, p).is_some() {
            return Err(format!("object {} assigned twice", p.oid));
        }
        let expect = functions.score(p.fid, objects.get(p.oid as usize));
        if expect.to_bits() != p.score.to_bits() {
            return Err(format!(
                "pair ({}, {}) stores score {} but f(o) = {}",
                p.fid, p.oid, p.score, expect
            ));
        }
    }

    let budget = functions.n_alive().min(objects.len());
    if pairs.len() != budget {
        return Err(format!(
            "matching has {} pairs but min(|F|, |O|) = {budget}",
            pairs.len()
        ));
    }

    // Blocking-pair scan. `f` strictly prefers `o` to its partner iff the
    // candidate pair beats the assigned pair in the canonical order;
    // an unmatched side prefers anything.
    for (fid, _) in functions.iter_alive() {
        for (i, point) in objects.iter() {
            let oid = i as u64;
            let cand = Pair {
                fid,
                oid,
                score: functions.score(fid, point),
            };
            let f_prefers = match f_match.get(&fid) {
                None => true,
                Some(assigned) => cand.beats(assigned),
            };
            if !f_prefers {
                continue;
            }
            let o_prefers = match o_match.get(&oid) {
                None => true,
                Some(assigned) => cand.beats(assigned),
            };
            if o_prefers {
                return Err(format!(
                    "blocking pair: function {fid} and object {oid} (score {}) both \
                     prefer each other to their assignments",
                    cand.score
                ));
            }
        }
    }
    Ok(())
}

/// Verify *weak* (score-only) stability: no unmatched combination
/// `(f, o)` strictly improves the score of **both** sides.
///
/// This is the notion that survives degenerate inputs — zero weights,
/// where a function is indifferent to an attribute and a dominated
/// object may score as well as the one that dominates it — and the one
/// to ask of a matching whose ids were substituted among duplicates.
/// [`verify_stable`] additionally enforces the canonical id tie-breaks,
/// which every algorithm here honours, duplicate points included (see
/// the duplicate-semantics note in `mpq_skyline::maintain`).
pub fn verify_weakly_stable(
    objects: &PointSet,
    functions: &FunctionSet,
    pairs: &[Pair],
) -> Result<(), String> {
    let mut f_score: HashMap<u32, f64> = HashMap::with_capacity(pairs.len());
    let mut o_score: HashMap<u64, f64> = HashMap::with_capacity(pairs.len());
    for p in pairs {
        if f_score.insert(p.fid, p.score).is_some() {
            return Err(format!("function {} assigned twice", p.fid));
        }
        if o_score.insert(p.oid, p.score).is_some() {
            return Err(format!("object {} assigned twice", p.oid));
        }
    }
    let budget = functions.n_alive().min(objects.len());
    if pairs.len() != budget {
        return Err(format!(
            "matching has {} pairs but min(|F|, |O|) = {budget}",
            pairs.len()
        ));
    }
    for (fid, _) in functions.iter_alive() {
        for (i, point) in objects.iter() {
            let oid = i as u64;
            let s = functions.score(fid, point);
            let f_better = f_score.get(&fid).is_none_or(|&a| s > a);
            let o_better = o_score.get(&oid).is_none_or(|&a| s > a);
            if f_better && o_better {
                return Err(format!(
                    "weak blocking pair: function {fid} and object {oid} (score {s})"
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::reference_matching;

    fn objects(pts: &[[f64; 2]]) -> PointSet {
        let mut ps = PointSet::new(2);
        for p in pts {
            ps.push(p);
        }
        ps
    }

    fn funcs(rows: &[[f64; 2]]) -> FunctionSet {
        FunctionSet::from_rows(2, &rows.iter().map(|r| r.to_vec()).collect::<Vec<_>>())
    }

    #[test]
    fn reference_matching_verifies() {
        let ps = objects(&[[0.9, 0.1], [0.1, 0.9], [0.6, 0.6], [0.2, 0.2]]);
        let fs = funcs(&[[0.8, 0.2], [0.2, 0.8], [0.5, 0.5]]);
        let m = reference_matching(&ps, &fs);
        verify_stable(&ps, &fs, &m).expect("reference must be stable");
    }

    #[test]
    fn swapped_partners_are_blocking() {
        let ps = objects(&[[0.9, 0.9], [0.5, 0.5]]);
        let fs = funcs(&[[0.6, 0.4], [0.4, 0.6]]);
        let good = reference_matching(&ps, &fs);
        // swap the object assignments
        let bad = vec![
            Pair {
                fid: good[0].fid,
                oid: good[1].oid,
                score: fs.score(good[0].fid, ps.get(good[1].oid as usize)),
            },
            Pair {
                fid: good[1].fid,
                oid: good[0].oid,
                score: fs.score(good[1].fid, ps.get(good[0].oid as usize)),
            },
        ];
        let err = verify_stable(&ps, &fs, &bad).unwrap_err();
        assert!(err.contains("blocking pair"), "got: {err}");
    }

    #[test]
    fn incomplete_matching_is_rejected() {
        let ps = objects(&[[0.9, 0.9], [0.5, 0.5]]);
        let fs = funcs(&[[0.6, 0.4], [0.4, 0.6]]);
        let m = reference_matching(&ps, &fs);
        let err = verify_stable(&ps, &fs, &m[..1]).unwrap_err();
        assert!(err.contains("pairs but min"), "got: {err}");
    }

    #[test]
    fn duplicate_assignment_is_rejected() {
        let ps = objects(&[[0.9, 0.9], [0.5, 0.5]]);
        let fs = funcs(&[[0.6, 0.4], [0.4, 0.6]]);
        let m = reference_matching(&ps, &fs);
        let dup = vec![m[0], m[0]];
        let err = verify_stable(&ps, &fs, &dup).unwrap_err();
        assert!(err.contains("assigned twice"), "got: {err}");
    }

    #[test]
    fn wrong_score_is_rejected() {
        let ps = objects(&[[0.9, 0.9]]);
        let fs = funcs(&[[0.5, 0.5]]);
        let bad = vec![Pair {
            fid: 0,
            oid: 0,
            score: 0.123,
        }];
        let err = verify_stable(&ps, &fs, &bad).unwrap_err();
        assert!(err.contains("stores score"), "got: {err}");
    }

    #[test]
    fn weak_verifier_accepts_duplicate_substitution() {
        // two duplicate objects; assigning either is weakly stable, but
        // only the smaller id passes the canonical verifier
        let ps = objects(&[[0.8, 0.8], [0.8, 0.8]]);
        let fs = funcs(&[[0.5, 0.5]]);
        let canonical = vec![Pair {
            fid: 0,
            oid: 0,
            score: fs.score(0, ps.get(0)),
        }];
        let substituted = vec![Pair {
            fid: 0,
            oid: 1,
            score: fs.score(0, ps.get(1)),
        }];
        verify_stable(&ps, &fs, &canonical).unwrap();
        verify_weakly_stable(&ps, &fs, &canonical).unwrap();
        assert!(verify_stable(&ps, &fs, &substituted).is_err());
        verify_weakly_stable(&ps, &fs, &substituted).unwrap();
    }

    #[test]
    fn weak_verifier_rejects_score_blocking() {
        let ps = objects(&[[0.9, 0.9], [0.2, 0.2]]);
        let fs = funcs(&[[0.5, 0.5]]);
        let bad = vec![Pair {
            fid: 0,
            oid: 1,
            score: fs.score(0, ps.get(1)),
        }];
        let err = verify_weakly_stable(&ps, &fs, &bad).unwrap_err();
        assert!(err.contains("weak blocking"), "got: {err}");
    }

    #[test]
    fn tie_heavy_reference_still_verifies() {
        // all scores identical: stability must hold via id tie-breaks
        let ps = objects(&[[0.5, 0.5], [0.5, 0.5], [0.5, 0.5]]);
        let fs = funcs(&[[0.5, 0.5], [0.5, 0.5]]);
        let m = reference_matching(&ps, &fs);
        verify_stable(&ps, &fs, &m).expect("tie-broken matching must be stable");
        // and the canonical assignment is (f0,o0), (f1,o1)
        assert_eq!((m[0].fid, m[0].oid), (0, 0));
        assert_eq!((m[1].fid, m[1].oid), (1, 1));
    }
}

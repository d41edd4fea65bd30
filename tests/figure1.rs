//! The worked example of Figure 1 in the paper, encoded as a test.
//!
//! Thirteen 2-D objects `a..m` and two linear preference functions. The
//! paper walks through the SB algorithm: the initial skyline is
//! `{a, e}`; the first reported stable pair is `(f1, e)`; the skyline is
//! then updated to `{a, c, d, i}`; and the second (final) pair is
//! `(f2, d)`.
//!
//! The figure gives the geometry qualitatively; the coordinates below
//! are chosen to satisfy every relation the text states.

use mpq::core::{Algorithm, Engine};
use mpq::rtree::{PointSet, RTree, RTreeParams};
use mpq::skyline::SkylineMaintainer;
use mpq::ta::FunctionSet;

const A: u64 = 0;
const C: u64 = 2;
const D: u64 = 3;
const E: u64 = 4;

fn objects() -> PointSet {
    let pts: [[f64; 2]; 13] = [
        [0.15, 0.90], // a: skyline
        [0.10, 0.80], // b: dominated by a
        [0.30, 0.72], // c: dominated only by e
        [0.50, 0.70], // d: dominated only by e
        [0.70, 0.75], // e: skyline, top-1 of both functions
        [0.45, 0.60], // f: dominated by d
        [0.10, 0.60], // g: dominated by a
        [0.25, 0.55], // h: dominated by c
        [0.65, 0.50], // i: dominated only by e
        [0.60, 0.40], // j: dominated by i
        [0.50, 0.30], // k: dominated by i
        [0.35, 0.20], // l: dominated by i
        [0.20, 0.10], // m: dominated by i
    ];
    let mut ps = PointSet::new(2);
    for p in &pts {
        ps.push(p);
    }
    ps
}

fn functions() -> FunctionSet {
    FunctionSet::from_rows(2, &[vec![0.3, 0.7], vec![0.5, 0.5]])
}

#[test]
fn both_functions_rank_e_first() {
    let fs = functions();
    let ps = objects();
    for fid in 0..2 {
        let best = (0..ps.len())
            .max_by(|&a, &b| {
                fs.score(fid, ps.get(a))
                    .total_cmp(&fs.score(fid, ps.get(b)))
            })
            .unwrap() as u64;
        assert_eq!(best, E, "e is the top-1 object of f{}", fid + 1);
    }
}

#[test]
fn initial_skyline_is_a_and_e() {
    let tree = RTree::bulk_load(&objects(), RTreeParams::default());
    let sky = SkylineMaintainer::build(&tree);
    let mut ids: Vec<u64> = sky.iter().map(|e| e.oid).collect();
    ids.sort_unstable();
    assert_eq!(ids, vec![A, E]);
}

#[test]
fn removing_e_updates_skyline_to_a_c_d_i() {
    let tree = RTree::bulk_load(&objects(), RTreeParams::default());
    let mut sky = SkylineMaintainer::build(&tree);
    let mut new_ids = sky.remove(&[E], &tree).to_vec();
    let mut ids: Vec<u64> = sky.iter().map(|e| e.oid).collect();
    ids.sort_unstable();
    assert_eq!(ids, vec![A, C, D, 8], "updated skyline of Figure 1(b)");
    // exactly c, d, i enter the skyline
    new_ids.sort_unstable();
    assert_eq!(new_ids, vec![C, D, 8]);
}

#[test]
fn sb_reports_f1_e_then_f2_d() {
    let ps = objects();
    let engine = Engine::builder().objects(&ps).build().unwrap();
    let m = engine.request(&functions()).evaluate().unwrap();
    let pairs = m.pairs();
    assert_eq!(pairs.len(), 2);
    assert_eq!(
        (pairs[0].fid, pairs[0].oid),
        (0, E),
        "first stable pair (f1, e)"
    );
    assert_eq!(
        (pairs[1].fid, pairs[1].oid),
        (1, D),
        "second stable pair (f2, d)"
    );
    assert!((pairs[0].score - 0.735).abs() < 1e-12);
    assert!((pairs[1].score - 0.600).abs() < 1e-12);
}

#[test]
fn all_matchers_agree_on_the_figure() {
    let ps = objects();
    let fs = functions();
    let engine = Engine::builder().objects(&ps).build().unwrap();
    let sb = engine.request(&fs).evaluate().unwrap();
    let bf = engine
        .request(&fs)
        .algorithm(Algorithm::BruteForce)
        .evaluate()
        .unwrap();
    let ch = engine
        .request(&fs)
        .algorithm(Algorithm::Chain)
        .evaluate()
        .unwrap();
    assert_eq!(sb.sorted_pairs(), bf.sorted_pairs());
    assert_eq!(sb.sorted_pairs(), ch.sorted_pairs());
}

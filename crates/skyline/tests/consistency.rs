//! Long-horizon consistency of the maintained skyline against the
//! standalone BBS on realistic distributions: the maintainer must track
//! `compute_skyline_excluding` through hundreds of removals, on the
//! distributions the paper's experiments actually use.
//!
//! Comparisons are id for id: of a group of duplicates both keep the
//! smallest id left (see the duplicate-semantics note in
//! `mpq_skyline::maintain`).

use std::collections::HashSet;

use mpq_datagen::Distribution;
use mpq_rtree::{RTree, RTreeParams};
use mpq_skyline::{compute_skyline_excluding, SkylineMaintainer};

fn params() -> RTreeParams {
    RTreeParams {
        page_size: 1024,
        min_fill_ratio: 0.4,
        buffer_capacity: 8192,
    }
}

fn sorted(ids: impl Iterator<Item = u64>) -> Vec<u64> {
    let mut v: Vec<u64> = ids.collect();
    v.sort_unstable();
    v
}

fn drain_and_compare(dist: Distribution, n: usize, dim: usize, batch: usize, rounds: usize) {
    let ps = dist.generate(n, dim, 4242);
    let tree = RTree::bulk_load(&ps, params());
    let mut m = SkylineMaintainer::build(&tree);
    let mut removed: HashSet<u64> = HashSet::new();

    for round in 0..rounds {
        let victims: Vec<u64> = m.iter().take(batch).map(|e| e.oid).collect();
        if victims.is_empty() {
            break;
        }
        for &v in &victims {
            removed.insert(v);
        }
        m.remove(&victims, &tree);

        let maintained = sorted(m.iter().map(|e| e.oid));
        let recomputed = compute_skyline_excluding(&tree, |o| removed.contains(&o));
        let recomputed = sorted(recomputed.into_iter().map(|(oid, _)| oid));
        assert_eq!(
            maintained,
            recomputed,
            "{} dim={dim}: divergence at round {round}",
            dist.name()
        );
        // every member carries its object's coordinates
        for e in m.iter() {
            assert_eq!(ps.get(e.oid as usize), e.point);
        }
    }
}

#[test]
fn independent_long_drain() {
    drain_and_compare(Distribution::Independent, 6_000, 3, 7, 40);
}

#[test]
fn anti_correlated_long_drain() {
    drain_and_compare(Distribution::AntiCorrelated, 4_000, 3, 9, 30);
}

#[test]
fn correlated_long_drain() {
    // tiny skylines: each removal uncovers deep layers
    drain_and_compare(Distribution::Correlated, 6_000, 3, 2, 40);
}

#[test]
fn clustered_long_drain() {
    drain_and_compare(Distribution::Clustered { clusters: 8 }, 5_000, 3, 5, 30);
}

#[test]
fn zillow_long_drain() {
    // the tie/duplicate-heavy case that exposed the fold-coverage bug
    drain_and_compare(Distribution::Zillow, 5_000, 5, 6, 30);
}

#[test]
fn full_exhaustion_on_small_zillow() {
    let ps = Distribution::Zillow.generate(600, 5, 7);
    let tree = RTree::bulk_load(&ps, params());
    let mut m = SkylineMaintainer::build(&tree);
    let mut drained = 0usize;
    while !m.is_empty() {
        let victims: Vec<u64> = m.iter().take(3).map(|e| e.oid).collect();
        drained += victims.len();
        m.remove(&victims, &tree);
        assert!(drained <= 600);
    }
    assert_eq!(drained, 600, "every object must surface exactly once");
}

//! Online (batched) evaluation: query batches arrive over time against
//! a persistent inventory.
//!
//! The paper's motivating deployment (§I) is a popular reservation site
//! where preference queries arrive *continuously*. The offline model
//! matches one fixed `F` against `O`; the engine keeps the expensive
//! state — the R-tree and the incrementally-maintained skyline with its
//! plists — alive across batches, so each arriving batch only pays for
//! its own best-pair search plus the skyline maintenance its
//! assignments cause. This is precisely where §IV-B's plist design
//! shines: the alternative would re-run BBS for every batch.
//!
//! This module is a thin veneer over [`crate::Engine::session`], which
//! owns the implementation ([`MatchSession`]):
//!
//! ```
//! use mpq_core::Engine;
//! use mpq_ta::FunctionSet;
//! use mpq_rtree::PointSet;
//!
//! let mut inventory = PointSet::new(2);
//! for p in [[0.9_f64, 0.2], [0.2, 0.9], [0.7, 0.7], [0.4, 0.4]] {
//!     inventory.push(&p);
//! }
//! let engine = Engine::builder().objects(&inventory).build().unwrap();
//! let mut session = engine.session();
//!
//! // first customer batch takes the best matches...
//! let b1 = session
//!     .submit(&FunctionSet::from_rows(2, &[vec![0.5, 0.5]]))
//!     .unwrap();
//! assert_eq!(b1.pairs()[0].oid, 2); // (0.7, 0.7) wins for balanced weights
//!
//! // ...the next batch sees only what is left
//! let b2 = session
//!     .submit(&FunctionSet::from_rows(2, &[vec![0.5, 0.5]]))
//!     .unwrap();
//! assert_ne!(b2.pairs()[0].oid, 2);
//! assert_eq!(session.objects_remaining(), 2);
//! ```
//!
//! Each batch is matched greedily against the *remaining* inventory
//! (earlier batches hold their reservations); within a batch the result
//! is the same stable matching the offline SB computes, which the tests
//! assert against a reference with the consumed objects excluded.

pub use crate::engine::MatchSession;

#[cfg(test)]
mod tests {
    use std::collections::HashSet;

    use crate::engine::Engine;
    use crate::matching::{IndexConfig, Pair};
    use crate::reference::reference_matching_excluding;
    use mpq_datagen::{Distribution, WorkloadBuilder};
    use mpq_ta::FunctionSet;

    fn tiny_index() -> IndexConfig {
        IndexConfig {
            page_size: 256,
            buffer_fraction: 0.1,
            min_buffer_pages: 4,
        }
    }

    fn engine(objects: &mpq_rtree::PointSet) -> Engine {
        Engine::builder()
            .index(tiny_index())
            .objects(objects)
            .build()
            .unwrap()
    }

    fn sorted(pairs: &[Pair]) -> Vec<(u32, u64)> {
        let mut v: Vec<(u32, u64)> = pairs.iter().map(|p| (p.fid, p.oid)).collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn single_batch_equals_offline_sb() {
        let w = WorkloadBuilder::new()
            .objects(300)
            .functions(40)
            .dim(3)
            .seed(91)
            .build();
        let eng = engine(&w.objects);
        let offline = eng.request(&w.functions).evaluate().unwrap();

        let mut session = eng.session();
        let online = session.submit(&w.functions).unwrap();
        assert_eq!(sorted(online.pairs()), sorted(offline.pairs()));
    }

    #[test]
    fn batches_consume_inventory_sequentially() {
        let w = WorkloadBuilder::new()
            .objects(400)
            .functions(60)
            .dim(2)
            .distribution(Distribution::AntiCorrelated)
            .seed(92)
            .build();
        // split the 60 functions into 3 batches of 20
        let rows: Vec<Vec<f64>> = w
            .functions
            .iter_alive()
            .map(|(_, weights)| weights.to_vec())
            .collect();
        let batches: Vec<FunctionSet> = rows
            .chunks(20)
            .map(|c| FunctionSet::from_rows(2, c))
            .collect();

        let eng = engine(&w.objects);
        let mut session = eng.session();
        let mut consumed: HashSet<u64> = HashSet::new();
        for batch in &batches {
            let got = session.submit(batch).unwrap();
            // ground truth: reference matching over the remaining objects
            let expect =
                reference_matching_excluding(&w.objects, batch, &|o| consumed.contains(&o));
            assert_eq!(sorted(got.pairs()), sorted(&expect));
            for p in got.pairs() {
                assert!(consumed.insert(p.oid), "object reserved twice");
            }
        }
        assert_eq!(consumed.len(), 60);
        assert_eq!(session.objects_remaining(), 340);
        assert_eq!(session.batches_processed(), 3);
    }

    #[test]
    fn inventory_exhaustion_across_batches() {
        let w = WorkloadBuilder::new()
            .objects(15)
            .functions(30)
            .dim(2)
            .seed(93)
            .build();
        let rows: Vec<Vec<f64>> = w
            .functions
            .iter_alive()
            .map(|(_, weights)| weights.to_vec())
            .collect();
        let eng = engine(&w.objects);
        let mut session = eng.session();
        let first = session
            .submit(&FunctionSet::from_rows(2, &rows[..10]))
            .unwrap();
        assert_eq!(first.len(), 10);
        let second = session
            .submit(&FunctionSet::from_rows(2, &rows[10..]))
            .unwrap();
        assert_eq!(second.len(), 5, "only 5 objects remain for 20 users");
        assert_eq!(session.objects_remaining(), 0);
        let third = session
            .submit(&FunctionSet::from_rows(2, &rows[..3]))
            .unwrap();
        assert!(third.is_empty(), "an empty inventory matches nobody");
    }

    #[test]
    fn remaining_count_survives_a_concurrent_removal() {
        let w = WorkloadBuilder::new()
            .objects(15)
            .functions(10)
            .dim(2)
            .seed(96)
            .build();
        let eng = engine(&w.objects);
        let mut session = eng.session();
        let batch = session.submit(&w.functions).unwrap();
        assert_eq!(batch.len(), 10);
        // The live inventory shrinks below what the session reserved;
        // the session counts against the snapshot it pinned.
        for oid in 0..6 {
            eng.remove_object(oid).unwrap();
        }
        assert_eq!(session.objects_remaining(), 5);
    }

    #[test]
    fn later_batches_cost_less_io_than_the_initial_skyline() {
        let w = WorkloadBuilder::new()
            .objects(5_000)
            .functions(100)
            .dim(3)
            .seed(94)
            .build();
        let rows: Vec<Vec<f64>> = w
            .functions
            .iter_alive()
            .map(|(_, weights)| weights.to_vec())
            .collect();
        let eng = engine(&w.objects);
        let mut session = eng.session();
        let init_io = session.io_stats().logical; // initial BBS

        let b1 = session
            .submit(&FunctionSet::from_rows(3, &rows[..50]))
            .unwrap();
        let b2 = session
            .submit(&FunctionSet::from_rows(3, &rows[50..]))
            .unwrap();
        assert_eq!(b1.len() + b2.len(), 100);
        // each batch's own I/O is small relative to the initial skyline
        // computation: the point of keeping the session alive
        assert!(b1.metrics().io.logical < init_io);
        assert!(b2.metrics().io.logical < init_io);
    }

    #[test]
    fn session_rejects_mismatched_batches() {
        let w = WorkloadBuilder::new()
            .objects(30)
            .functions(5)
            .dim(2)
            .seed(95)
            .build();
        let eng = engine(&w.objects);
        let mut session = eng.session();
        let err = session.submit(&FunctionSet::new(3)).unwrap_err();
        assert_eq!(err, crate::MpqError::EmptyFunctions);
        let err = session
            .submit(&FunctionSet::from_rows(3, &[vec![0.3, 0.3, 0.4]]))
            .unwrap_err();
        assert!(matches!(err, crate::MpqError::DimensionMismatch { .. }));
    }
}

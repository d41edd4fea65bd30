//! The engine's core economic claim, pinned: N requests against one
//! engine cost exactly **one** index build.
//!
//! This lives in its own integration-test binary on purpose: it reads
//! the process-wide [`mpq::core::index_build_count`] counter, and any
//! sibling `#[test]` building trees concurrently would perturb the
//! delta. Keep this file single-test.

use mpq::core::{index_build_count, reference_matching, Algorithm};
use mpq::datagen::WorkloadBuilder;
use mpq::prelude::*;

#[test]
fn index_is_built_exactly_once_per_engine() {
    let w = WorkloadBuilder::new()
        .objects(400)
        .functions(60)
        .dim(3)
        .seed(77)
        .build();

    let before = index_build_count();
    let engine = Engine::builder().objects(&w.objects).build().unwrap();
    assert_eq!(
        index_build_count() - before,
        1,
        "building the engine bulk-loads exactly one tree"
    );

    // Many requests, all algorithms, two threads — still one build.
    let expect: Vec<(u32, u64)> = {
        let mut v: Vec<(u32, u64)> = reference_matching(&w.objects, &w.functions)
            .iter()
            .map(|p| (p.fid, p.oid))
            .collect();
        v.sort_unstable();
        v
    };
    std::thread::scope(|scope| {
        for _ in 0..2 {
            scope.spawn(|| {
                for algo in [Algorithm::Sb, Algorithm::BruteForce, Algorithm::Chain] {
                    let m = engine
                        .request(&w.functions)
                        .algorithm(algo)
                        .evaluate()
                        .unwrap();
                    let mut got: Vec<(u32, u64)> =
                        m.pairs().iter().map(|p| (p.fid, p.oid)).collect();
                    got.sort_unstable();
                    assert_eq!(got, expect);
                }
            });
        }
    });
    // a progressive stream, reloaded with a second batch, shares the
    // index too
    let mut stream = engine.stream(&w.functions).unwrap();
    let _ = stream.by_ref().count();
    stream.load(&w.functions).unwrap();
    let _ = stream.count();

    assert_eq!(
        index_build_count() - before,
        1,
        "8 evaluations + 1 stream and its reload must not rebuild the index"
    );
}

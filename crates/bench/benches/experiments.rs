//! Criterion bench regenerating every experiment of the quick preset, one
//! bench function per experiment id in the `experiments` group.
//!
//! The first iteration pays the transistor-level calibration; the shared
//! evaluator caches it for subsequent iterations, so the reported time is
//! the marginal cost of regenerating the artefact.

use criterion::{criterion_group, criterion_main, Criterion};
use ftcam_bench::run_quick;
use ftcam_core::experiments::ALL_IDS;
use ftcam_core::Evaluator;

fn bench(c: &mut Criterion) {
    let eval = Evaluator::standard();
    let mut group = c.benchmark_group("experiments");
    group.sample_size(10);
    for id in ALL_IDS {
        group.bench_function(id, |b| b.iter(|| run_quick(&eval, id)));
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);

//! Micro-benchmarks of the incremental-assembly Newton hot path, isolated
//! on a single FeFET row so the solver dominates wall-clock time. Three
//! axes are compared:
//!
//! * the full hot path vs. the reference full-restamp configuration
//!   (`HotPath::legacy()`; same search, same loop);
//! * fixed vs. adaptive time stepping (the hot path must pay off in both,
//!   since adaptive runs change `dt` and invalidate cached factors);
//! * a transient word write, hot vs. reference, whose long programming
//!   pulses are the steady-state regime incremental assembly and LU reuse
//!   target.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use ftcam_cells::{
    DesignKind, HotPath, NewtonSettings, RowTestbench, SearchTiming, StepControl, WriteTiming,
};
use ftcam_devices::TechCard;
use ftcam_workloads::TernaryWord;

const WIDTH: usize = 16;

fn programmed_row(hot_path: HotPath, stored: &TernaryWord) -> RowTestbench {
    let mut row = RowTestbench::new(
        DesignKind::FeFet2T.instantiate(),
        TechCard::hp45(),
        Default::default(),
        WIDTH,
    )
    .expect("testbench builds");
    row.set_newton_settings(NewtonSettings::new().with_hot_path(hot_path));
    row.program_word(stored).expect("programs");
    row
}

fn bench_hotpath_layers(c: &mut Criterion) {
    let stored: TernaryWord = "1011011010110110".parse().expect("valid word");
    let miss = stored.with_spread_mismatches(4);
    let timing = SearchTiming::default();
    let mut group = c.benchmark_group("solver_hotpath_search_w16");
    group.sample_size(10);
    for (name, hot_path) in [("hot", HotPath::default()), ("legacy", HotPath::legacy())] {
        group.bench_function(name, |b| {
            b.iter_batched(
                || programmed_row(hot_path, &stored),
                |mut row| row.search(&miss, &timing).expect("search runs"),
                BatchSize::LargeInput,
            )
        });
    }
    group.finish();
}

fn bench_hotpath_stepping(c: &mut Criterion) {
    let stored: TernaryWord = "1011011010110110".parse().expect("valid word");
    let miss = stored.with_spread_mismatches(4);
    let mut group = c.benchmark_group("solver_hotpath_stepping_w16");
    group.sample_size(10);
    let timings = [
        ("fixed", SearchTiming::default()),
        (
            "adaptive",
            SearchTiming::default().with_step_control(StepControl::adaptive()),
        ),
    ];
    for (name, timing) in timings {
        group.bench_function(name, |b| {
            b.iter_batched(
                || programmed_row(HotPath::default(), &stored),
                |mut row| row.search(&miss, &timing).expect("search runs"),
                BatchSize::LargeInput,
            )
        });
    }
    group.finish();
}

fn bench_hotpath_write(c: &mut Criterion) {
    let stored: TernaryWord = "1011011010110110".parse().expect("valid word");
    let target = stored.with_spread_mismatches(4);
    let timing = WriteTiming::default();
    let mut group = c.benchmark_group("solver_hotpath_write_w16");
    group.sample_size(10);
    for (name, hot_path) in [("hot", HotPath::default()), ("legacy", HotPath::legacy())] {
        group.bench_function(name, |b| {
            b.iter_batched(
                || programmed_row(hot_path, &stored),
                |mut row| row.write_word(&target, &timing).expect("write runs"),
                BatchSize::LargeInput,
            )
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_hotpath_layers,
    bench_hotpath_stepping,
    bench_hotpath_write
);
criterion_main!(benches);

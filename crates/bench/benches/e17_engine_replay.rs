//! Criterion bench for the e17 engine-replay path on a 64k-row IPv4
//! routing table, one function per layer a replay user waits for: the
//! table and index build, raw bit-plane search, aggregate-metered replay
//! and exact-metered replay. Every timed closure works on an engine built
//! outside it, so replay medians contain no build time.
//!
//! The throughput target recorded in EXPERIMENTS.md — at least one
//! million queries per second single-threaded on the indexed 64k-row
//! table — is printed here directly as queries/sec alongside the
//! criterion medians.
//!
//! ```sh
//! cargo bench -p ftcam-bench --bench e17_engine_replay
//! ```

use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion};
use ftcam_core::Executor;
use ftcam_engine::{pipeline, EngineConfig, Metering, TcamEngine, WorkloadReplay};
use ftcam_workloads::{IpRoutingWorkloadParams, TernaryWord};

const ROWS: usize = 65_536;
const QUERIES: u64 = 4096;
/// Leading queries of the stream the exact replay meters.
const EXACT_QUERIES: usize = 256;

/// The seeded table and query stream every function uses.
fn workload() -> (WorkloadReplay, Vec<TernaryWord>) {
    let replay = WorkloadReplay::ip_routing(&IpRoutingWorkloadParams {
        entries: ROWS,
        queries: QUERIES as usize,
        width: 32,
        ..IpRoutingWorkloadParams::default()
    });
    let queries = replay.queries(0..QUERIES);
    (replay, queries)
}

fn engine(replay: &WorkloadReplay, metering: Metering) -> TcamEngine {
    replay.engine(EngineConfig {
        metering,
        ..EngineConfig::default()
    })
}

fn build_64k_rows(c: &mut Criterion) {
    let (replay, _) = workload();
    let mut group = c.benchmark_group("e17_engine_replay");
    group.sample_size(10);
    group.bench_function("build_64k_rows", |b| {
        b.iter(|| engine(&replay, Metering::Aggregate))
    });
    group.finish();
}

fn search_4096(c: &mut Criterion) {
    let (replay, queries) = workload();
    let engine = engine(&replay, Metering::Aggregate);
    let sweep = || {
        queries
            .iter()
            .filter(|q| engine.search(q).is_some())
            .count()
    };

    // Headline number: single-threaded queries/sec over the whole stream.
    let start = Instant::now();
    let hits = sweep();
    let qps = queries.len() as f64 / start.elapsed().as_secs_f64();
    println!(
        "e17 search throughput: {qps:.0} queries/sec single-threaded \
         ({ROWS} rows, {} queries, {hits} hits, indexed: {})",
        queries.len(),
        engine.is_indexed()
    );

    let mut group = c.benchmark_group("e17_engine_replay");
    group.sample_size(10);
    group.bench_function("search_4096_queries_64k_rows", |b| b.iter(sweep));
    group.finish();
}

fn replay_aggregate_4096(c: &mut Criterion) {
    let (replay, queries) = workload();
    let engine = engine(&replay, Metering::Aggregate);
    let exec = Executor::new(1);
    let mut group = c.benchmark_group("e17_engine_replay");
    group.sample_size(10);
    group.bench_function("replay_aggregate_4096_queries_64k_rows", |b| {
        b.iter(|| pipeline::replay(&engine, &queries, &exec, pipeline::DEFAULT_BATCH))
    });
    group.finish();
}

fn replay_exact_256(c: &mut Criterion) {
    let (replay, queries) = workload();
    let engine = engine(&replay, Metering::Exact);
    let exec = Executor::new(1);
    let mut group = c.benchmark_group("e17_engine_replay");
    group.sample_size(10);
    group.bench_function("replay_exact_256_queries_64k_rows", |b| {
        b.iter(|| {
            pipeline::replay(
                &engine,
                &queries[..EXACT_QUERIES],
                &exec,
                pipeline::DEFAULT_BATCH,
            )
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    build_64k_rows,
    search_4096,
    replay_aggregate_4096,
    replay_exact_256
);
criterion_main!(benches);

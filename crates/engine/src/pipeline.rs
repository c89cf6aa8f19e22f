//! Batched, sharded replay through the `ftcam-core` executor.
//!
//! The stream is processed in batches. Per batch, packing and search-line
//! toggle tracking run serially (toggles are a stream property — each query
//! chains against the previous element of the batch, and the batch's last
//! query carries over to the next batch). The per-shard table scans — the
//! `O(rows)` part — fan out through [`Executor`], one job per shard, and
//! the per-query partial outcomes are merged **in shard order** and
//! recorded **in query order**, so the accumulated [`EngineStats`] are
//! bit-identical to a serial [`crate::ReplaySession`] for every thread
//! count; only `wall_nanos` differs.

use std::convert::Infallible;
use std::time::Instant;

use ftcam_core::Executor;
use ftcam_workloads::TernaryWord;

use crate::engine::{EngineStats, QueryOutcome, TcamEngine};
use crate::query::PackedQuery;

/// Default queries per batch.
pub const DEFAULT_BATCH: usize = 256;

/// Replays `queries` against `engine`, fanning per-shard scans out over
/// `exec`. Returns stats identical (modulo `wall_nanos`) to feeding the
/// same stream through [`TcamEngine::session`].
pub fn replay(
    engine: &TcamEngine,
    queries: &[TernaryWord],
    exec: &Executor,
    batch: usize,
) -> EngineStats {
    let started = Instant::now();
    let batch = batch.max(1);
    let shards = engine.shards();
    let shard_ids: Vec<usize> = (0..shards.len()).collect();
    let mut stats = EngineStats::new(engine.designs());
    let mut prev: Option<PackedQuery> = None;
    let mut base = 0u64;
    for chunk in queries.chunks(batch) {
        // Serial prologue: pack the batch and chain toggles through `prev`
        // and then each query's predecessor in the batch.
        let mut packed: Vec<PackedQuery> = chunk.iter().map(PackedQuery::from_word).collect();
        let toggles: Vec<u32> = std::iter::once(prev.as_ref())
            .chain(packed.iter().map(Some))
            .zip(&packed)
            .map(|(p, q)| q.toggles_from(p))
            .collect();
        // Fan out: one job per shard, each scanning the whole batch.
        let result: Result<Vec<Vec<QueryOutcome>>, Infallible> = exec.run(&shard_ids, |_, &s| {
            let shard = &shards[s];
            Ok(packed
                .iter()
                .enumerate()
                .map(|(j, q)| shard.outcome(q, engine.meter_exactly(base + j as u64)))
                .collect())
        });
        let parts = match result {
            Ok(parts) => parts,
            Err(never) => match never {},
        };
        // Merge shard partials per query (shard order), record (query
        // order) — the same fold order as the serial session.
        for (j, q) in packed.iter().enumerate() {
            let mut merged = QueryOutcome::default();
            for shard_part in &parts {
                merged.merge(&shard_part[j]);
            }
            let index = base + j as u64;
            stats.record(
                &merged,
                q.definite_count(),
                toggles[j],
                engine.is_metered(index),
                engine.designs(),
            );
        }
        base += chunk.len() as u64;
        prev = packed.pop();
    }
    stats.wall_nanos = started.elapsed().as_nanos() as u64;
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::Metering;
    use crate::engine::EngineConfig;
    use ftcam_workloads::TcamTable;

    fn strip_wall(mut s: EngineStats) -> EngineStats {
        s.wall_nanos = 0;
        s
    }

    #[test]
    fn pipeline_equals_session_for_any_thread_and_shard_count() {
        let mut table = TcamTable::new(12);
        for i in 0..500u64 {
            table.push(TernaryWord::prefix(i, 4 + (i % 9) as usize, 12));
        }
        let queries: Vec<TernaryWord> = (0..300u64)
            .map(|i| TernaryWord::from_bits(i.wrapping_mul(2654435761) % 4096, 12))
            .collect();
        for metering in [
            Metering::Exact,
            Metering::Aggregate,
            Metering::Sampled { period: 7 },
        ] {
            for shard_count in [1, 3] {
                let engine = TcamEngine::new(
                    &table,
                    EngineConfig {
                        shards: shard_count,
                        metering,
                        index_min_rows: 64,
                    },
                );
                let mut session = engine.session();
                session.replay(&queries);
                let serial = strip_wall(session.finish());
                for threads in [1, 2, 4] {
                    let exec = Executor::new(threads);
                    let piped = strip_wall(replay(&engine, &queries, &exec, 64));
                    assert_eq!(
                        piped, serial,
                        "metering {metering:?}, {shard_count} shards, {threads} threads"
                    );
                }
            }
        }
    }
}

//! Property tests of the bit-plane kernels at real word widths. The
//! row-major view packs `ceil(W/64)` words per row, so widths 1, 63, 64,
//! 65 and 130 cover one partial word, one full word, and rows of two and
//! three words. Row counts 0, 1, 63, 64, 65 and 200 cover empty tables,
//! partial blocks and several blocks; 2100 rows raise the index stride
//! past `MAX_EXPAND_BITS`, so wildcard-heavy rows land in the index's
//! shared sub-table. Every kernel is checked against the golden
//! `TcamTable`, and the one-scan `first_and_count` against the separate
//! priority and count kernels, on plain tables, on prefix indexes and
//! through index-forced engines.

use ftcam_engine::{
    BitPlaneTable, EngineConfig, EngineStats, Metering, PackedQuery, PrefixIndex, TcamEngine,
};
use ftcam_workloads::{TcamTable, Ternary, TernaryWord};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

const WIDTHS: [usize; 5] = [1, 63, 64, 65, 130];
const ROW_COUNTS: [usize; 7] = [0, 1, 63, 64, 65, 200, 2100];

fn definite(rng: &mut ChaCha8Rng) -> Ternary {
    Ternary::from_bit(rng.gen_bool(0.5))
}

/// A stored row: fully random ternary, prefix-shaped (the index's
/// favourable case), mostly definite, or all-X.
fn row(rng: &mut ChaCha8Rng, width: usize) -> TernaryWord {
    let digits = match rng.gen_range(0..8u32) {
        0..=2 => (0..width)
            .map(|_| match rng.gen_range(0..3u32) {
                0 => Ternary::Zero,
                1 => Ternary::One,
                _ => Ternary::X,
            })
            .collect(),
        3..=5 => {
            let len = rng.gen_range(0..=width);
            (0..width)
                .map(|j| if j < len { definite(rng) } else { Ternary::X })
                .collect()
        }
        6 => (0..width)
            .map(|_| {
                if rng.gen_bool(0.1) {
                    Ternary::X
                } else {
                    definite(rng)
                }
            })
            .collect(),
        _ => vec![Ternary::X; width],
    };
    TernaryWord::new(digits)
}

/// A query: mostly definite, so the index can route it, with the odd `X`.
fn query(rng: &mut ChaCha8Rng, width: usize) -> TernaryWord {
    let p_x = [0.0, 0.05, 0.5][rng.gen_range(0..3usize)];
    TernaryWord::new(
        (0..width)
            .map(|_| {
                if rng.gen_bool(p_x) {
                    Ternary::X
                } else {
                    definite(rng)
                }
            })
            .collect(),
    )
}

/// Golden nearest-Hamming: min mismatch count, ties to lowest index.
fn golden_nearest(t: &TcamTable, q: &TernaryWord) -> Option<(u32, u32)> {
    t.mismatch_profile(q)
        .iter()
        .enumerate()
        .map(|(i, &k)| (k as u32, i as u32))
        .min()
        .map(|(k, i)| (i, k))
}

/// Every `(width, rows)` shape with its table and queries, from `seed`.
fn cases(seed: u64) -> impl Iterator<Item = (TcamTable, Vec<TernaryWord>)> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    WIDTHS
        .iter()
        .flat_map(|&w| ROW_COUNTS.iter().map(move |&r| (w, r)))
        .map(move |(width, rows)| {
            let mut t = TcamTable::new(width);
            t.extend((0..rows).map(|_| row(&mut rng, width)));
            let queries = (0..6).map(|_| query(&mut rng, width)).collect();
            (t, queries)
        })
}

fn strip_wall(mut s: EngineStats) -> EngineStats {
    s.wall_nanos = 0;
    s
}

/// Histogram, sum of mismatches, nearest and `first_and_count` against
/// the golden model, on the plain table and on a prefix index over it.
fn check_kernels(t: &TcamTable, queries: &[TernaryWord]) -> TestCaseResult {
    let (width, rows) = (t.width(), t.len());
    let bp = BitPlaneTable::from_table(t);
    let index = PrefixIndex::build(t, bp.row_ids());
    for q in queries {
        let pq = PackedQuery::from_word(q);
        let mut expect = vec![0u64; width + 1];
        for k in t.mismatch_profile(q) {
            expect[k] += 1;
        }
        let mut hist = vec![0u64; width + 1];
        bp.histogram_into(&pq, &mut hist);
        prop_assert_eq!(&hist, &expect, "histogram, width {} rows {}", width, rows);
        let sum: u64 = hist.iter().enumerate().map(|(k, &c)| k as u64 * c).sum();
        prop_assert_eq!(
            bp.sum_mismatches(&pq),
            sum,
            "sum, width {} rows {}",
            width,
            rows
        );
        prop_assert_eq!(
            bp.nearest(&pq),
            golden_nearest(t, q),
            "nearest, width {} rows {}",
            width,
            rows
        );
        let golden = (t.search(q).map(|i| i as u32), t.search_all(q).len() as u64);
        prop_assert_eq!(
            bp.first_and_count(&pq),
            golden,
            "width {} rows {}",
            width,
            rows
        );
        prop_assert_eq!(
            (bp.first_match(&pq), bp.match_count(&pq)),
            golden,
            "width {} rows {}",
            width,
            rows
        );
        if let Some(idx) = &index {
            let separate = idx.first_match(&pq).zip(idx.match_count(&pq));
            prop_assert_eq!(
                idx.first_and_count(&pq),
                separate,
                "indexed, width {} rows {}",
                width,
                rows
            );
            if let Some(hit) = separate {
                prop_assert_eq!(hit, golden, "indexed, width {} rows {}", width, rows);
            }
        }
    }
    Ok(())
}

/// Aggregate replay through index-forced engines (one routed scan per
/// query) against the unindexed engine and the golden model.
fn check_index_forced_replay(t: &TcamTable, queries: &[TernaryWord]) -> TestCaseResult {
    let replay = |shards, index_min_rows| {
        let engine = TcamEngine::new(
            t,
            EngineConfig {
                shards,
                metering: Metering::Aggregate,
                index_min_rows,
            },
        );
        let mut session = engine.session();
        session.replay(queries);
        strip_wall(session.finish())
    };
    let unindexed = replay(1, usize::MAX);
    let hits = queries.iter().filter(|q| t.search(q).is_some()).count() as u64;
    let matches: u64 = queries.iter().map(|q| t.search_all(q).len() as u64).sum();
    prop_assert_eq!(unindexed.hits, hits);
    prop_assert_eq!(unindexed.total_matches, matches);
    for shards in [1, 2] {
        prop_assert_eq!(
            &replay(shards, 1),
            &unindexed,
            "{} shards, width {} rows {}",
            shards,
            t.width(),
            t.len()
        );
    }
    Ok(())
}

proptest! {
    /// The kernels agree with the golden model at every width and row
    /// count.
    #[test]
    fn kernels_equal_golden_model_at_real_widths(seed in any::<u64>()) {
        for (t, queries) in cases(seed) {
            check_kernels(&t, &queries)?;
        }
    }

    /// Index-forced aggregate replay answers as the full scan does.
    #[test]
    fn index_forced_aggregate_replay_equals_full_scan(seed in any::<u64>()) {
        for (t, queries) in cases(seed) {
            check_index_forced_replay(&t, &queries)?;
        }
    }
}

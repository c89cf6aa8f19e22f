//! Property test: the dedup-ing calibration cache is observably
//! identical to serial recomputation — any interleaving of concurrent
//! mixed-key lookups returns the same calibrations a fresh serial run
//! produces, and the counters always balance.

use std::sync::Barrier;

use ftcam_array::{calibrate_row, CalibrationCache};
use ftcam_cells::{DesignKind, Geometry, SearchTiming};
use ftcam_devices::TechCard;
use proptest::prelude::*;

const KINDS: [DesignKind; 3] = [
    DesignKind::FeFet2T,
    DesignKind::EaLowSwing,
    DesignKind::EaFull,
];
const WIDTHS: [usize; 2] = [2, 4];

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    /// Random key sequences looked up from random thread counts agree
    /// with `calibrate_row` run serially, and the hit/miss/calibration
    /// counters are consistent with the number of distinct keys touched.
    #[test]
    fn concurrent_cache_matches_serial_reference(
        key_picks in proptest::collection::vec((0usize..KINDS.len(), 0usize..WIDTHS.len()), 1..12),
        threads in 1usize..5,
    ) {
        let keys: Vec<(DesignKind, usize)> = key_picks
            .iter()
            .map(|&(k, w)| (KINDS[k], WIDTHS[w]))
            .collect();
        let card = TechCard::hp45();
        let geometry = Geometry::default();
        let timing = SearchTiming::fast();
        let cache = CalibrationCache::new(card.clone(), geometry.clone(), timing.clone());

        // Every thread walks the whole key sequence concurrently.
        let barrier = Barrier::new(threads);
        let all_results = std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    let (barrier, cache, keys) = (&barrier, &cache, &keys);
                    s.spawn(move || {
                        barrier.wait();
                        keys.iter()
                            .map(|&(kind, width)| {
                                cache.get(kind, width).map_err(|e| e.to_string())
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect::<Vec<_>>()
        });

        // Serial reference: recompute each key from scratch. Calibration
        // failures are legitimate cache values (e.g. EaFull at width 2
        // rejects its decision margin) and must round-trip identically.
        for (i, &(kind, width)) in keys.iter().enumerate() {
            let reference =
                calibrate_row(kind, &card, &geometry, &timing, width).map_err(|e| e.to_string());
            for per_thread in &all_results {
                prop_assert_eq!(&per_thread[i], &reference);
            }
        }

        let mut distinct = keys.clone();
        distinct.sort_unstable_by_key(|&(kind, width)| (kind.key(), width));
        distinct.dedup();
        let stats = cache.stats();
        prop_assert_eq!(stats.calibrations, distinct.len() as u64);
        prop_assert_eq!(
            stats.hits + stats.misses,
            (threads * keys.len()) as u64
        );
        prop_assert!(stats.dedup_waits <= stats.misses);
    }
}

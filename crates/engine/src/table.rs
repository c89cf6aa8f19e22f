//! Bit-plane TCAM storage and the branch-free column kernels.
//!
//! Rows are grouped into blocks of 64. For each block a [`PlaneStore`]
//! keeps, per digit column, two `u64` planes: `care` (bit set where the
//! stored digit is definite) and `pattern` (bit set where it is `1`). Bit
//! `r` of the plane word addresses row `block * 64 + r` of the store.
//!
//! A column mismatches a row exactly when both sides are definite and their
//! bits differ, so one `u64` of per-column work resolves 64 rows at once:
//!
//! ```text
//! miss = care_plane & q_care & (pattern_plane ^ q_pattern)
//! ```
//!
//! where `q_care`/`q_pattern` are the query's broadcast masks (all-zeros or
//! all-ones). Searches keep an `alive` mask per block and stop scanning
//! columns as soon as it empties, which mirrors the dominant-case early
//! termination of a real match-line: most rows die within a few digits.
//!
//! Mismatch *counts* (histograms, nearest-Hamming) cannot stop early, so a
//! [`BitPlaneTable`] also keeps a row-major view — per row, `ceil(W/64)`
//! care words then as many pattern words, in the query's compact layout —
//! and counts each row with the same expression applied to whole words
//! followed by a popcount.

use ftcam_workloads::{TcamTable, Ternary};

use crate::query::{mask_bit, mask_words, PackedQuery};

/// Rows per storage block (one `u64` plane word).
pub const BLOCK_ROWS: usize = 64;

/// The lower of two optional global row ids.
#[inline]
pub(crate) fn earlier(a: Option<u32>, b: Option<u32>) -> Option<u32> {
    match (a, b) {
        (Some(x), Some(y)) => Some(x.min(y)),
        (x, y) => x.or(y),
    }
}

/// Bit planes of a row selection: everything the match kernels (priority,
/// count, LPM) read. Index buckets are plane stores; a [`BitPlaneTable`]
/// adds the views only shard-level metering needs.
#[derive(Debug, Clone)]
pub(crate) struct PlaneStore {
    width: usize,
    /// Global row ids, ascending — priority order is preserved.
    row_ids: Vec<u32>,
    /// Per-row wildcard counts (for LPM), parallel to `row_ids`.
    wildcards: Vec<u16>,
    /// `care[blk * width + col]`: definite-digit plane.
    care: Vec<u64>,
    /// `pattern[blk * width + col]`: stored-one plane.
    pattern: Vec<u64>,
}

impl PlaneStore {
    /// Packs the rows of `table` with ids `row_ids` (ascending) into
    /// planes. `visit(slot, col, digit)` sees every packed digit, so a
    /// caller can build further views in the same pass.
    pub(crate) fn pack(
        table: &TcamTable,
        row_ids: Vec<u32>,
        mut visit: impl FnMut(usize, usize, Ternary),
    ) -> Self {
        debug_assert!(row_ids.windows(2).all(|w| w[0] < w[1]));
        let width = table.width();
        let blocks = row_ids.len().div_ceil(BLOCK_ROWS);
        let mut s = Self {
            width,
            wildcards: Vec::with_capacity(row_ids.len()),
            care: vec![0; blocks * width],
            pattern: vec![0; blocks * width],
            row_ids,
        };
        let rows = table.rows();
        for (slot, &gid) in s.row_ids.iter().enumerate() {
            let base = slot / BLOCK_ROWS * width;
            let bit = 1u64 << (slot % BLOCK_ROWS);
            let mut wc = 0u16;
            for (col, &d) in rows[gid as usize].digits().iter().enumerate() {
                match d {
                    Ternary::X => wc += 1,
                    Ternary::Zero => s.care[base + col] |= bit,
                    Ternary::One => {
                        s.care[base + col] |= bit;
                        s.pattern[base + col] |= bit;
                    }
                }
                visit(slot, col, d);
            }
            s.wildcards.push(wc);
        }
        s
    }

    /// Packs a row selection with no further views.
    pub(crate) fn from_row_ids(table: &TcamTable, row_ids: Vec<u32>) -> Self {
        Self::pack(table, row_ids, |_, _, _| {})
    }

    /// Number of stored rows.
    #[inline]
    fn len(&self) -> usize {
        self.row_ids.len()
    }

    /// Valid-row mask for block `blk` (handles the partial last block).
    #[inline]
    fn block_mask(&self, blk: usize) -> u64 {
        let remaining = self.len() - blk * BLOCK_ROWS;
        if remaining >= BLOCK_ROWS {
            !0
        } else {
            (1u64 << remaining) - 1
        }
    }

    /// Number of storage blocks.
    #[inline]
    fn blocks(&self) -> usize {
        self.len().div_ceil(BLOCK_ROWS)
    }

    /// Mask of matching rows within block `blk`.
    #[inline]
    fn match_block(&self, q: &PackedQuery, blk: usize) -> u64 {
        let base = blk * self.width;
        let care = &self.care[base..base + self.width];
        let pattern = &self.pattern[base..base + self.width];
        let mut alive = self.block_mask(blk);
        for ((&c, &p), m) in care
            .iter()
            .zip(pattern)
            .zip(q.column_masks().chunks_exact(2))
        {
            if m[0] == 0 {
                continue;
            }
            alive &= !(c & (p ^ m[1]));
            if alive == 0 {
                break;
            }
        }
        alive
    }

    /// Lowest-priority-index matching row (global id), if any.
    pub(crate) fn first_match(&self, q: &PackedQuery) -> Option<u32> {
        (0..self.blocks()).find_map(|blk| {
            let alive = self.match_block(q, blk);
            (alive != 0).then(|| self.row_ids[blk * BLOCK_ROWS + alive.trailing_zeros() as usize])
        })
    }

    /// Number of matching rows.
    pub(crate) fn match_count(&self, q: &PackedQuery) -> u64 {
        (0..self.blocks())
            .map(|blk| u64::from(self.match_block(q, blk).count_ones()))
            .sum()
    }

    /// [`Self::first_match`] and [`Self::match_count`] from one scan.
    pub(crate) fn first_and_count(&self, q: &PackedQuery) -> (Option<u32>, u64) {
        let (mut first, mut count) = (None, 0u64);
        for blk in 0..self.blocks() {
            let alive = self.match_block(q, blk);
            if alive != 0 && first.is_none() {
                first = Some(self.row_ids[blk * BLOCK_ROWS + alive.trailing_zeros() as usize]);
            }
            count += u64::from(alive.count_ones());
        }
        (first, count)
    }

    /// Longest-prefix match: among matching rows, the one with the fewest
    /// wildcard digits, ties broken by lowest global id. Returns
    /// `(global_id, wildcard_count)`.
    pub(crate) fn lpm(&self, q: &PackedQuery) -> Option<(u32, u16)> {
        let mut best: Option<(u16, u32)> = None;
        for blk in 0..self.blocks() {
            let mut alive = self.match_block(q, blk);
            while alive != 0 {
                let bit = alive.trailing_zeros() as usize;
                alive &= alive - 1;
                let slot = blk * BLOCK_ROWS + bit;
                let key = (self.wildcards[slot], self.row_ids[slot]);
                if best.is_none_or(|b| key < b) {
                    best = Some(key);
                }
            }
        }
        best.map(|(wc, gid)| (gid, wc))
    }
}

/// A TCAM (sub-)table in bit-plane layout, with the row-major view and
/// per-column content counts that metering reads.
///
/// Row handles returned by the kernels are *global* ids: the table keeps the
/// original `TcamTable` index of every stored row, so sub-tables built from
/// a row subset (shards) report ids in the parent table's priority order.
#[derive(Debug, Clone)]
pub struct BitPlaneTable {
    planes: PlaneStore,
    /// Words per row-view mask (`ceil(width / 64)`, at least 1).
    words: usize,
    /// Row-major view: row `slot` occupies `rows[slot * 2 * words..]`,
    /// `words` care words then `words` pattern words.
    rows: Vec<u64>,
    /// Per-column count of rows storing a definite `1`.
    col_ones: Vec<u64>,
    /// Per-column count of rows storing a definite `0`.
    col_zeros: Vec<u64>,
}

impl BitPlaneTable {
    /// Packs every row of `table`.
    pub fn from_table(table: &TcamTable) -> Self {
        Self::from_rows(table, 0..table.len())
    }

    /// Packs the rows of `table` whose indices fall in `range` (ascending).
    pub fn from_rows(table: &TcamTable, range: std::ops::Range<usize>) -> Self {
        Self::from_row_ids(table, range.map(|i| i as u32))
    }

    /// Packs an arbitrary ascending row-id selection from `table`.
    pub fn from_row_ids(table: &TcamTable, ids: impl IntoIterator<Item = u32>) -> Self {
        let row_ids: Vec<u32> = ids.into_iter().collect();
        let width = table.width();
        let words = mask_words(width);
        let mut rows = vec![0u64; row_ids.len() * 2 * words];
        let mut col_ones = vec![0u64; width];
        let mut col_zeros = vec![0u64; width];
        let planes = PlaneStore::pack(table, row_ids, |slot, col, d| {
            let (w, bit) = mask_bit(col);
            let care = slot * 2 * words + w;
            match d {
                Ternary::X => {}
                Ternary::Zero => {
                    rows[care] |= bit;
                    col_zeros[col] += 1;
                }
                Ternary::One => {
                    rows[care] |= bit;
                    rows[care + words] |= bit;
                    col_ones[col] += 1;
                }
            }
        });
        Self {
            planes,
            words,
            rows,
            col_ones,
            col_zeros,
        }
    }

    /// Word width in digits.
    pub fn width(&self) -> usize {
        self.planes.width
    }

    /// Number of stored rows.
    pub fn len(&self) -> usize {
        self.planes.len()
    }

    /// `true` if no rows are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Global row ids in storage (priority) order.
    pub fn row_ids(&self) -> &[u32] {
        &self.planes.row_ids
    }

    /// Lowest-priority-index matching row (global id), if any.
    pub fn first_match(&self, q: &PackedQuery) -> Option<u32> {
        self.planes.first_match(q)
    }

    /// Number of matching rows.
    pub fn match_count(&self, q: &PackedQuery) -> u64 {
        self.planes.match_count(q)
    }

    /// `(first_match, match_count)` from one scan.
    pub fn first_and_count(&self, q: &PackedQuery) -> (Option<u32>, u64) {
        self.planes.first_and_count(q)
    }

    /// Longest-prefix match: among matching rows, the one with the fewest
    /// wildcard digits, ties broken by lowest global id. Returns
    /// `(global_id, wildcard_count)`.
    pub fn lpm(&self, q: &PackedQuery) -> Option<(u32, u16)> {
        self.planes.lpm(q)
    }

    /// Calls `f` with each row's mismatch count against `q`, in storage
    /// order.
    #[inline]
    fn for_each_count(&self, q: &PackedQuery, mut f: impl FnMut(u32)) {
        match (q.care_words(), q.pattern_words()) {
            // Widths up to 64: one care and one pattern word per row. Kept
            // apart because LLVM vectorises the general word loop, which
            // halves the speed of one-word rows.
            (&[qc], &[qp]) => {
                for row in self.rows.chunks_exact(2) {
                    f((row[0] & qc & (row[1] ^ qp)).count_ones());
                }
            }
            (q_care, q_pattern) => {
                for row in self.rows.chunks_exact(2 * self.words) {
                    let (care, pattern) = row.split_at(self.words);
                    f(care
                        .iter()
                        .zip(pattern)
                        .zip(q_care.iter().zip(q_pattern))
                        .map(|((&c, &p), (&qc, &qp))| (c & qc & (p ^ qp)).count_ones())
                        .sum());
                }
            }
        }
    }

    /// Accumulates the per-row mismatch-count histogram for this query into
    /// `hist` (indexed by mismatch count, length `width + 1`).
    pub fn histogram_into(&self, q: &PackedQuery, hist: &mut [u64]) {
        debug_assert!(hist.len() > self.width());
        self.for_each_count(q, |k| hist[k as usize] += 1);
    }

    /// Sum of mismatch counts over all rows in `O(width)` using the
    /// per-column content counts: a definite-`1` query digit mismatches
    /// every stored definite `0` in that column and vice versa.
    pub fn sum_mismatches(&self, q: &PackedQuery) -> u64 {
        self.col_zeros
            .iter()
            .zip(&self.col_ones)
            .zip(q.column_masks().chunks_exact(2))
            .map(|((&zeros, &ones), m)| ((zeros & m[1]) | (ones & !m[1])) & m[0])
            .sum()
    }

    /// Row with the fewest mismatches against `q` (nearest-Hamming query
    /// over the definite digits), ties broken by lowest global id. Returns
    /// `(global_id, mismatch_count)`; `None` only for an empty table.
    pub fn nearest(&self, q: &PackedQuery) -> Option<(u32, u32)> {
        // Storage order is ascending global id, so the first minimum wins.
        let (mut best, mut slot) = (None, 0);
        self.for_each_count(q, |k| {
            if best.is_none_or(|(_, b)| k < b) {
                best = Some((slot, k));
            }
            slot += 1;
        });
        best.map(|(slot, k)| (self.row_ids()[slot], k))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftcam_workloads::TernaryWord;

    fn table(rows: &[&str]) -> TcamTable {
        let mut t = TcamTable::new(rows[0].len());
        for r in rows {
            t.push(r.parse().unwrap());
        }
        t
    }

    fn pq(s: &str) -> PackedQuery {
        PackedQuery::from_word(&s.parse::<TernaryWord>().unwrap())
    }

    #[test]
    fn first_match_agrees_with_golden_model() {
        let t = table(&["1010", "10XX", "XXXX", "0101"]);
        let bp = BitPlaneTable::from_table(&t);
        for q in ["1010", "1011", "0101", "0000", "XXXX", "10XX"] {
            let word: TernaryWord = q.parse().unwrap();
            assert_eq!(
                bp.first_match(&pq(q)),
                t.search(&word).map(|i| i as u32),
                "query {q}"
            );
        }
    }

    #[test]
    fn lpm_prefers_fewest_wildcards_then_lowest_id() {
        let t = table(&["10XX", "1010", "XXXX", "10XX"]);
        let bp = BitPlaneTable::from_table(&t);
        assert_eq!(bp.lpm(&pq("1010")), Some((1, 0)));
        assert_eq!(bp.lpm(&pq("1011")), Some((0, 2)));
        assert_eq!(bp.lpm(&pq("0000")), Some((2, 4)));
    }

    #[test]
    fn histogram_and_sum_agree_with_mismatch_profile() {
        let t = table(&["1010", "10XX", "XXXX", "0101", "1111"]);
        let bp = BitPlaneTable::from_table(&t);
        for q in ["1010", "0101", "1X00", "XXXX"] {
            let word: TernaryWord = q.parse().unwrap();
            let mut expect = vec![0u64; t.width() + 1];
            for k in t.mismatch_profile(&word) {
                expect[k] += 1;
            }
            let mut hist = vec![0u64; t.width() + 1];
            bp.histogram_into(&pq(q), &mut hist);
            assert_eq!(hist, expect, "query {q}");
            let sum: u64 = hist.iter().enumerate().map(|(k, &c)| k as u64 * c).sum();
            assert_eq!(bp.sum_mismatches(&pq(q)), sum, "query {q}");
        }
    }

    #[test]
    fn nearest_finds_min_mismatch_row() {
        let t = table(&["1010", "0101", "111X"]);
        let bp = BitPlaneTable::from_table(&t);
        assert_eq!(bp.nearest(&pq("1110")), Some((2, 0)));
        // Tie at k = 1 between rows 0 and 2: lowest id wins.
        assert_eq!(bp.nearest(&pq("1011")), Some((0, 1)));
        assert_eq!(bp.nearest(&pq("0101")), Some((1, 0)));
        assert_eq!(bp.nearest(&pq("XXXX")), Some((0, 0)));
        assert!(BitPlaneTable::from_table(&TcamTable::new(4))
            .nearest(&pq("0000"))
            .is_none());
    }

    #[test]
    fn partial_blocks_and_sub_tables_report_global_ids() {
        let mut t = TcamTable::new(8);
        for i in 0..100u32 {
            t.push(TernaryWord::from_bits(u64::from(i), 8));
        }
        let shard = BitPlaneTable::from_rows(&t, 70..100);
        let q = PackedQuery::from_word(&TernaryWord::from_bits(85, 8));
        assert_eq!(shard.first_match(&q), Some(85));
        assert_eq!(shard.match_count(&q), 1);
        assert_eq!(shard.first_and_count(&q), (Some(85), 1));
        assert_eq!(shard.len(), 30);
    }
}

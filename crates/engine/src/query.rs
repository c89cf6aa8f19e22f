//! Packed (bitwise) query representation.
//!
//! A ternary query of `W` digits packs into two bitmasks — `care` (digit is
//! definite) and `pattern` (digit is `1`) — plus per-column broadcast masks
//! (`0` or `!0`) that the column kernels consume directly, so the inner
//! match loop is pure `u64` logic with no per-digit branching. All four
//! live in one buffer, so packing a query is one allocation.

use ftcam_workloads::{Ternary, TernaryWord};

/// Words in a compact mask of `width` digits (at least one).
#[inline]
pub(crate) fn mask_words(width: usize) -> usize {
    width.div_ceil(64).max(1)
}

/// Word index and bit of digit `j` in a compact mask.
#[inline]
pub(crate) fn mask_bit(j: usize) -> (usize, u64) {
    (j / 64, 1 << (j % 64))
}

/// A query word packed for the bit-plane kernels.
///
/// Digit `j` (most significant first, matching [`TernaryWord`] indexing)
/// lands in word `j / 64`, bit `j % 64` of the compact masks, and in slot
/// `j` of the broadcast masks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedQuery {
    width: usize,
    /// Words per compact mask (`ceil(width / 64)`, at least 1).
    words: usize,
    /// `[care; words]`, then `[pattern; words]`, then one
    /// `(care, pattern)` broadcast pair per column. Compact `care` has a
    /// bit set where the digit is definite, compact `pattern` where it is
    /// `1` (a subset of `care`); the broadcasts are `0` or `!0`.
    buf: Vec<u64>,
}

impl PackedQuery {
    /// Packs a ternary word.
    pub fn from_word(word: &TernaryWord) -> Self {
        let width = word.width();
        let words = mask_words(width);
        let mut buf = vec![0u64; 2 * words + 2 * width];
        let (compact, bcast) = buf.split_at_mut(2 * words);
        let (care, pattern) = compact.split_at_mut(words);
        for ((j, &d), b) in word
            .digits()
            .iter()
            .enumerate()
            .zip(bcast.chunks_exact_mut(2))
        {
            let (w, bit) = mask_bit(j);
            match d {
                Ternary::X => {}
                Ternary::Zero => {
                    care[w] |= bit;
                    b[0] = !0;
                }
                Ternary::One => {
                    care[w] |= bit;
                    pattern[w] |= bit;
                    b[0] = !0;
                    b[1] = !0;
                }
            }
        }
        Self { width, words, buf }
    }

    /// Query width in digits.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Compact care mask: bit `j % 64` of word `j / 64` set where digit `j`
    /// is definite.
    #[inline]
    pub(crate) fn care_words(&self) -> &[u64] {
        &self.buf[..self.words]
    }

    /// Compact pattern mask: bit set where the digit is `1`.
    #[inline]
    pub(crate) fn pattern_words(&self) -> &[u64] {
        &self.buf[self.words..2 * self.words]
    }

    /// The `(care, pattern)` broadcast pairs, two words per column.
    #[inline]
    pub(crate) fn column_masks(&self) -> &[u64] {
        &self.buf[2 * self.words..]
    }

    /// Number of definite (non-`X`) digits.
    pub fn definite_count(&self) -> u32 {
        self.care_words().iter().map(|w| w.count_ones()).sum()
    }

    /// Broadcast care mask for column `col` (`0` or `!0`).
    #[inline]
    pub fn care_mask(&self, col: usize) -> u64 {
        self.column_masks()[2 * col]
    }

    /// Broadcast pattern mask for column `col` (`0` or `!0`).
    #[inline]
    pub fn pattern_mask(&self, col: usize) -> u64 {
        self.column_masks()[2 * col + 1]
    }

    /// `true` if column `col` is definite.
    #[inline]
    pub fn is_definite(&self, col: usize) -> bool {
        self.care_mask(col) != 0
    }

    /// `true` if column `col` is a definite `1`.
    #[inline]
    pub fn bit(&self, col: usize) -> bool {
        self.pattern_mask(col) != 0
    }

    /// Search-line pair transitions against the previous query of a stream,
    /// matching [`ftcam_workloads::ToggleStats`] semantics exactly: each
    /// digit whose `(SL, SLB)` drive pair changed counts once, and the
    /// first query of a stream charges every definite digit from the idle
    /// (all-low) state.
    pub fn toggles_from(&self, prev: Option<&PackedQuery>) -> u32 {
        let Some(prev) = prev else {
            return self.definite_count();
        };
        debug_assert_eq!(self.width, prev.width);
        let cur = self.care_words().iter().zip(self.pattern_words());
        let old = prev.care_words().iter().zip(prev.pattern_words());
        cur.zip(old)
            .map(|((&c, &p), (&pc, &pp))| {
                // SL is driven high on a definite 1, SLB on a definite 0.
                let (sl_c, slb_c) = (c & p, c & !p);
                let (sl_p, slb_p) = (pc & pp, pc & !pp);
                ((sl_c ^ sl_p) | (slb_c ^ slb_p)).count_ones()
            })
            .sum()
    }

    /// The value of the top `k` digits (most significant first), or `None`
    /// if any of them is `X` — the prefix-stride index key.
    pub fn top_value(&self, k: usize) -> Option<usize> {
        debug_assert!(k <= self.width);
        let mut value = 0usize;
        for m in self.column_masks()[..2 * k].chunks_exact(2) {
            if m[0] == 0 {
                return None;
            }
            value = (value << 1) | usize::from(m[1] != 0);
        }
        Some(value)
    }
}

impl From<&TernaryWord> for PackedQuery {
    fn from(word: &TernaryWord) -> Self {
        Self::from_word(word)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftcam_workloads::ToggleStats;

    #[test]
    fn packing_round_trips_digit_semantics() {
        let w: TernaryWord = "10X1".parse().unwrap();
        let q = PackedQuery::from_word(&w);
        assert_eq!(q.width(), 4);
        assert_eq!(q.definite_count(), 3);
        assert!(q.is_definite(0) && q.bit(0));
        assert!(q.is_definite(1) && !q.bit(1));
        assert!(!q.is_definite(2));
        assert!(q.is_definite(3) && q.bit(3));
    }

    #[test]
    fn wide_words_span_multiple_mask_words() {
        let mut digits = vec![Ternary::Zero; 100];
        digits[0] = Ternary::One;
        digits[70] = Ternary::One;
        digits[99] = Ternary::X;
        let q = PackedQuery::from_word(&TernaryWord::new(digits));
        assert_eq!(q.definite_count(), 99);
        assert!(q.bit(70));
        assert!(!q.is_definite(99));
    }

    #[test]
    fn toggles_match_golden_toggle_stats() {
        let stream: Vec<TernaryWord> = ["1010", "1010", "0110", "XX10", "1111"]
            .iter()
            .map(|s| s.parse().unwrap())
            .collect();
        let golden = ToggleStats::from_queries(&stream);
        let mut total = 0u64;
        let mut prev: Option<PackedQuery> = None;
        for w in &stream {
            let q = PackedQuery::from_word(w);
            total += u64::from(q.toggles_from(prev.as_ref()));
            prev = Some(q);
        }
        let expect = golden.transitions_per_search() * stream.len() as f64;
        assert_eq!(total as f64, expect);
    }

    #[test]
    fn top_value_extracts_msb_prefix() {
        let q = PackedQuery::from_word(&"1011X".parse().unwrap());
        assert_eq!(q.top_value(0), Some(0));
        assert_eq!(q.top_value(2), Some(0b10));
        assert_eq!(q.top_value(4), Some(0b1011));
        assert_eq!(q.top_value(5), None);
    }
}

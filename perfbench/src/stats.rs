//! Order statistics over timing samples.

/// A percentile is reported only when at least this many samples lie
/// strictly beyond it, so that the tail it summarises is really observed.
pub const MIN_BEYOND: usize = 10;

/// Median of a sample (mean of the middle pair for an even count); 0 for an
/// empty sample.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let sorted = sorted(samples);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
    }
}

/// Smallest value of a sample; 0 for an empty sample.
pub fn min(samples: &[f64]) -> f64 {
    sorted(samples).first().copied().unwrap_or(0.0)
}

/// Nearest-rank `p`-th percentile (`0 < p < 100`), or `None` when fewer than
/// [`MIN_BEYOND`] samples lie beyond it (a p90 needs at least 100 samples).
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    let n = samples.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    if n == 0 || rank == 0 || n - rank.min(n) < MIN_BEYOND {
        return None;
    }
    Some(sorted(samples)[rank - 1])
}

/// `min / median / mean / max over n` of timings in seconds, for a report line.
pub fn summary(samples: &[f64]) -> String {
    let s = sorted(samples);
    match (s.first(), s.last()) {
        (Some(lo), Some(hi)) => format!(
            "min {lo:.4} s / median {:.4} s / mean {:.4} s / max {hi:.4} s over {}",
            median(&s),
            s.iter().sum::<f64>() / s.len() as f64,
            s.len()
        ),
        _ => "no samples".to_string(),
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn min_of_a_sample() {
        assert_eq!(min(&[3.0, 1.5, 2.0]), 1.5);
        assert_eq!(min(&[]), 0.0);
    }

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        let ninety_nine: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(percentile(&ninety_nine, 90.0), None);
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 90.0), Some(90.0));
        assert_eq!(percentile(&hundred, 50.0), Some(50.0));
    }

    #[test]
    fn p50_needs_ten_samples_beyond_it() {
        let small: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(percentile(&small, 50.0), None);
        let enough: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&enough, 50.0), Some(10.0));
    }
}

//! Order statistics for timings: nearest-rank percentiles and the
//! "highest percentile with at least ten samples beyond it" rule.

use std::fmt;

/// Tail percentiles considered for a timing, highest first, as
/// per-mille ranks (999 = p99.9).
pub const TAIL_PER_MILLE: [u64; 5] = [999, 990, 950, 900, 750];

/// Samples a reported tail percentile must leave beyond it.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of the `per_mille` percentile among `n` samples:
/// the smallest rank whose share of samples at or below it reaches the
/// percentile. Integer arithmetic, so p99 of 1000 samples is rank 990.
pub fn rank(n: usize, per_mille: u64) -> usize {
    let n64 = n as u64;
    let r = (per_mille * n64).div_ceil(1000);
    (r.max(1) as usize).min(n.max(1))
}

/// Nearest-rank percentile of an ascending sample.
///
/// # Panics
///
/// Panics on an empty sample.
pub fn percentile(sorted: &[f64], per_mille: u64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[rank(sorted.len(), per_mille) - 1]
}

/// Samples strictly beyond the `per_mille` percentile's rank.
pub fn beyond(n: usize, per_mille: u64) -> usize {
    n - rank(n, per_mille)
}

/// The highest tail percentile that leaves at least [`MIN_BEYOND`]
/// samples beyond it, if any does.
pub fn supported_tail(n: usize) -> Option<u64> {
    TAIL_PER_MILLE.into_iter().find(|&p| n > 0 && beyond(n, p) >= MIN_BEYOND)
}

/// Sorts a copy of `samples` ascending (NaN-free input assumed).
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank median.
///
/// # Panics
///
/// Panics on an empty sample.
pub fn median(samples: &[f64]) -> f64 {
    percentile(&sorted(samples), 500)
}

/// A timing as reported: sample count, median, and the highest tail
/// percentile the sample supports.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Samples.
    pub n: usize,
    /// Nearest-rank median.
    pub median: f64,
    /// `(per_mille, value)` of the supported tail, if any.
    pub tail: Option<(u64, f64)>,
}

impl Summary {
    /// Summarises a sample.
    ///
    /// # Panics
    ///
    /// Panics on an empty sample.
    pub fn of(samples: &[f64]) -> Self {
        let s = sorted(samples);
        let tail = supported_tail(s.len()).map(|p| (p, percentile(&s, p)));
        Self { n: s.len(), median: percentile(&s, 500), tail }
    }
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{\"n\": {}, \"p50\": {}", self.n, self.median)?;
        if let Some((p, v)) = self.tail {
            write!(f, ", \"p{}\": {}", format_per_mille(p), v)?;
        }
        write!(f, "}}")
    }
}

/// `999` → `"99.9"`, `990` → `"99"`.
pub fn format_per_mille(p: u64) -> String {
    if p.is_multiple_of(10) {
        format!("{}", p / 10)
    } else {
        format!("{}.{}", p / 10, p % 10)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_is_exact() {
        let s: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&s, 990), 990.0);
        assert_eq!(percentile(&s, 500), 500.0);
        assert_eq!(percentile(&s, 999), 999.0);
        let small = [3.0, 1.0, 2.0];
        assert_eq!(median(&small), 2.0);
        assert_eq!(percentile(&sorted(&small), 990), 3.0);
        assert_eq!(percentile(&[7.0], 500), 7.0);
        // Rank 1 is the floor, whatever the percentile.
        assert_eq!(rank(10, 1), 1);
    }

    #[test]
    fn ten_beyond_rule() {
        // p99 of 1000 leaves exactly 10 beyond; p99.9 leaves 1.
        assert_eq!(beyond(1000, 990), 10);
        assert_eq!(supported_tail(1000), Some(990));
        assert_eq!(supported_tail(1009), Some(990));
        assert_eq!(supported_tail(999), Some(950));
        assert_eq!(supported_tail(10_000), Some(999));
        assert_eq!(supported_tail(200), Some(950));
        assert_eq!(supported_tail(100), Some(900));
        assert_eq!(supported_tail(40), Some(750));
        assert_eq!(supported_tail(39), None);
        assert_eq!(supported_tail(0), None);
        let s = Summary::of(&(1..=1000).map(f64::from).collect::<Vec<_>>());
        assert_eq!(s.tail, Some((990, 990.0)));
        assert_eq!(s.to_string(), "{\"n\": 1000, \"p50\": 500, \"p99\": 990}");
        assert_eq!(format_per_mille(999), "99.9");
    }
}

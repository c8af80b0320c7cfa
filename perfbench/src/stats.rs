//! Summary statistics with the benchmark's percentile rule.
//!
//! A timing is reported as its median plus the highest percentile (capped
//! at p90) that has at least [`MIN_BEYOND`] samples beyond it, always
//! together with the sample count. Percentiles use the nearest-rank
//! definition on the sorted samples.

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Highest tail percentile the benchmark reports.
pub const MAX_TAIL_PCT: usize = 90;

/// The nearest-rank `pct`-th percentile of ascending `sorted` samples.
pub fn percentile(sorted: &[f64], pct: usize) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let n = sorted.len();
    let rank = (pct * n).div_ceil(100).max(1);
    sorted[rank - 1]
}

/// Samples strictly beyond the nearest-rank `pct`-th percentile.
pub fn beyond(n: usize, pct: usize) -> usize {
    n - (pct * n).div_ceil(100).max(1)
}

/// The highest whole percentile ≤ p90 with at least [`MIN_BEYOND`] samples
/// beyond it, or `None` when `n` is too small for even the median.
pub fn tail_pct(n: usize) -> Option<usize> {
    if n < 2 * MIN_BEYOND {
        return None;
    }
    Some((100 * (n - MIN_BEYOND) / n).min(MAX_TAIL_PCT))
}

/// Median, tail and count of one timing sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    /// The percentile [`tail_pct`] chose; 50 when the sample is too small.
    pub tail_pct: usize,
    pub tail: f64,
}

impl Summary {
    /// Summarizes `samples` (any order). Panics on an empty sample: every
    /// caller measures at least one operation.
    pub fn of(samples: &[f64]) -> Summary {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let p50 = percentile(&sorted, 50);
        let tail_pct = tail_pct(sorted.len()).unwrap_or(50);
        Summary {
            n: sorted.len(),
            p50,
            tail_pct,
            tail: percentile(&sorted, tail_pct),
        }
    }

    /// The percentile `pct` if the sample supports it (≥ [`MIN_BEYOND`]
    /// samples beyond), else `None`.
    pub fn supported(samples: &[f64], pct: usize) -> Option<f64> {
        if samples.is_empty() || beyond(samples.len(), pct) < MIN_BEYOND {
            return None;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        Some(percentile(&sorted, pct))
    }
}

/// The best (smallest) time of each operation type, from `per_type[i]`
/// holding type `i`'s repetitions. Interference from other tenants of a
/// shared host only ever adds time, and on the reference host it comes
/// and goes within seconds, so the best of several repetitions is the
/// stable estimate of an operation's own cost.
pub fn best_of(per_type: &[Vec<f64>]) -> Vec<f64> {
    per_type.iter().map(|v| best(v)).collect()
}

/// The smallest sample (see [`best_of`]).
pub fn best(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Mean of the slowest quarter (at least one) of `per_type` times, e.g.
/// each operation type's best time. The closed loops' tail: the single
/// slowest type rests on one type's few repetitions, while a quarter of
/// the types averages several of them.
pub fn slowest_quarter_mean(per_type: &[f64]) -> f64 {
    let mut sorted = per_type.to_vec();
    sorted.sort_by(|a, b| b.total_cmp(a));
    let k = per_type.len().div_ceil(4).max(1);
    sorted[..k].iter().sum::<f64>() / k as f64
}

/// Median of `samples` (lower median for even counts).
pub fn median(samples: &[f64]) -> f64 {
    Summary::of(samples).p50
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50), 50.0);
        assert_eq!(percentile(&v, 90), 90.0);
        assert_eq!(percentile(&v, 100), 100.0);
        assert_eq!(percentile(&[7.0], 90), 7.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        // 100 samples support p90 exactly: ranks 91..=100 lie beyond it.
        assert_eq!(tail_pct(100), Some(90));
        assert_eq!(beyond(100, 90), 10);
        // Larger samples are capped at p90.
        assert_eq!(tail_pct(5000), Some(90));
        // Smaller samples fall back to the highest supported percentile.
        assert_eq!(tail_pct(40), Some(75));
        assert_eq!(tail_pct(28), Some(64));
        assert_eq!(tail_pct(20), Some(50));
        assert_eq!(tail_pct(19), None);
        for n in 20..2000 {
            let pct = tail_pct(n).unwrap();
            assert!(beyond(n, pct) >= MIN_BEYOND, "n={n} pct={pct}");
            if pct < MAX_TAIL_PCT {
                assert!(
                    beyond(n, pct + 1) < MIN_BEYOND,
                    "n={n}: p{} also fits",
                    pct + 1
                );
            }
        }
    }

    #[test]
    fn best_of_takes_each_types_minimum() {
        let per_type = vec![vec![5.0, 3.0, 4.0], vec![9.0], vec![2.0, 8.0]];
        assert_eq!(best_of(&per_type), vec![3.0, 9.0, 2.0]);
    }

    #[test]
    fn slowest_quarter_rounds_up() {
        // 14 types: the slowest 4 (ceil of 14 / 4).
        let v: Vec<f64> = (1..=14).map(f64::from).collect();
        assert_eq!(slowest_quarter_mean(&v), (14.0 + 13.0 + 12.0 + 11.0) / 4.0);
        assert_eq!(slowest_quarter_mean(&[3.0, 9.0, 1.0]), 9.0);
        assert_eq!(slowest_quarter_mean(&[2.0]), 2.0);
    }

    #[test]
    fn summary_reports_count_and_supported_tail() {
        let v: Vec<f64> = (1..=40).rev().map(f64::from).collect();
        let s = Summary::of(&v);
        assert_eq!(s.n, 40);
        assert_eq!(s.p50, 20.0);
        assert_eq!(s.tail_pct, 75);
        assert_eq!(s.tail, 30.0);
        assert_eq!(Summary::supported(&v, 90), None);
        assert_eq!(Summary::supported(&v, 75), Some(30.0));
    }
}

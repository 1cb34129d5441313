//! Order statistics for latency samples.
//!
//! Percentiles use the nearest-rank rule on integer basis points (1 bp =
//! 0.01%), so the rank of a percentile never depends on how `0.98 * n`
//! rounds in floating point.

/// Percentiles eligible as a tail, in basis points: p90 … p99.99.
pub const TAIL_LADDER_BP: [u32; 6] = [9_000, 9_500, 9_800, 9_900, 9_990, 9_999];

/// Samples a tail percentile must leave beyond it.
pub const MIN_BEYOND: usize = 10;

/// 0-based nearest-rank index of percentile `bp` among `n` sorted samples:
/// `ceil(bp * n / 10000) - 1`, clamped to the sample range.
pub fn rank(n: usize, bp: u32) -> usize {
    assert!(n > 0, "percentile of an empty sample");
    let r = (bp as u64 * n as u64).div_ceil(10_000) as usize;
    r.clamp(1, n) - 1
}

/// Samples strictly above the rank of percentile `bp`.
pub fn beyond(n: usize, bp: u32) -> usize {
    n - 1 - rank(n, bp)
}

/// Percentile `bp` of an ascending-sorted sample.
pub fn percentile(sorted: &[f64], bp: u32) -> f64 {
    sorted[rank(sorted.len(), bp)]
}

/// The tail percentile for `n` samples: the highest ladder entry that still
/// leaves at least [`MIN_BEYOND`] samples beyond it, or `None` when even
/// p90 would not (fewer than 100 samples).
pub fn tail_bp(n: usize) -> Option<u32> {
    TAIL_LADDER_BP
        .iter()
        .rev()
        .copied()
        .find(|&bp| n > 0 && beyond(n, bp) >= MIN_BEYOND)
}

/// Label of a percentile: `p50`, `p98`, `p99.99`.
pub fn label(bp: u32) -> String {
    let whole = bp / 100;
    match bp % 100 {
        0 => format!("p{whole}"),
        frac if frac % 10 == 0 => format!("p{whole}.{}", frac / 10),
        frac => format!("p{whole}.{frac:02}"),
    }
}

/// Sorts a copy of `v` ascending (`total_cmp`, so NaN cannot panic).
pub fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Median of `v` (mean of the two middle samples for even lengths).
pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v);
    let n = s.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

/// Smallest of a non-empty `v`.
pub fn min(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "minimum of an empty sample");
    v.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Element-wise reduction across series: entry `i` is `reduce` of every
/// series' entry `i`, up to the shortest series (series differ in length
/// only when a run broke determinism, which the checks report).
pub fn columnwise(series: &[Vec<f64>], reduce: fn(&[f64]) -> f64) -> Vec<f64> {
    let len = series.iter().map(Vec::len).min().unwrap_or(0);
    (0..len)
        .map(|i| reduce(&series.iter().map(|s| s[i]).collect::<Vec<_>>()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_at_least_ten_samples_beyond() {
        // 900 rounds: p99 leaves only 9 behind it, so the tail is p98.
        assert_eq!(beyond(900, 9_900), 9);
        assert_eq!(beyond(900, 9_800), 18);
        assert_eq!(tail_bp(900), Some(9_800));
        // 119 rounds: p95 leaves 5, p90 leaves 11.
        assert_eq!(tail_bp(119), Some(9_000));
        // The serve burst: one pass of 103,630 requests reaches p99.99.
        assert_eq!(beyond(103_630, 9_999), 10);
        assert_eq!(tail_bp(103_630), Some(9_999));
        // Exactly at the boundary and just below it.
        assert_eq!(tail_bp(100), Some(9_000));
        assert_eq!(tail_bp(99), None);
        assert_eq!(tail_bp(0), None);
    }

    #[test]
    fn tail_rule_holds_for_every_sample_size() {
        for n in 1..5_000 {
            match tail_bp(n) {
                Some(bp) => {
                    assert!(beyond(n, bp) >= MIN_BEYOND, "n={n}");
                    if let Some(&next) = TAIL_LADDER_BP.iter().find(|&&b| b > bp) {
                        assert!(beyond(n, next) < MIN_BEYOND, "n={n}: {next} also qualifies");
                    }
                }
                None => assert!(beyond(n, TAIL_LADDER_BP[0]) < MIN_BEYOND, "n={n}"),
            }
        }
    }

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 5_000), 50.0);
        assert_eq!(percentile(&s, 9_000), 90.0);
        assert_eq!(percentile(&s, 9_999), 100.0);
        assert_eq!(percentile(&[7.0], 9_999), 7.0);
        assert_eq!(rank(3, 0), 0);
    }

    #[test]
    fn labels() {
        assert_eq!(label(5_000), "p50");
        assert_eq!(label(9_800), "p98");
        assert_eq!(label(9_990), "p99.9");
        assert_eq!(label(9_999), "p99.99");
    }

    #[test]
    fn medians() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        let series = [vec![1.0, 30.0], vec![3.0, 10.0], vec![2.0, 20.0]];
        assert_eq!(columnwise(&series, median), vec![2.0, 20.0]);
        assert_eq!(columnwise(&series, min), vec![1.0, 10.0]);
        assert_eq!(columnwise(&[vec![1.0, 5.0], vec![3.0]], median), vec![2.0]);
    }
}

//! The benchmark's own statistics: medians, quartiles, percentiles with a
//! stated tail size, and failure shares.

/// Sorted copy of `xs` (NaN-free inputs; NaNs sort last).
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `xs`; `NaN` for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

/// The `p`-th percentile (0 ≤ p ≤ 100) by linear interpolation between
/// closest ranks; `NaN` for an empty slice.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let v = sorted(xs);
    let rank = (p / 100.0).clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// First and third quartiles, computed exactly as Python's
/// `statistics.quantiles(xs, n=4)` (the default "exclusive" method), so
/// spreads printed here match the ones an external check computes.
/// `None` below two samples.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64)> {
    let ld = xs.len();
    if ld < 2 {
        return None;
    }
    let v = sorted(xs);
    let n = 4usize;
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64
    };
    Some((q(1), q(3)))
}

/// The highest of `candidates` (percentiles, ascending) that leaves at
/// least `tail` samples beyond it out of `n`: the highest percentile the
/// sample count can report steadily.
pub fn highest_steady_percentile(n: usize, candidates: &[f64], tail: usize) -> Option<f64> {
    candidates
        .iter()
        .copied()
        .filter(|p| n as f64 * (1.0 - p / 100.0) >= tail as f64 - 1e-9)
        .fold(None, |best, p| Some(best.map_or(p, |b: f64| b.max(p))))
}

/// Share of attempted operations that failed; 0 when nothing ran.
pub fn failure_share(attempted: u64, failed: u64) -> f64 {
    if attempted == 0 {
        0.0
    } else {
        failed as f64 / attempted as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn percentile_interpolates_between_ranks() {
        let xs: Vec<f64> = (1..=101).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 95.0), 96.0);
        assert_eq!(percentile(&xs, 100.0), 101.0);
        assert_eq!(percentile(&[1.0, 2.0], 50.0), 1.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        // statistics.quantiles([5, 7], n=4) == [4.5, 6.0, 7.5]
        assert_eq!(quartiles(&[7.0, 5.0]), Some((4.5, 7.5)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn steady_percentile_needs_ten_samples_beyond() {
        let ladder = [50.0, 90.0, 95.0, 99.0];
        assert_eq!(highest_steady_percentile(200, &ladder, 10), Some(95.0));
        assert_eq!(highest_steady_percentile(199, &ladder, 10), Some(90.0));
        assert_eq!(highest_steady_percentile(1000, &ladder, 10), Some(99.0));
        assert_eq!(highest_steady_percentile(20, &ladder, 10), Some(50.0));
        assert_eq!(highest_steady_percentile(19, &ladder, 10), None);
    }

    #[test]
    fn failure_share_counts_against_attempted() {
        assert_eq!(failure_share(0, 0), 0.0);
        assert_eq!(failure_share(200, 3), 0.015);
        assert_eq!(failure_share(4, 4), 1.0);
    }
}

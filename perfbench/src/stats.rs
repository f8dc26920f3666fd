//! Order statistics behind every reported metric.

/// Median of `xs` (mean of the two middle values for an even count).
/// Returns 0 for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Geometric mean of strictly positive values; 0 for an empty slice.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    assert!(
        xs.iter().all(|&x| x > 0.0),
        "geometric mean of a non-positive value"
    );
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// A tail percentile together with the evidence behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile actually reported (at most the one asked for).
    pub percentile: u32,
    /// Its value (nearest-rank).
    pub value: f64,
    /// Number of samples it was taken over.
    pub samples: usize,
}

/// Samples that must lie strictly above a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// The highest percentile `p <= target` (nearest-rank) that has at least
/// [`TAIL_MIN_BEYOND`] samples beyond it. `None` when even the median
/// lacks that many (fewer than 20 samples).
pub fn tail(xs: &[f64], target: u32) -> Option<Tail> {
    let n = xs.len();
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    (50..=target.min(100)).rev().find_map(|p| {
        // Nearest rank: the smallest index whose cumulative share reaches p.
        let rank = (p as usize * n).div_ceil(100).max(1);
        (n - rank >= TAIL_MIN_BEYOND).then(|| Tail {
            percentile: p,
            value: v[rank - 1],
            samples: n,
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn geomean_matches_closed_form() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
        assert!((geomean(&[2.0, 8.0, 4.0]) - 4.0).abs() < 1e-9);
        assert!((geomean(&[7.5]) - 7.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "non-positive")]
    fn geomean_rejects_zero() {
        geomean(&[1.0, 0.0]);
    }

    #[test]
    fn tail_takes_p95_when_ten_samples_lie_beyond() {
        // 200 samples 1..=200: p95 is rank 190, leaving exactly 10 above.
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        let t = tail(&xs, 95).unwrap();
        assert_eq!((t.percentile, t.value, t.samples), (95, 190.0, 200));
    }

    #[test]
    fn tail_steps_down_when_p95_is_too_thin() {
        // 100 samples: p95 (rank 95) leaves 5 above; p90 (rank 90)
        // leaves exactly 10.
        let xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let t = tail(&xs, 95).unwrap();
        assert_eq!((t.percentile, t.value), (90, 90.0));
        // 199 samples: p95 is rank 190 (9 above), p94 is rank 188.
        let xs: Vec<f64> = (1..=199).map(f64::from).collect();
        assert_eq!(tail(&xs, 95).unwrap().percentile, 94);
    }

    #[test]
    fn tail_needs_twenty_samples() {
        let xs: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(tail(&xs, 95), None);
        let xs: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&xs, 95).unwrap().percentile, 50);
    }
}

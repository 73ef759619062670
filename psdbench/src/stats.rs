//! Order statistics over raw samples.
//!
//! Every percentile the benchmark reports is a **nearest-rank** pick from
//! the recorded samples themselves — never an interpolation between
//! histogram buckets — so a reported percentile is always one of the
//! observed values and therefore lies within `[min, max]`.

/// Samples that must lie beyond the reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// Sorted copy of `samples` (ascending, NaN-free input assumed).
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank `p`-th percentile (`0 < p <= 100`) of ascending `sorted`:
/// the smallest sample with at least `p`% of all samples at or below it.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    sorted[rank.clamp(1, n) - 1]
}

/// Median (nearest rank) of unsorted `samples`.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(samples: &[f64]) -> f64 {
    nearest_rank(&sorted(samples), 50.0)
}

/// The highest percentile that still has [`TAIL_BEYOND`] samples beyond
/// it: rank `n - TAIL_BEYOND` of `n`, so exactly `TAIL_BEYOND` samples are
/// larger-ranked.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample at that rank.
    pub value: f64,
    /// Its percentile, `100 * rank / n`.
    pub percentile: f64,
    /// Sample count `n`.
    pub samples: usize,
}

/// [`Tail`] of unsorted `samples`; `None` when there are too few samples
/// for any percentile to have [`TAIL_BEYOND`] samples beyond it.
pub fn tail(samples: &[f64]) -> Option<Tail> {
    let n = samples.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let rank = n - TAIL_BEYOND;
    Some(Tail {
        value: sorted(samples)[rank - 1],
        percentile: 100.0 * rank as f64 / n as f64,
        samples: n,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Five samples shaped like the `fleet_batch_1` probe of the committed
    /// bench baseline (5 iterations, min 86 582 578 ns, max 88 040 359 ns,
    /// mean 87 709 382 ns), whose log-bucket interpolation reported a p50
    /// of 100 663 296 ns — above the observed maximum.
    const FLEET_BATCH_1_NS: [f64; 5] =
        [86_582_578.0, 87_900_000.0, 88_000_000.0, 88_023_973.0, 88_040_359.0];

    fn assert_within_range(samples: &[f64]) {
        let s = sorted(samples);
        let (min, max) = (s[0], s[s.len() - 1]);
        for p in [0.1, 1.0, 25.0, 50.0, 75.0, 90.0, 95.0, 99.0, 99.9, 100.0] {
            let v = nearest_rank(&s, p);
            assert!((min..=max).contains(&v), "p{p} = {v} outside [{min}, {max}]");
            assert!(samples.contains(&v), "p{p} = {v} is not an observed sample");
        }
        assert!((min..=max).contains(&median(samples)));
        if let Some(t) = tail(samples) {
            assert!((min..=max).contains(&t.value));
        }
    }

    #[test]
    fn percentiles_stay_within_observed_range() {
        assert_within_range(&FLEET_BATCH_1_NS);
        let p50 = median(&FLEET_BATCH_1_NS);
        assert_eq!(p50, 88_000_000.0);
        assert!(p50 < 100_663_296.0, "the interpolated p50 is not reproduced");
        assert_within_range(&[42.0]);
        assert_within_range(&[3.0, 1.0]);
        let skewed: Vec<f64> = (0..997).map(|i| 1.0 + (i % 7) as f64).chain([1e9; 3]).collect();
        assert_within_range(&skewed);
        let ramp: Vec<f64> = (1..=64).map(|i| (i as f64).powi(3)).collect();
        assert_within_range(&ramp);
    }

    #[test]
    fn nearest_rank_picks_the_textbook_ranks() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(nearest_rank(&s, 50.0), 5.0);
        assert_eq!(nearest_rank(&s, 51.0), 6.0);
        assert_eq!(nearest_rank(&s, 90.0), 9.0);
        assert_eq!(nearest_rank(&s, 100.0), 10.0);
        assert_eq!(nearest_rank(&s, 0.1), 1.0);
    }

    #[test]
    fn tail_leaves_exactly_ten_samples_beyond() {
        assert_eq!(tail(&[1.0; 10]), None);
        let s: Vec<f64> = (1..=55).rev().map(f64::from).collect();
        let t = tail(&s).unwrap();
        assert_eq!(t.value, 45.0);
        assert_eq!(s.iter().filter(|&&v| v > t.value).count(), TAIL_BEYOND);
        assert!((t.percentile - 100.0 * 45.0 / 55.0).abs() < 1e-12);
        assert_eq!(t.samples, 55);
    }
}

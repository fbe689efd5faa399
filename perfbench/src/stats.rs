//! Sample summaries: medians and the reported tail percentile.
//!
//! The tail rule: a timing is reported as its median plus the highest
//! percentile (of p90 and p99) that still has at least ten samples beyond
//! it, together with the sample count. Fewer samples than that give no
//! tail, and the median stands in for it.

/// Samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Candidate tail percentiles, highest first.
const TAILS: [(f64, &str); 2] = [(0.99, "p99"), (0.90, "p90")];

/// Median of `samples` (mean of the middle two for even counts); NaN when
/// empty.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Mean of `samples`; NaN when empty.
pub fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// Nearest-rank rank (1-based) of quantile `q` among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// Samples strictly beyond the nearest-rank `q` percentile of `n` samples.
pub fn beyond(n: usize, q: f64) -> usize {
    n - rank(n, q)
}

/// A summarised timing series.
#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// The highest reportable tail percentile (see the module docs); the
    /// median when no tail percentile has enough samples beyond it.
    pub tail: f64,
    /// Which percentile `tail` is ("p99", "p90" or "p50").
    pub tail_label: &'static str,
}

impl Summary {
    /// Summarises `samples` by the tail rule.
    pub fn of(samples: &[f64]) -> Summary {
        let mut v = samples.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        let p50 = median(&v);
        let (tail, tail_label) = TAILS
            .iter()
            .find(|&&(q, _)| n > 0 && beyond(n, q) >= MIN_BEYOND)
            .map(|&(q, label)| (v[rank(n, q) - 1], label))
            .unwrap_or((p50, "p50"));
        Summary {
            n,
            p50,
            tail,
            tail_label,
        }
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
    fn p99_needs_a_thousand_samples() {
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        let s = Summary::of(&samples);
        assert_eq!(s.tail_label, "p99");
        assert_eq!(s.tail, 990.0);
        assert_eq!(beyond(1000, 0.99), 10);

        let s = Summary::of(&samples[..999]);
        assert_eq!(s.tail_label, "p90", "999 samples leave only 9 beyond p99");
        assert!(beyond(999, 0.90) >= MIN_BEYOND);
    }

    #[test]
    fn p90_needs_a_hundred_samples() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        let s = Summary::of(&samples);
        assert_eq!((s.tail_label, s.tail), ("p90", 90.0));
        let s = Summary::of(&samples[..99]);
        assert_eq!((s.tail_label, s.tail), ("p50", 50.0));
    }

    #[test]
    fn reported_tail_always_has_ten_samples_beyond() {
        for n in 1..3000 {
            let samples: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let s = Summary::of(&samples);
            assert_eq!(s.n, n);
            if s.tail_label != "p50" {
                let above = samples.iter().filter(|&&x| x > s.tail).count();
                assert!(
                    above >= MIN_BEYOND,
                    "n={n}: {above} beyond {}",
                    s.tail_label
                );
            }
        }
    }
}

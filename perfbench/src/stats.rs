//! Order statistics for the benchmark's reports.

/// Percentiles a tail metric may fall back to, highest first.
const LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// A tail percentile together with the evidence behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile actually reported.
    pub percentile: f64,
    /// Its value.
    pub value: f64,
    /// Number of samples.
    pub samples: usize,
    /// Number of samples ranked above the reported one.
    pub beyond: usize,
}

impl Tail {
    /// One line naming the percentile reported for `metric` and its evidence.
    pub fn describe(&self, metric: &str) -> String {
        format!(
            "{metric}: p{} of {} samples ({} beyond)",
            self.percentile, self.samples, self.beyond
        )
    }
}

/// The nearest-rank percentile `p` of sorted samples and the number of
/// samples ranked above it.
fn nearest_rank(sorted: &[f64], p: f64) -> (f64, usize) {
    let n = sorted.len();
    let rank = ((p * n as f64 / 100.0).ceil() as usize).clamp(1, n);
    (sorted[rank - 1], n - rank)
}

/// The highest percentile, up to `wanted`, that has at least ten samples
/// ranked beyond it.  When not even the median has ten beyond it, the median
/// is reported; [`Tail::beyond`] then shows how thin the evidence is.
/// Returns `None` for no samples.
pub fn tail(samples: &[f64], wanted: f64) -> Option<Tail> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let candidates = LADDER.iter().copied().filter(|&p| p <= wanted);
    let mut last = None;
    for p in candidates {
        let (value, beyond) = nearest_rank(&sorted, p);
        let tail = Tail {
            percentile: p,
            value,
            samples: sorted.len(),
            beyond,
        };
        if beyond >= 10 {
            return Some(tail);
        }
        last = Some(tail);
    }
    last
}

/// The nearest-rank percentile `p` (0 gives the minimum).
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no values");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    nearest_rank(&sorted, p).0
}

/// The median (mean of the middle pair for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Each test-run's fastest time over the passes of a run.  Every pass does
/// the same test-runs in the same order, so index `i` of each pass times the
/// same work; host interference only ever adds time to it, so the fastest of
/// several is the steadiest estimate of the work's own time.
pub fn fastest_each(passes: &[&[f64]]) -> Vec<f64> {
    let n = passes.iter().map(|p| p.len()).min().unwrap_or(0);
    (0..n)
        .map(|i| passes.iter().map(|p| p[i]).fold(f64::INFINITY, f64::min))
        .collect()
}

/// The sum of [`fastest_each`]: the fixed work's time on a quiet host.
pub fn fastest_total(passes: &[&[f64]]) -> f64 {
    fastest_each(passes).iter().sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Reversed so the helper has to sort.
        (1..=n).rev().map(|i| i as f64).collect()
    }

    #[test]
    fn tail_picks_the_highest_percentile_with_ten_beyond() {
        let t = tail(&ramp(1000), 99.0).unwrap();
        assert_eq!(
            (t.percentile, t.value, t.samples, t.beyond),
            (99.0, 990.0, 1000, 10)
        );

        // One sample fewer leaves only nine beyond p99, so p95 is reported.
        let t = tail(&ramp(999), 99.0).unwrap();
        assert_eq!((t.percentile, t.samples), (95.0, 999));
        assert!(t.beyond >= 10);

        // Never above the percentile asked for.
        let t = tail(&ramp(100_000), 90.0).unwrap();
        assert_eq!((t.percentile, t.value), (90.0, 90_000.0));

        let t = tail(&ramp(100), 99.0).unwrap();
        assert_eq!((t.percentile, t.value, t.beyond), (90.0, 90.0, 10));
    }

    #[test]
    fn tail_falls_back_to_the_median_on_few_samples() {
        let t = tail(&ramp(7), 99.0).unwrap();
        assert_eq!(
            (t.percentile, t.value, t.samples, t.beyond),
            (50.0, 4.0, 7, 3)
        );
        assert_eq!(tail(&[], 99.0), None);
    }

    #[test]
    fn fastest_takes_each_test_runs_minimum_over_passes() {
        let slow_start = [3.0, 1.0, 1.0];
        let slow_end = [1.0, 2.0, 5.0];
        let passes: [&[f64]; 2] = [&slow_start, &slow_end];
        assert_eq!(fastest_each(&passes), [1.0, 1.0, 1.0]);
        assert_eq!(fastest_total(&passes), 3.0);
        assert_eq!(fastest_total(&[&slow_end]), 8.0);
    }

    #[test]
    fn percentile_by_nearest_rank() {
        let r = ramp(20);
        assert_eq!(percentile(&r, 0.0), 1.0);
        assert_eq!(percentile(&r, 10.0), 2.0);
        assert_eq!(percentile(&r, 25.0), 5.0);
        assert_eq!(percentile(&r, 100.0), 20.0);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}

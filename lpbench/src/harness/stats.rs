//! The one place for the benchmark's summary statistics: median,
//! quartiles, the highest percentile the sample count supports, geomean,
//! and the rule for when a ratio may be printed.

/// Median and quartiles of one set of timings.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct Quartiles {
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Quartiles {
    /// Interquartile range as a share of the median (0 when the median is 0).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Linear interpolation at position `pos` (0-based, fractional) of a
/// sorted, non-empty slice, clamped to its ends.
fn at(sorted: &[f64], pos: f64) -> f64 {
    let pos = pos.clamp(0.0, (sorted.len() - 1) as f64);
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median of `values`.
///
/// # Panics
///
/// Panics on an empty slice: a metric with no samples is a harness bug.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let s = sorted(values);
    at(&s, (s.len() - 1) as f64 / 2.0)
}

/// Quartiles by the "exclusive" method of Python's
/// `statistics.quantiles(values, n=4)` — the method the acceptance
/// criterion is stated in — so a spread computed here equals one computed
/// there. With a single sample all three are that sample.
pub fn quartiles(values: &[f64]) -> Quartiles {
    assert!(!values.is_empty(), "quartiles of no samples");
    let s = sorted(values);
    let n = s.len() as f64;
    let q = |k: f64| at(&s, k * (n + 1.0) / 4.0 - 1.0);
    Quartiles {
        q1: q(1.0),
        median: q(2.0),
        q3: q(3.0),
    }
}

/// The value a timing is reported as: the lower quartile of its repeats.
///
/// On a shared machine interference only ever adds time, in episodes that
/// last from a pass to minutes; measured here, the median of ten passes
/// moves by 10–25 % between a quiet and a disturbed minute while the lower
/// quartile moves about half as much, and on a quiet machine the two agree
/// within 1–2 %. The median and upper quartile are printed beside it.
pub fn quiet(values: &[f64]) -> f64 {
    quartiles(values).q1
}

/// The `p`-th percentile (0..=100), nearest-rank on the sorted samples.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    let s = sorted(values);
    let rank = (p / 100.0 * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// The percentile a tail latency is read at among `n` samples: the
/// highest one, capped at `cap`, that still has at least ten samples
/// beyond it. Fewer than twenty samples have no such tail; theirs is the
/// slowest sample itself (100).
pub fn tail_percentile(n: usize, cap: f64) -> f64 {
    if n < 20 {
        return 100.0;
    }
    // Rounded down to a hundredth so the nearest-rank index never rounds
    // up past the tenth-from-last sample.
    let p = (10_000.0 * (n - 10) as f64 / n as f64).floor() / 100.0;
    p.clamp(50.0, cap)
}

/// Geometric mean of strictly positive values.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geomean of no samples");
    assert!(
        values.iter().all(|v| *v > 0.0),
        "geomean needs positive values: {values:?}"
    );
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// The ratio `num / den` of two sample sets as (low, median, high), where
/// the interval divides opposite quartiles; `None` — do not print it —
/// when that interval straddles 1.0, because then the run cannot tell
/// which side is larger.
pub fn resolved_ratio(num: &[f64], den: &[f64]) -> Option<(f64, f64, f64)> {
    let (n, d) = (quartiles(num), quartiles(den));
    if d.q1 <= 0.0 {
        return None;
    }
    let (lo, mid, hi) = (n.q1 / d.q3, n.median / d.median, n.q3 / d.q1);
    (lo > 1.0 || hi < 1.0).then_some((lo, mid, hi))
}

/// Smallest non-zero difference between consecutive `Instant::now()`
/// readings, in nanoseconds: no op time below a multiple of this means
/// anything.
pub fn timer_floor_ns() -> f64 {
    let mut floor = u128::MAX;
    for _ in 0..20_000 {
        let a = std::time::Instant::now();
        let mut b = std::time::Instant::now();
        while b == a {
            b = std::time::Instant::now();
        }
        floor = floor.min((b - a).as_nanos());
    }
    floor as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let q = quartiles(&v);
        assert!((q.q1 - 2.75).abs() < 1e-12, "{q:?}");
        assert!((q.median - 5.5).abs() < 1e-12);
        assert!((q.q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([10, 20, 30], n=4) == [10, 20, 30]
        let q = quartiles(&[30.0, 10.0, 20.0]);
        assert_eq!((q.q1, q.median, q.q3), (10.0, 20.0, 30.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25], clamped
        // here to the observed range.
        let q = quartiles(&[1.0, 2.0]);
        assert_eq!((q.q1, q.median, q.q3), (1.0, 1.5, 2.0));
        assert!((quartiles(&v).spread() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn quiet_ignores_a_disturbed_minority() {
        let calm = [1.00, 1.01, 0.99, 1.00, 1.02, 1.01, 0.99, 1.00];
        let mut disturbed = calm;
        disturbed[1] = 1.8;
        disturbed[4] = 2.5;
        disturbed[6] = 1.4;
        assert!((quiet(&disturbed) - quiet(&calm)).abs() < 0.011);
        assert!(median(&disturbed) - median(&calm) > 0.004);
        assert_eq!(quiet(&[3.0]), 3.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[5.0], 99.0), 5.0);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(5, 99.0), 100.0);
        assert_eq!(tail_percentile(19, 99.0), 100.0);
        assert_eq!(tail_percentile(20, 99.0), 50.0);
        assert_eq!(tail_percentile(100, 99.0), 90.0);
        assert_eq!(tail_percentile(1000, 99.0), 99.0);
        assert_eq!(tail_percentile(100_000, 99.0), 99.0);
        for n in [40usize, 80, 333, 999] {
            let p = tail_percentile(n, 99.0);
            let beyond = n - (p / 100.0 * n as f64).ceil() as usize;
            assert!(beyond >= 10, "n={n} p={p} beyond={beyond}");
        }
    }

    #[test]
    fn geomean_of_ratios() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[5.0]) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn ratio_straddling_one_is_refused() {
        let a = [1.00, 1.02, 0.98, 1.01, 0.99];
        let b = [1.01, 0.99, 1.00, 1.02, 0.98];
        assert_eq!(resolved_ratio(&a, &b), None);
        let slow = [2.0, 2.1, 1.9, 2.05, 1.95];
        let (lo, mid, hi) = resolved_ratio(&slow, &b).expect("clearly above 1");
        assert!(lo > 1.0 && lo <= mid && mid <= hi, "{lo} {mid} {hi}");
        let (_, mid, hi) = resolved_ratio(&b, &slow).expect("clearly below 1");
        assert!(hi < 1.0 && mid < 1.0);
    }

    #[test]
    fn timer_floor_is_positive_and_small() {
        let f = timer_floor_ns();
        assert!(f > 0.0 && f < 1e6, "{f}");
    }
}

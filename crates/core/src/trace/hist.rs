//! Log-linear histograms: always-on quantile telemetry.

use std::collections::BTreeMap;

use super::JsonWriter;

/// Linear sub-buckets per power-of-two group: 2^4 = 16, which bounds the
/// relative bucket width — and therefore the quantile overestimate — at
/// 1/16 = 6.25%.
const HIST_SUB_BITS: u32 = 4;
const HIST_SUB: u64 = 1 << HIST_SUB_BITS;
/// Group 0 holds the exact values `0..16`; one 16-bucket group per
/// most-significant-bit position 4..=63 covers the rest of `u64`.
const HIST_GROUPS: usize = 64 - HIST_SUB_BITS as usize + 1;
const HIST_BUCKETS: usize = HIST_SUB as usize * HIST_GROUPS;

fn hist_index(v: u64) -> usize {
    if v < HIST_SUB {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros();
    let group = (msb - HIST_SUB_BITS + 1) as usize;
    let sub = ((v >> (msb - HIST_SUB_BITS)) & (HIST_SUB - 1)) as usize;
    group * HIST_SUB as usize + sub
}

/// Inclusive upper edge of bucket `index` (what quantile queries report).
fn hist_upper(index: usize) -> u64 {
    let sub = (index as u64) & (HIST_SUB - 1);
    let group = (index as u64) >> HIST_SUB_BITS;
    if group == 0 {
        return sub;
    }
    let hi = (u128::from(HIST_SUB + sub + 1) << (group - 1)) - 1;
    u64::try_from(hi).unwrap_or(u64::MAX)
}

/// A zero-dependency log-linear (HDR-style) histogram over `u64` values.
///
/// # Bucket scheme
///
/// Values `0..16` get exact unit buckets. Every larger value lands in
/// one of 16 equal-width linear sub-buckets of its power-of-two range
/// `[2^m, 2^(m+1))`, so bucket width is `2^(m-4)` — at most 1/16 of the
/// bucket's lower edge. Fixed size: 976 buckets × 8 bytes ≈ 7.6 KiB.
///
/// # Error bound
///
/// [`Histogram::quantile`] reports the inclusive upper edge of the
/// bucket holding the target rank (clamped to the observed maximum), so
/// it never under-reports, and over-reports by less than one bucket
/// width: the estimate `r` for a true rank value `t` satisfies
/// `t <= r <= t + t/16 + 1` (exact below 16).
#[derive(Clone, Debug)]
pub struct Histogram {
    counts: Vec<u64>,
    count: u64,
    sum: u128,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            counts: vec![0; HIST_BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    /// Record one observation.
    pub fn record(&mut self, v: u64) {
        self.counts[hist_index(v)] += 1;
        self.count += 1;
        self.sum += u128::from(v);
        self.max = self.max.max(v);
    }

    /// Fold `other`'s observations into `self`.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded observations.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Largest recorded observation (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// The `q`-quantile (`q` in `[0, 1]`), within the documented bucket
    /// error; 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((self.count as f64) * q).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                return hist_upper(i).min(self.max);
            }
        }
        self.max
    }

    /// Write the standard summary fields (`count`, `sum`, `max`, `p50`,
    /// `p90`, `p99`) into the currently open [`JsonWriter`] object.
    pub fn write_fields(&self, w: &mut JsonWriter) {
        w.field_u64("count", self.count);
        w.field_u64("sum", u64::try_from(self.sum).unwrap_or(u64::MAX));
        w.field_u64("max", self.max);
        w.field_u64("p50", self.quantile(0.50));
        w.field_u64("p90", self.quantile(0.90));
        w.field_u64("p99", self.quantile(0.99));
    }
}

/// A bounded family of histograms keyed by string (per-op, per-tenant).
/// Once `max_keys` distinct keys exist, further keys fold into `"other"`
/// so a tenant-name flood cannot grow memory without bound.
#[derive(Clone, Debug)]
pub struct HistogramSet {
    map: BTreeMap<String, Histogram>,
    max_keys: usize,
}

impl HistogramSet {
    /// An empty set admitting at most `max_keys` distinct keys.
    pub fn new(max_keys: usize) -> HistogramSet {
        HistogramSet {
            map: BTreeMap::new(),
            max_keys: max_keys.max(1),
        }
    }

    /// Record `v` under `key` (or under `"other"` once full).
    pub fn record(&mut self, key: &str, v: u64) {
        if let Some(h) = self.map.get_mut(key) {
            h.record(v);
            return;
        }
        let key = if self.map.len() >= self.max_keys {
            "other"
        } else {
            key
        };
        self.map.entry(key.to_string()).or_default().record(v);
    }

    /// The keyed histograms, in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.map.iter().map(|(k, h)| (k.as_str(), h))
    }

    /// Write one summary object per key into the currently open
    /// [`JsonWriter`] object.
    pub fn write_fields(&self, w: &mut JsonWriter) {
        for (k, h) in self.iter() {
            w.begin_object_field(k);
            h.write_fields(w);
            w.end_object();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_stay_within_documented_bucket_error() {
        // Property test over a deterministic pseudo-random stream: every
        // quantile estimate must satisfy t <= r <= t + t/16 + 1 against
        // the exact sorted data.
        let mut h = Histogram::new();
        let mut values = Vec::new();
        let mut z = 0x1234_5678_9abc_def0u64;
        for i in 0..5000u64 {
            z = z
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            // Mix magnitudes: exact range, mid-range, and huge values.
            let v = match i % 4 {
                0 => z % 16,
                1 => z % 10_000,
                2 => z % 100_000_000,
                _ => z,
            };
            values.push(v);
            h.record(v);
        }
        values.sort_unstable();
        assert_eq!(h.count(), 5000);
        assert_eq!(h.max(), *values.last().unwrap());
        for q in [0.0, 0.01, 0.25, 0.50, 0.90, 0.99, 0.999, 1.0] {
            let r = h.quantile(q);
            let rank = ((values.len() as f64) * q).ceil().max(1.0) as usize - 1;
            let t = values[rank.min(values.len() - 1)];
            assert!(r >= t, "q={q}: estimate {r} under-reports true {t}");
            let bound = t.saturating_add(t / 16).saturating_add(1);
            assert!(r <= bound, "q={q}: estimate {r} > {t} + 6.25% ({bound})");
        }
        // Exact below 16.
        let mut small = Histogram::new();
        for v in [0u64, 1, 3, 3, 7, 15] {
            small.record(v);
        }
        assert_eq!(small.quantile(0.5), 3);
        assert_eq!(small.quantile(1.0), 15);
        // Merge is a sum of observations.
        let mut merged = Histogram::new();
        merged.merge(&h);
        merged.merge(&small);
        assert_eq!(merged.count(), h.count() + small.count());
        assert_eq!(merged.max(), h.max().max(small.max()));
    }

    #[test]
    fn histogram_set_caps_distinct_keys() {
        let mut s = HistogramSet::new(2);
        s.record("a", 1);
        s.record("b", 2);
        s.record("c", 3); // over the cap: folds into "other"
        s.record("a", 4);
        let keys: Vec<&str> = s.iter().map(|(k, _)| k).collect();
        assert_eq!(keys, ["a", "b", "other"]);
        assert_eq!(s.iter().find(|(k, _)| *k == "a").unwrap().1.count(), 2);
    }
}

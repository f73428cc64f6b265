//! Latency statistics.
//!
//! [`Histogram`] is an HDR-style log-bucketed histogram over `u64`
//! nanosecond values: each power-of-two range is split into a fixed
//! number of sub-buckets, giving a bounded relative error (~1/64 with the
//! default 64 sub-buckets) at any magnitude — exactly what is needed to
//! report honest 99th percentiles over values spanning microseconds to
//! seconds. Counts are kept only up to the highest bucket recorded so
//! far: an empty histogram owns no table, and recording is O(1) and
//! allocation-free once the table has reached the largest value's
//! bucket.

use crate::time::SimDuration;
use std::fmt;

pub(crate) const SUB_BUCKET_BITS: u32 = 6; // 64 sub-buckets per octave → ≤1.6% error
pub(crate) const SUB_BUCKETS: usize = 1 << SUB_BUCKET_BITS;

/// Bucket index of `value` in the shared log-bucketed scheme used by
/// both [`Histogram`] and [`crate::sketch::Sketch`]: exact buckets below
/// `SUB_BUCKETS`, then `SUB_BUCKETS` sub-buckets per power-of-two
/// octave (relative error < 1/64 for values ≥ 64).
pub(crate) fn bucket_index(value: u64) -> usize {
    // Values below SUB_BUCKETS get exact buckets in "octave zero".
    if value < SUB_BUCKETS as u64 {
        return value as usize;
    }
    let msb = 63 - value.leading_zeros(); // >= SUB_BUCKET_BITS
    let octave = msb - SUB_BUCKET_BITS + 1;
    // The SUB_BUCKET_BITS bits just below the most significant bit.
    let sub = (value >> (msb - SUB_BUCKET_BITS)) as usize & (SUB_BUCKETS - 1);
    // octave >= 1 here; layout: [exact 0..64), then octaves.
    (octave as usize) * SUB_BUCKETS + sub
}

/// Representative (lower-bound) value of a bucket index.
pub(crate) fn bucket_value(index: usize) -> u64 {
    let octave = index / SUB_BUCKETS;
    let sub = index % SUB_BUCKETS;
    if octave == 0 {
        return sub as u64;
    }
    let base = 1u64 << (octave as u32 + SUB_BUCKET_BITS - 1);
    base + (sub as u64) * (base >> SUB_BUCKET_BITS)
}

/// Log-bucketed histogram of nanosecond values.
///
/// ```
/// use hl_sim::Histogram;
/// let mut h = Histogram::new();
/// for v in 1..=1000u64 {
///     h.record(v * 1_000); // 1..1000 us
/// }
/// assert_eq!(h.count(), 1000);
/// let p99 = h.p99();
/// assert!((980_000..=1_000_000).contains(&p99));
/// ```
#[derive(Debug, Clone)]
pub struct Histogram {
    /// counts[octave][sub]: octave o covers [2^o, 2^(o+1)) except octave 0
    /// which covers [0, 2^SUB_BUCKET_BITS) exactly (one value per bucket).
    /// Ends at the highest non-empty bucket; the buckets past it, up to
    /// the 64 octaves any `u64` needs, are zero and not stored.
    counts: Vec<u64>,
    total: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram covering the full `u64` range (allocates
    /// nothing until the first value is recorded).
    pub fn new() -> Self {
        Histogram {
            counts: Vec::new(),
            total: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Record one value.
    pub fn record(&mut self, value: u64) {
        let idx = bucket_index(value);
        if idx >= self.counts.len() {
            self.counts.resize(idx + 1, 0);
        }
        self.counts[idx] += 1;
        self.total += 1;
        self.sum += value as u128;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Exact mean of recorded values (not bucketed).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        self.sum as f64 / self.total as f64
    }

    /// Exact sum of recorded values.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Exact minimum recorded value.
    pub fn min(&self) -> u64 {
        if self.total == 0 {
            0
        } else {
            self.min
        }
    }

    /// Exact maximum recorded value.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Value at quantile `q` in `[0, 1]`, within bucket resolution.
    pub fn value_at_quantile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.total as f64).ceil() as u64).max(1);
        // The extremes are tracked exactly; report them exactly.
        if rank >= self.total {
            return self.max;
        }
        if rank == 1 {
            return self.min;
        }
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            seen += c;
            if seen >= rank {
                // Clamp the bucket's representative value to the observed
                // extrema so p0/p100 are exact.
                return bucket_value(idx).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Shorthand percentiles.
    pub fn p50(&self) -> u64 {
        self.value_at_quantile(0.50)
    }
    /// 95th percentile.
    pub fn p95(&self) -> u64 {
        self.value_at_quantile(0.95)
    }
    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.value_at_quantile(0.99)
    }
    /// 99.9th percentile.
    pub fn p999(&self) -> u64 {
        self.value_at_quantile(0.999)
    }

    /// Merge another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        if other.counts.len() > self.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.total += other.total;
        self.sum += other.sum;
        if other.total > 0 {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
    }

    /// Condensed summary snapshot.
    pub fn summary(&self) -> Summary {
        Summary {
            count: self.total,
            mean_ns: self.mean(),
            min_ns: self.min(),
            p50_ns: self.p50(),
            p95_ns: self.p95(),
            p99_ns: self.p99(),
            p999_ns: self.p999(),
            max_ns: self.max(),
        }
    }
}

/// A point-in-time summary of a [`Histogram`], in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub count: u64,
    /// Exact arithmetic mean.
    pub mean_ns: f64,
    /// Minimum.
    pub min_ns: u64,
    /// Median.
    pub p50_ns: u64,
    /// 95th percentile.
    pub p95_ns: u64,
    /// 99th percentile.
    pub p99_ns: u64,
    /// 99.9th percentile.
    pub p999_ns: u64,
    /// Maximum.
    pub max_ns: u64,
}

impl Summary {
    /// Mean in microseconds.
    pub fn mean_us(&self) -> f64 {
        self.mean_ns / 1e3
    }
    /// 95th percentile in microseconds.
    pub fn p95_us(&self) -> f64 {
        self.p95_ns as f64 / 1e3
    }
    /// 99th percentile in microseconds.
    pub fn p99_us(&self) -> f64 {
        self.p99_ns as f64 / 1e3
    }
    /// Mean in milliseconds.
    pub fn mean_ms(&self) -> f64 {
        self.mean_ns / 1e6
    }
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={} p50={} p95={} p99={} max={}",
            self.count,
            SimDuration::from_nanos(self.mean_ns as u64),
            SimDuration::from_nanos(self.p50_ns),
            SimDuration::from_nanos(self.p95_ns),
            SimDuration::from_nanos(self.p99_ns),
            SimDuration::from_nanos(self.max_ns),
        )
    }
}

/// Simple online counter/gauge set used for CPU and NIC utilization
/// accounting.
#[derive(Debug, Clone, Default)]
pub struct Counters {
    entries: std::collections::BTreeMap<String, f64>,
}

impl Counters {
    /// Add `delta` to counter `name`, creating it at zero if absent.
    pub fn add(&mut self, name: &str, delta: f64) {
        if let Some(v) = self.entries.get_mut(name) {
            *v += delta;
        } else {
            self.entries.insert(name.to_string(), delta);
        }
    }

    /// Read counter `name` (zero if absent).
    pub fn get(&self, name: &str) -> f64 {
        self.entries.get(name).copied().unwrap_or(0.0)
    }

    /// Iterate over `(name, value)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, f64)> {
        self.entries.iter().map(|(n, v)| (n.as_str(), *v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_is_sane() {
        let h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.p99(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = Histogram::new();
        for v in 0..64u64 {
            h.record(v);
        }
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 63);
        assert_eq!(h.value_at_quantile(0.5), 31);
        assert_eq!(h.count(), 64);
    }

    #[test]
    fn relative_error_is_bounded() {
        let mut h = Histogram::new();
        // Exact median of a single value must be within 2/64 of it.
        for v in [100u64, 1_000, 10_000, 1_000_000, 123_456_789] {
            let mut h1 = Histogram::new();
            h1.record(v);
            let got = h1.value_at_quantile(0.5);
            let err = (got as f64 - v as f64).abs() / v as f64;
            assert!(err <= 2.0 / 64.0, "value {v} -> {got} err {err}");
        }
        h.record(1);
        assert_eq!(h.p50(), 1);
    }

    #[test]
    fn quantiles_of_uniform_ramp() {
        let mut h = Histogram::new();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        let p50 = h.p50() as f64;
        let p99 = h.p99() as f64;
        assert!((p50 - 5_000.0).abs() / 5_000.0 < 0.05, "p50 {p50}");
        assert!((p99 - 9_900.0).abs() / 9_900.0 < 0.05, "p99 {p99}");
        assert!((h.mean() - 5_000.5).abs() < 1.0);
    }

    #[test]
    fn p100_is_exact_max() {
        let mut h = Histogram::new();
        h.record(17);
        h.record(123_456);
        assert_eq!(h.value_at_quantile(1.0), 123_456);
        assert_eq!(h.value_at_quantile(0.0), 17);
    }

    #[test]
    fn merge_combines_counts() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for v in 1..=100u64 {
            a.record(v);
            b.record(v * 1000);
        }
        a.merge(&b);
        assert_eq!(a.count(), 200);
        assert_eq!(a.min(), 1);
        assert_eq!(a.max(), 100_000);
    }

    #[test]
    fn skewed_distribution_tail() {
        let mut h = Histogram::new();
        // 99 fast ops at ~10us, 1 slow at 10ms.
        for _ in 0..990 {
            h.record(10_000);
        }
        for _ in 0..10 {
            h.record(10_000_000);
        }
        assert!(h.p50() < 11_000);
        let p99 = h.value_at_quantile(0.995);
        assert!(p99 > 9_000_000, "p99.5 {p99}");
    }

    #[test]
    fn counters_accumulate() {
        let mut c = Counters::default();
        c.add("busy_ns", 10.0);
        c.add("busy_ns", 5.0);
        c.add("ctx", 1.0);
        assert_eq!(c.get("busy_ns"), 15.0);
        assert_eq!(c.get("ctx"), 1.0);
        assert_eq!(c.get("absent"), 0.0);
        assert_eq!(c.iter().count(), 2);
    }

    #[test]
    fn bucket_roundtrip_monotonic() {
        // bucket_value(bucket_index(v)) must never exceed v, and indices
        // must be monotonic in v.
        let mut vals: Vec<u64> = Vec::new();
        for shift in 0..40u32 {
            for off in [0u64, 1, 3] {
                vals.push((1u64 << shift) + off);
            }
        }
        vals.sort_unstable();
        vals.dedup();
        let mut last_idx = 0usize;
        for v in vals {
            let idx = bucket_index(v);
            assert!(bucket_value(idx) <= v, "v={v}");
            assert!(idx >= last_idx, "non-monotonic at v={v}");
            last_idx = idx;
        }
    }

    /// The dense table [`Histogram`] kept before it grew on demand: all
    /// 64 octaves allocated up front. Only here as the reference the
    /// grow-on-demand table is checked against.
    #[derive(Clone)]
    struct DenseHistogram {
        counts: Vec<u64>,
        total: u64,
        sum: u128,
        min: u64,
        max: u64,
    }

    impl DenseHistogram {
        fn new() -> Self {
            DenseHistogram {
                counts: vec![0; SUB_BUCKETS * 64],
                total: 0,
                sum: 0,
                min: u64::MAX,
                max: 0,
            }
        }

        fn record(&mut self, value: u64) {
            self.counts[bucket_index(value)] += 1;
            self.total += 1;
            self.sum += value as u128;
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }

        fn min(&self) -> u64 {
            if self.total == 0 {
                0
            } else {
                self.min
            }
        }

        fn value_at_quantile(&self, q: f64) -> u64 {
            if self.total == 0 {
                return 0;
            }
            let q = q.clamp(0.0, 1.0);
            let rank = ((q * self.total as f64).ceil() as u64).max(1);
            if rank >= self.total {
                return self.max;
            }
            if rank == 1 {
                return self.min;
            }
            let mut seen = 0u64;
            for (idx, &c) in self.counts.iter().enumerate() {
                if c == 0 {
                    continue;
                }
                seen += c;
                if seen >= rank {
                    return bucket_value(idx).clamp(self.min, self.max);
                }
            }
            self.max
        }

        fn merge(&mut self, other: &DenseHistogram) {
            for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
                *a += b;
            }
            self.total += other.total;
            self.sum += other.sum;
            if other.total > 0 {
                self.min = self.min.min(other.min);
                self.max = self.max.max(other.max);
            }
        }
    }

    #[test]
    fn an_empty_histogram_owns_no_table() {
        let h = Histogram::new();
        assert_eq!(h.counts.capacity(), 0);
        let mut h = h.clone();
        h.merge(&Histogram::new());
        assert_eq!(h.counts.capacity(), 0);
        h.record(100);
        assert_eq!(h.counts.len(), bucket_index(100) + 1);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        /// Every observable of `h` equals the dense reference's.
        fn same_as_dense(h: &Histogram, d: &DenseHistogram) -> Result<(), String> {
            let pairs = [
                ("count", h.count() as u128, d.total as u128),
                ("sum", h.sum(), d.sum),
                ("min", h.min() as u128, d.min() as u128),
                ("max", h.max() as u128, d.max as u128),
                ("p50", h.p50() as u128, d.value_at_quantile(0.5) as u128),
                ("p99", h.p99() as u128, d.value_at_quantile(0.99) as u128),
                ("p999", h.p999() as u128, d.value_at_quantile(0.999) as u128),
            ];
            for (what, got, want) in pairs {
                if got != want {
                    return Err(format!("{what}: {got} vs dense {want}"));
                }
            }
            for q in [0.0, 0.001, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.999_9, 1.0] {
                let (got, want) = (h.value_at_quantile(q), d.value_at_quantile(q));
                if got != want {
                    return Err(format!("quantile {q}: {got} vs dense {want}"));
                }
            }
            Ok(())
        }

        fn values() -> impl Strategy<Value = Vec<u64>> {
            proptest::collection::vec(
                prop_oneof![
                    0u64..64,
                    64u64..100_000,
                    100_000u64..10_000_000_000,
                    any::<u64>()
                ],
                0..120,
            )
        }

        proptest! {
            /// The grow-on-demand table records, merges (both ways,
            /// between tables of different lengths and with an empty
            /// one) and answers every quantile exactly like the dense
            /// table.
            #[test]
            fn grow_on_demand_matches_the_dense_table(a in values(), b in values()) {
                let (mut ha, mut da) = (Histogram::new(), DenseHistogram::new());
                let (mut hb, mut db) = (Histogram::new(), DenseHistogram::new());
                for &v in &a { ha.record(v); da.record(v); }
                for &v in &b { hb.record(v); db.record(v); }
                let checks = [
                    same_as_dense(&ha, &da),
                    same_as_dense(&hb, &db),
                    {
                        let (mut h, mut d) = (ha.clone(), da.clone());
                        h.merge(&hb);
                        d.merge(&db);
                        same_as_dense(&h, &d)
                    },
                    {
                        let (mut h, mut d) = (hb.clone(), db.clone());
                        h.merge(&ha);
                        d.merge(&da);
                        same_as_dense(&h, &d)
                    },
                    {
                        let (mut h, mut d) = (Histogram::new(), DenseHistogram::new());
                        h.merge(&ha);
                        d.merge(&da);
                        same_as_dense(&h, &d)
                    },
                    {
                        let (mut h, mut d) = (ha.clone(), da.clone());
                        h.merge(&Histogram::new());
                        d.merge(&DenseHistogram::new());
                        same_as_dense(&h, &d)
                    },
                ];
                for (i, c) in checks.into_iter().enumerate() {
                    prop_assert!(c.is_ok(), "check {i}: {}", c.unwrap_err());
                }
            }
        }

        proptest! {
            /// Quantiles are monotone non-decreasing in q, and every
            /// quantile lies within the recorded min..=max range.
            #[test]
            fn quantiles_are_monotone(values in proptest::collection::vec(1u64..10_000_000_000, 1..200)) {
                let mut h = Histogram::new();
                for &v in &values {
                    h.record(v);
                }
                let lo = *values.iter().min().unwrap();
                let hi = *values.iter().max().unwrap();
                let mut prev = 0u64;
                for q in [0.0, 0.1, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0] {
                    let v = h.value_at_quantile(q);
                    prop_assert!(v >= prev, "quantile({q}) = {v} < {prev}");
                    prop_assert!(v >= lo && v <= hi, "quantile({q}) = {v} outside [{lo}, {hi}]");
                    prev = v;
                }
                prop_assert_eq!(h.count(), values.len() as u64);
            }

            /// Merging two histograms is observationally equivalent to
            /// recording all values into one.
            #[test]
            fn merge_equals_union(
                a in proptest::collection::vec(1u64..1_000_000_000, 0..100),
                b in proptest::collection::vec(1u64..1_000_000_000, 0..100),
            ) {
                let mut ha = Histogram::new();
                let mut hb = Histogram::new();
                let mut hu = Histogram::new();
                for &v in &a { ha.record(v); hu.record(v); }
                for &v in &b { hb.record(v); hu.record(v); }
                ha.merge(&hb);
                prop_assert_eq!(ha.count(), hu.count());
                for q in [0.0, 0.5, 0.99, 1.0] {
                    prop_assert_eq!(ha.value_at_quantile(q), hu.value_at_quantile(q));
                }
            }
        }
    }
}

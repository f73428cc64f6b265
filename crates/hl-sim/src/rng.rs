//! Deterministic randomness.
//!
//! Every source of jitter in the simulator (NIC processing variance,
//! scheduler noise, workload key choice, …) draws from a [`RngStream`]
//! derived from one experiment seed and a stream *name*. Deriving by name
//! means adding a new consumer of randomness does not perturb the draws
//! seen by existing consumers, which keeps experiments comparable across
//! code changes.
//!
//! The generator is an in-repo xoshiro256++ — no external crates, so the
//! exact draw sequence is pinned by this file alone and the workspace
//! builds fully offline.

use std::sync::{Arc, Mutex, PoisonError};

/// Factory for named deterministic RNG streams.
#[derive(Debug, Clone)]
pub struct RngFactory {
    seed: u64,
}

impl RngFactory {
    /// Create a factory for an experiment seed.
    pub fn new(seed: u64) -> Self {
        RngFactory { seed }
    }

    /// The experiment seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Derive an independent stream for `name`. The same `(seed, name)`
    /// always yields the same stream.
    pub fn stream(&self, name: &str) -> RngStream {
        RngStream::derive(self.seed, name)
    }

    /// Derive a stream for `name` plus a numeric index (e.g. per-host).
    pub fn stream_idx(&self, name: &str, idx: u64) -> RngStream {
        let mut h = Fnv1a::new();
        h.write(name.as_bytes());
        h.write(&idx.to_le_bytes());
        RngStream::from_seed_words(self.seed, h.finish())
    }
}

/// A named deterministic random stream with simulation-oriented helpers.
#[derive(Debug, Clone)]
pub struct RngStream {
    s: [u64; 4],
}

impl RngStream {
    fn derive(seed: u64, name: &str) -> Self {
        let mut h = Fnv1a::new();
        h.write(name.as_bytes());
        Self::from_seed_words(seed, h.finish())
    }

    fn from_seed_words(seed: u64, name_hash: u64) -> Self {
        // Expand the two words into four non-degenerate state lanes with
        // splitmix so nearby seeds do not produce correlated states.
        let mut x = seed ^ name_hash.rotate_left(32);
        let mut s = [0u64; 4];
        for lane in &mut s {
            x = splitmix(x ^ seed) ^ splitmix(name_hash ^ x);
            *lane = x;
        }
        if s == [0; 4] {
            s[0] = 0x9e37_79b9_7f4a_7c15; // all-zero state is a fixed point
        }
        RngStream { s }
    }

    /// Core xoshiro256++ step.
    fn next_u64(&mut self) -> u64 {
        let out = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        out
    }

    /// Uniform draw in `[0, 1)`.
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform draw in `(0, 1)` (for log transforms).
    fn f64_open(&mut self) -> f64 {
        loop {
            let u = self.f64();
            if u > 0.0 {
                return u;
            }
        }
    }

    /// Uniform integer in `[lo, hi)`. Panics if the range is empty.
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        // Caller-contract assertion on compile-time-ish range bounds
        // (jitter windows), not on guest data; a violation is a config
        // bug and the panic itself is deterministic.
        // hl-lint: allow(panic-in-handler)
        assert!(lo < hi, "empty range");
        let span = hi - lo;
        // Debiased multiply-shift (Lemire); the rejection loop terminates
        // deterministically from the stream state.
        let mut x = self.next_u64();
        let mut m = (x as u128) * (span as u128);
        let mut l = m as u64;
        if l < span {
            let t = span.wrapping_neg() % span;
            while l < t {
                x = self.next_u64();
                m = (x as u128) * (span as u128);
                l = m as u64;
            }
        }
        lo + (m >> 64) as u64
    }

    /// Uniform usize in `[0, n)`.
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "empty range");
        self.range_u64(0, n as u64) as usize
    }

    /// Bernoulli trial with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64() < p
    }

    /// Exponentially distributed draw with the given mean.
    ///
    /// One libm `ln` per draw: the only caller on the NIC datapath is the
    /// memory-bus contention tail (`NicProfile::contention_prob`, 0.5 %
    /// of jittered operations).
    pub fn exponential(&mut self, mean: f64) -> f64 {
        -mean * self.f64_open().ln() // hl-lint: allow(libm-in-datapath)
    }

    /// Raw `u64` draw (for seeding sub-generators).
    pub fn u64(&mut self) -> u64 {
        self.next_u64()
    }
}

/// Inverse-CDF table for the multiplicative NIC jitter factor
/// `lognormal(median 1, sigma)`, i.e. `exp(sigma · Φ⁻¹(p))` with `p`
/// uniform.
///
/// The map from one raw `u64` to a factor is [`JitterTable::factor`]:
/// the top 10 bits pick one of 1024 equal-probability bins, the low 54 bits interpolate linearly between the bin's two
/// knots. The chord's relative error in the `k`-th bin from either end
/// is about `sigma / (8·|z|·k²)`, independent of the bin width, so the
/// 8 outermost bins at each end (1.6 % of draws) evaluate `exp(sigma · Φ⁻¹(p))` directly instead: that keeps
/// the whole map within 1e-4 of the exact quantile function for
/// `sigma ≤ 0.1` and leaves the tail untruncated (the extreme factor is
/// the quantile at `p = 2⁻⁵³`, ±8.2 sigma).
///
/// libm (`exp`, `ln`) is used to build the knots and in the exact bins,
/// nowhere else, so the factor of an interpolated draw depends on the
/// platform's libm only through the knot values.
pub struct JitterTable {
    sigma: f64,
    /// `knots[i] = exp(sigma · Φ⁻¹(i / BINS))`; bin `i` spans
    /// `knots[i]..knots[i + 1]`.
    knots: [f64; Self::BINS + 1],
}

/// The knots are a function of sigma; a `Nic` dump should not print 1025
/// of them.
impl std::fmt::Debug for JitterTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JitterTable")
            .field("sigma", &self.sigma)
            .finish_non_exhaustive()
    }
}

/// Tables built so far, one per distinct sigma, for the life of the
/// process. A table is a pure function of its sigma, so sharing cannot
/// couple two worlds; it exists so that the NICs of a world (and of
/// every world of a sharded run) read one 8 KiB table, not one each.
static JITTER_TABLES: Mutex<Vec<Arc<JitterTable>>> = Mutex::new(Vec::new());

impl JitterTable {
    const BIN_BITS: u32 = 10;
    /// Equal-probability bins.
    const BINS: usize = 1 << Self::BIN_BITS;
    /// Bins at each end of the range that take the exact path.
    const EXACT_BINS: usize = 8;
    const FRAC_BITS: u32 = 64 - Self::BIN_BITS;

    /// The shared table for `sigma`, built on first use.
    pub fn shared(sigma: f64) -> Arc<JitterTable> {
        let mut tables = JITTER_TABLES.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(t) = tables.iter().find(|t| t.sigma.to_bits() == sigma.to_bits()) {
            return t.clone();
        }
        let t = Arc::new(JitterTable {
            sigma,
            knots: std::array::from_fn(|i| Self::quantile(sigma, i as f64 / Self::BINS as f64)),
        });
        tables.push(t.clone());
        t
    }

    /// The quantile function being tabulated. libm `exp` (and `ln`
    /// inside `normal_quantile`): runs 1025 times per distinct sigma at
    /// set-up and on the 1.6 % of draws that land in an exact bin.
    fn quantile(sigma: f64, p: f64) -> f64 {
        (sigma * normal_quantile(p)).exp() // hl-lint: allow(libm-in-datapath)
    }

    /// The factor a raw 64-bit draw maps to; non-decreasing in `u`.
    #[inline]
    pub fn factor(&self, u: u64) -> f64 {
        let bin = (u >> Self::FRAC_BITS) as usize;
        if !(Self::EXACT_BINS..Self::BINS - Self::EXACT_BINS).contains(&bin) {
            return self.exact(u);
        }
        let frac =
            (u & ((1 << Self::FRAC_BITS) - 1)) as f64 * (1.0 / (1u64 << Self::FRAC_BITS) as f64);
        let lo = self.knots[bin];
        lo + frac * (self.knots[bin + 1] - lo)
    }

    /// Exact path of the outermost bins. `p` is the centre of the draw's
    /// 2⁻⁵² cell, so it is never 0 or 1 and the factor is finite.
    #[cold]
    fn exact(&self, u: u64) -> f64 {
        let p = ((u >> 12) as f64 + 0.5) * (1.0 / (1u64 << 52) as f64);
        Self::quantile(self.sigma, p)
    }
}

/// Standard normal quantile `Φ⁻¹(p)` (Acklam's rational approximation,
/// relative error below 1.2e-9 over the whole open interval); `∓∞` at
/// `p ≤ 0` / `p ≥ 1`.
fn normal_quantile(p: f64) -> f64 {
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.38357751867269e+02,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const P_LOW: f64 = 0.02425;
    // Horner evaluation, highest coefficient first.
    let poly = |c: &[f64], x: f64| c.iter().fold(0.0, |acc, &k| acc * x + k);
    // Lower-tail formula in terms of the tail mass `t`; reached only
    // through `JitterTable::quantile`.
    let tail = |t: f64| {
        let q = (-2.0 * t.ln()).sqrt(); // hl-lint: allow(libm-in-datapath)
        poly(&C, q) / (poly(&D, q) * q + 1.0)
    };
    if p <= 0.0 {
        f64::NEG_INFINITY
    } else if p >= 1.0 {
        f64::INFINITY
    } else if p < P_LOW {
        tail(p)
    } else if p > 1.0 - P_LOW {
        -tail(1.0 - p)
    } else {
        let q = p - 0.5;
        let r = q * q;
        poly(&A, r) * q / (poly(&B, r) * r + 1.0)
    }
}

/// Minimal FNV-1a, enough to hash stream names deterministically without
/// relying on `std::hash` (whose output is not guaranteed stable across
/// releases).
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x1000_0000_01b3);
        }
    }
    fn finish(&self) -> u64 {
        self.0
    }
}

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_name_same_stream() {
        let f = RngFactory::new(42);
        let mut a = f.stream("nic");
        let mut b = f.stream("nic");
        for _ in 0..100 {
            assert_eq!(a.u64(), b.u64());
        }
    }

    #[test]
    fn different_names_diverge() {
        let f = RngFactory::new(42);
        let mut a = f.stream("nic");
        let mut b = f.stream("sched");
        let same = (0..100).filter(|_| a.u64() == b.u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = RngFactory::new(1).stream("nic");
        let mut b = RngFactory::new(2).stream("nic");
        let same = (0..100).filter(|_| a.u64() == b.u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn indexed_streams_are_distinct() {
        let f = RngFactory::new(7);
        let mut a = f.stream_idx("host", 0);
        let mut b = f.stream_idx("host", 1);
        let same = (0..100).filter(|_| a.u64() == b.u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn f64_stays_in_unit_interval() {
        let mut r = RngFactory::new(11).stream("unit");
        for _ in 0..10_000 {
            let v = r.f64();
            assert!((0.0..1.0).contains(&v), "draw {v} outside [0,1)");
        }
    }

    #[test]
    fn range_covers_and_respects_bounds() {
        let mut r = RngFactory::new(13).stream("range");
        let mut seen = [false; 7];
        for _ in 0..10_000 {
            let v = r.range_u64(3, 10);
            assert!((3..10).contains(&v));
            seen[(v - 3) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all values of a small range hit");
    }

    #[test]
    fn exponential_mean_is_plausible() {
        let mut r = RngFactory::new(9).stream("exp");
        let n = 20_000;
        let sum: f64 = (0..n).map(|_| r.exponential(5.0)).sum();
        let mean = sum / n as f64;
        assert!((mean - 5.0).abs() < 0.2, "mean {mean}");
    }

    const SIGMA: f64 = 0.08; // NicProfile::default().jitter_sigma

    /// Box–Muller log-normal with median 1: the sampler the table
    /// replaced (two uniforms, `ln`, `sqrt`, `cos`, `exp` per draw), kept
    /// as the independent reference for it.
    fn box_muller_lognormal(r: &mut RngStream, sigma: f64) -> f64 {
        let (u1, u2) = (r.f64_open(), r.f64());
        let n = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        (sigma * n).exp()
    }

    #[test]
    fn normal_quantile_spot_values() {
        assert_eq!(normal_quantile(0.5), 0.0);
        for (p, z) in [
            (0.975, 1.959964),
            (1e-6, -4.753424),
            (0.001, -3.090232),
            (0.02425, -1.972961), // seam between tail and central formulas
            (0.8413447460685429, 1.0),
        ] {
            assert!((normal_quantile(p) - z).abs() < 5e-7, "Φ⁻¹({p})");
            assert!((normal_quantile(1.0 - p) + z).abs() < 5e-7, "Φ⁻¹(1-{p})");
        }
        assert_eq!(normal_quantile(0.0), f64::NEG_INFINITY);
        assert_eq!(normal_quantile(1.0), f64::INFINITY);
    }

    /// The sampler as a map `u64 → factor`: non-decreasing everywhere,
    /// within 1e-4 of the exact quantile function on [1e-6, 1 − 1e-6],
    /// finite at both ends of the range.
    #[test]
    fn jitter_map_is_monotone_and_accurate() {
        let table = JitterTable::shared(SIGMA);
        let frac_bits = JitterTable::FRAC_BITS;
        // 2^17 evenly spaced draws, both neighbours of every bin edge,
        // and a finer sweep of the exact bins at each end.
        let mut grid: Vec<u64> = (0..1u64 << 17).map(|i| i << 47).collect();
        for bin in 1..JitterTable::BINS as u64 {
            grid.extend([(bin << frac_bits) - 1, bin << frac_bits]);
        }
        let exact_span = (JitterTable::EXACT_BINS as u64) << frac_bits;
        for i in 0..1u64 << 14 {
            let u = i * (exact_span >> 14);
            grid.extend([u, !u]);
        }
        grid.extend([0, 1, u64::MAX - 1, u64::MAX]);
        grid.sort_unstable();
        assert!(grid.len() >= 100_000);

        let (mut prev, mut checked, mut worst) = (0.0f64, 0u32, 0.0f64);
        for &u in &grid {
            let f = table.factor(u);
            assert!(f.is_finite() && f > 0.0, "factor({u:#x}) = {f}");
            assert!(f >= prev, "factor({u:#x}) = {f} < {prev}");
            prev = f;
            let p = (u as f64 + 0.5) / 2f64.powi(64);
            if (1e-6..=1.0 - 1e-6).contains(&p) {
                let want = JitterTable::quantile(SIGMA, p);
                worst = worst.max((f / want - 1.0).abs());
                checked += 1;
            }
        }
        assert!(checked >= 100_000);
        assert!(worst < 1e-4, "worst relative error {worst:e}");
        // The extremes are the ±8.2-sigma quantiles, mirror images.
        let (lo, hi) = (table.factor(0), table.factor(u64::MAX));
        assert!(
            (lo * hi - 1.0).abs() < 1e-9 && hi > 1.9 && hi < 2.0,
            "{lo} {hi}"
        );
    }

    #[test]
    fn jitter_matches_box_muller_reference() {
        let table = JitterTable::shared(SIGMA);
        let n = 400_000;
        let mut r = RngFactory::new(9).stream("table");
        let mut got: Vec<f64> = (0..n).map(|_| table.factor(r.u64())).collect();
        let mut r = RngFactory::new(9).stream("reference");
        let mut want: Vec<f64> = (0..n)
            .map(|_| box_muller_lognormal(&mut r, SIGMA))
            .collect();
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        assert!((mean(&got) - mean(&want)).abs() < 1e-3);
        got.sort_by(f64::total_cmp);
        want.sort_by(f64::total_cmp);
        for q in [0.001, 0.01, 0.1, 0.5, 0.9, 0.99, 0.999] {
            let i = (q * n as f64) as usize;
            assert!(
                (got[i] / want[i] - 1.0).abs() < 5e-3,
                "quantile {q}: table {} reference {}",
                got[i],
                want[i]
            );
        }
    }

    #[test]
    fn jitter_tables_are_shared_per_sigma() {
        assert!(Arc::ptr_eq(
            &JitterTable::shared(SIGMA),
            &JitterTable::shared(SIGMA)
        ));
        assert!(!Arc::ptr_eq(
            &JitterTable::shared(SIGMA),
            &JitterTable::shared(0.25)
        ));
    }

    #[test]
    fn chance_extremes() {
        let mut r = RngFactory::new(3).stream("c");
        assert!(!(0..1000).any(|_| r.chance(0.0)));
        assert!((0..1000).all(|_| r.chance(1.0)));
    }
}

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
    pub fn exponential(&mut self, mean: f64) -> f64 {
        -mean * self.f64_open().ln()
    }

    /// Log-normal draw specified by the *median* and sigma of the
    /// underlying normal. Handy for long-tailed hardware jitter.
    pub fn lognormal(&mut self, median: f64, sigma: f64) -> f64 {
        let n = self.standard_normal();
        median * (sigma * n).exp()
    }

    /// Standard normal via Box–Muller, one value per call.
    ///
    /// Not free: every NIC jitter draw comes through here, and `ln`,
    /// `cos` and `lognormal`'s `exp` together are ~15 % of host time on
    /// the `gwrite_chain` benchmark. It is left alone because any other
    /// sampler — a table, a ziggurat, even keeping Box–Muller's second
    /// value — maps the same uniform draws to different factors and so
    /// moves every simulated nanosecond; that is a change with its own
    /// claim, not a refactor. For the same reason simulated bytes depend
    /// on the platform's libm: two machines agree exactly only if their
    /// `ln`/`cos`/`exp` round identically.
    pub fn standard_normal(&mut self) -> f64 {
        let u1 = self.f64_open();
        let u2 = self.f64();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }

    /// Raw `u64` draw (for seeding sub-generators).
    pub fn u64(&mut self) -> u64 {
        self.next_u64()
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

    #[test]
    fn lognormal_median_is_plausible() {
        let mut r = RngFactory::new(9).stream("logn");
        let mut v: Vec<f64> = (0..10_001).map(|_| r.lognormal(10.0, 0.5)).collect();
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = v[5_000];
        assert!((median - 10.0).abs() < 1.0, "median {median}");
    }

    #[test]
    fn chance_extremes() {
        let mut r = RngFactory::new(3).stream("c");
        assert!(!(0..1000).any(|_| r.chance(0.0)));
        assert!((0..1000).all(|_| r.chance(1.0)));
    }
}

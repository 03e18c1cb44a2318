//! Deterministic pseudo-random number generation for the simulators.
//!
//! Every stochastic decision in the reproduction (workload address streams,
//! request inter-arrival times, service times, ...) is drawn from a [`SimRng`]
//! seeded explicitly by the experiment harness. This keeps every experiment
//! bit-reproducible and, crucially, lets paired comparisons (e.g. the same
//! colocation under two ROB configurations) observe the *same* instruction
//! stream — the simulator-side analogue of the paper's fixed sampling points
//! (§V-C).
//!
//! The generator is `splitmix64` for seeding plus `xoshiro256++` for the
//! stream; both are tiny, fast and well-studied. We intentionally avoid a
//! dependency on the `rand` crate here so that the core simulation crates'
//! code uses no external crate.

/// A small, fast, deterministic PRNG (xoshiro256++) with convenience samplers.
///
/// ```
/// use sim_model::SimRng;
///
/// let mut a = SimRng::new(42);
/// let mut b = SimRng::new(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// let x = a.uniform_f64();
/// assert!((0.0..1.0).contains(&x));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimRng {
    state: [u64; 4],
}

#[inline]
fn splitmix64(seed: &mut u64) -> u64 {
    *seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *seed;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    pub fn new(seed: u64) -> SimRng {
        let mut s = seed;
        let state =
            [splitmix64(&mut s), splitmix64(&mut s), splitmix64(&mut s), splitmix64(&mut s)];
        SimRng { state }
    }

    /// Derives an independent stream for a sub-component.
    ///
    /// Used to hand each workload / each thread its own stream from a single
    /// experiment seed without correlation between the streams.
    pub fn fork(&mut self, stream: u64) -> SimRng {
        let base = self.next_u64();
        SimRng::new(base ^ stream.wrapping_mul(0xA076_1D64_78BD_642F)) // simlint: allow(rng-discipline, "fork derives the child stream from self, whose own seed provenance was checked at construction")
    }

    /// Next raw 64-bit value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.state;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform value in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    #[inline]
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "SimRng::below called with bound 0");
        // Lemire-style multiply-shift; bias is negligible for simulation use.
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Uniform value in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    #[inline]
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "SimRng::range requires lo < hi (got {lo}..{hi})");
        lo + self.below(hi - lo)
    }

    /// Uniform `f64` in `[0, 1)`.
    #[inline]
    pub fn uniform_f64(&mut self) -> f64 {
        // 53 random mantissa bits.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli trial with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.uniform_f64() < p
        }
    }

    /// Exponentially distributed value with the given mean:
    /// `-mean · ln(1 − u)`.
    ///
    /// The queueing simulator's arrivals draw the `ln(1 − u)` once and
    /// multiply it by each rate's mean gap (`sim_qos::arrival`), which gives
    /// these bits.
    #[inline]
    pub fn exponential(&mut self, mean: f64) -> f64 {
        debug_assert!(mean > 0.0);
        let u = 1.0 - self.uniform_f64(); // avoid ln(0)
        -mean * u.ln()
    }

    /// Log-normally distributed value with the given median and sigma
    /// (sigma is the standard deviation of the underlying normal).
    ///
    /// Used for per-request service-time distributions, which are heavy-tailed
    /// for real services.
    pub fn log_normal(&mut self, median: f64, sigma: f64) -> f64 {
        debug_assert!(median > 0.0);
        median * self.log_normal_factor(sigma)
    }

    /// The median-free part of [`SimRng::log_normal`]: `exp(sigma · n)` for
    /// a standard normal `n`, so `log_normal(median, sigma)` is
    /// `median * log_normal_factor(sigma)`, bit for bit. A run that replays
    /// one service-time draw at several medians keeps this factor.
    pub fn log_normal_factor(&mut self, sigma: f64) -> f64 {
        (sigma * self.standard_normal()).exp()
    }

    /// Standard normal variate (Box–Muller).
    pub fn standard_normal(&mut self) -> f64 {
        let u1 = 1.0 - self.uniform_f64();
        let u2 = self.uniform_f64();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Geometric number of trials until first success with probability `p`
    /// (always at least 1).
    pub fn geometric(&mut self, p: f64) -> u64 {
        let p = p.clamp(1e-12, 1.0);
        let u = 1.0 - self.uniform_f64();
        (u.ln() / (1.0 - p).ln()).floor() as u64 + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::new(7);
        let mut b = SimRng::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2, "streams from different seeds should differ");
    }

    #[test]
    fn forked_streams_are_independent_of_order() {
        let mut root1 = SimRng::new(99);
        let fork_a = root1.fork(1);
        let mut root2 = SimRng::new(99);
        let fork_b = root2.fork(1);
        assert_eq!(fork_a, fork_b);
    }

    #[test]
    fn below_respects_bound() {
        let mut rng = SimRng::new(3);
        for _ in 0..1000 {
            assert!(rng.below(17) < 17);
        }
    }

    #[test]
    fn range_respects_bounds() {
        let mut rng = SimRng::new(3);
        for _ in 0..1000 {
            let v = rng.range(5, 9);
            assert!((5..9).contains(&v));
        }
    }

    #[test]
    fn uniform_f64_in_unit_interval() {
        let mut rng = SimRng::new(11);
        for _ in 0..1000 {
            let x = rng.uniform_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn chance_extremes() {
        let mut rng = SimRng::new(5);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
    }

    #[test]
    fn exponential_mean_is_close() {
        let mut rng = SimRng::new(21);
        let n = 20_000;
        let mean = 4.0;
        let sum: f64 = (0..n).map(|_| rng.exponential(mean)).sum();
        let sample_mean = sum / n as f64;
        assert!((sample_mean - mean).abs() < 0.15, "sample mean {sample_mean} too far from {mean}");
    }

    #[test]
    fn geometric_is_at_least_one() {
        let mut rng = SimRng::new(12);
        for _ in 0..100 {
            assert!(rng.geometric(0.3) >= 1);
        }
    }

    #[test]
    #[should_panic(expected = "bound 0")]
    fn below_zero_bound_panics() {
        SimRng::new(1).below(0);
    }
}

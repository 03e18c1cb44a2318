//! Open-loop request arrival processes.
//!
//! Request arrivals to real services are bursty: even at a low *average* rate
//! there are short intervals in which requests queue behind one another —
//! the reason latency targets are set at a multiple of the per-request
//! service time (§II). The default process is therefore a two-state MMPP
//! (Markov-modulated Poisson process) that alternates between a calm and a
//! bursty state; a plain Poisson process is also available.
//!
//! An [`ArrivalGenerator`] is two halves. [`ArrivalDraws`] holds the RNG
//! and draws each arrival's rate-free randomness (an [`ArrivalDraw`]): the
//! `ln(1 − u)` of its exponential gap and whether it falls inside a burst,
//! whose bookkeeping never reads the rate. An [`ArrivalClock`] holds no RNG:
//! it multiplies a draw's `ln(1 − u)` by the mean gap of one rate and
//! advances the clock. [`ArrivalGenerator::next_arrival_ms`] is the clock
//! applied to a fresh draw, so a peak search can draw a run's arrivals once
//! and replay them at every probed rate through the same arithmetic, with
//! the same bits as a live generator at that rate.

use sim_model::SimRng;

/// An open-loop arrival process generating inter-arrival gaps (milliseconds).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalProcess {
    /// Poisson arrivals at the given average rate (requests per second).
    Poisson {
        /// Average arrival rate in requests per second.
        rate_rps: f64,
    },
    /// Two-state bursty arrivals: most of the time a calm Poisson stream at
    /// `rate_rps`, but with probability `burst_prob` a request initiates a
    /// burst during which arrivals are `burst_factor`× faster for a few
    /// requests.
    Bursty {
        /// Average arrival rate in requests per second.
        rate_rps: f64,
        /// Probability that a request starts a burst.
        burst_prob: f64,
        /// Rate multiplier during a burst.
        burst_factor: f64,
        /// Mean number of requests per burst.
        burst_length: f64,
    },
}

impl ArrivalProcess {
    /// A bursty process with the default burstiness used throughout the
    /// reproduction (bursts of ~12 requests arriving 8× faster, starting on
    /// 8% of requests).
    pub const fn bursty(rate_rps: f64) -> ArrivalProcess {
        ArrivalProcess::Bursty { rate_rps, burst_prob: 0.08, burst_factor: 8.0, burst_length: 12.0 }
    }

    /// Validates the process parameters.
    ///
    /// A non-positive (or non-finite) rate would hang the generator's clock;
    /// a `burst_factor` below 1 would make "bursts" *slower* than the calm
    /// stream and push the rate correction negative; a burst probability
    /// outside `[0, 1]` or a burst length below 1 silently degenerates.
    /// These used to surface as NaN timestamps or an unbounded simulation —
    /// now they are rejected at construction time.
    ///
    /// # Errors
    ///
    /// Returns a description of the first inconsistent parameter.
    pub fn validate(&self) -> Result<(), String> {
        let rate = self.rate_rps();
        if !(rate > 0.0 && rate.is_finite()) {
            return Err(format!("arrival rate {rate} must be positive and finite"));
        }
        if let ArrivalProcess::Bursty { burst_prob, burst_factor, burst_length, .. } = *self {
            if !(0.0..=1.0).contains(&burst_prob) {
                return Err(format!("burst probability {burst_prob} must be in [0, 1]"));
            }
            if !(burst_factor >= 1.0 && burst_factor.is_finite()) {
                return Err(format!("burst factor {burst_factor} must be >= 1 and finite"));
            }
            if !(burst_length >= 1.0 && burst_length.is_finite()) {
                return Err(format!("burst length {burst_length} must be >= 1 and finite"));
            }
        }
        Ok(())
    }

    /// Average arrival rate in requests per second.
    pub fn rate_rps(&self) -> f64 {
        match self {
            ArrivalProcess::Poisson { rate_rps } | ArrivalProcess::Bursty { rate_rps, .. } => {
                *rate_rps
            }
        }
    }

    /// Returns the same process at a different average rate.
    pub fn with_rate(&self, rate_rps: f64) -> ArrivalProcess {
        match *self {
            ArrivalProcess::Poisson { .. } => ArrivalProcess::Poisson { rate_rps },
            ArrivalProcess::Bursty { burst_prob, burst_factor, burst_length, .. } => {
                ArrivalProcess::Bursty { rate_rps, burst_prob, burst_factor, burst_length }
            }
        }
    }
}

/// Hard cap on the number of requests in one burst (draws above it are
/// truncated). The calm-gap rate correction accounts for this cap through
/// the truncated-geometric mean — see [`truncated_burst_mean`].
const BURST_CAP: u64 = 64;

/// Mean of `min(G, BURST_CAP)` where `G` is the geometric burst-length draw
/// with mean `burst_length` (at least 1): `L · (1 − (1 − 1/L)^cap)`.
///
/// The cap keeps actual bursts far shorter than the nominal mean for large
/// `burst_length` (e.g. ~57 expected requests at `burst_length = 256`), so
/// a correction computed from the *untruncated* mean overestimates the
/// burst traffic, stretches the calm gaps too far, and drags the realised
/// average rate well below nominal. The power is computed by explicit
/// repeated multiplication so the value is platform-identical (`powi` may
/// contract differently across targets).
fn truncated_burst_mean(burst_length: f64) -> f64 {
    let len = burst_length.max(1.0);
    let q = 1.0 - 1.0 / len;
    let mut q_cap = 1.0;
    for _ in 0..BURST_CAP {
        q_cap *= q;
    }
    len * (1.0 - q_cap)
}

/// One arrival's rate-free randomness: the `ln(1 − u)` its exponential gap
/// scales and whether it falls inside a burst. [`ArrivalDraws`] draws it; an
/// [`ArrivalClock`] turns it into a timestamp at any rate.
#[derive(Debug, Clone, Copy)]
pub struct ArrivalDraw {
    ln_u: f64,
    burst: bool,
}

/// The rate-free half of an [`ArrivalGenerator`]: draws every arrival's
/// [`ArrivalDraw`] from the RNG exactly as the generator consumes it. The
/// process's rate is never read, so one sequence of draws serves every rate
/// of the process's shape.
#[derive(Debug, Clone)]
pub struct ArrivalDraws {
    process: ArrivalProcess,
    rng: SimRng,
    burst_remaining: u64,
}

impl ArrivalDraws {
    /// Draws for `process`'s shape from `rng`.
    ///
    /// # Panics
    ///
    /// Panics if [`ArrivalProcess::validate`] rejects the process.
    pub fn new(process: ArrivalProcess, rng: SimRng) -> ArrivalDraws {
        process.validate().expect("invalid arrival process");
        ArrivalDraws { process, rng, burst_remaining: 0 }
    }

    /// The next arrival's draw. A calm arrival may start a burst (a
    /// [`SimRng::chance`] and a capped [`SimRng::geometric`] length) before
    /// its gap is drawn; the requests of a burst draw only their gap.
    #[inline]
    pub fn next_draw(&mut self) -> ArrivalDraw {
        let burst = match self.process {
            ArrivalProcess::Poisson { .. } => false,
            ArrivalProcess::Bursty { burst_prob, burst_length, .. } => {
                if self.burst_remaining > 0 {
                    self.burst_remaining -= 1;
                    true
                } else {
                    if self.rng.chance(burst_prob) {
                        self.burst_remaining =
                            self.rng.geometric(1.0 / burst_length.max(1.0)).min(BURST_CAP);
                    }
                    false
                }
            }
        };
        // The `ln(1 − u)` that `SimRng::exponential` scales by its mean.
        let u = 1.0 - self.rng.uniform_f64();
        ArrivalDraw { ln_u: u.ln(), burst }
    }
}

/// The rate-bound half of an [`ArrivalGenerator`]: the mean gaps of one
/// rate and the running clock. It holds no RNG; [`ArrivalClock::advance`]
/// turns an [`ArrivalDraw`] into the timestamp a live generator at this
/// rate gives, bit for bit.
#[derive(Debug, Clone)]
pub struct ArrivalClock {
    /// Mean gap (ms) of a calm arrival: `1000 / rate`, scaled by the calm
    /// correction of a bursty process.
    calm_gap_ms: f64,
    /// Mean gap (ms) inside a burst: the calm gap over the burst factor.
    burst_gap_ms: f64,
    now_ms: f64,
}

impl ArrivalClock {
    /// A clock at time 0 for `process` at its rate.
    ///
    /// # Panics
    ///
    /// Panics if [`ArrivalProcess::validate`] rejects the process.
    pub fn new(process: ArrivalProcess) -> ArrivalClock {
        process.validate().expect("invalid arrival process");
        // Scale the calm-period gap so the *average* rate stays at the
        // nominal value despite the extra burst requests: each calm request
        // spawns `burst_prob * E[min(G, BURST_CAP)]` burst requests that each
        // take `1/burst_factor` of a gap. The expectation must be the
        // *truncated*-geometric mean — using the nominal `burst_length`
        // ignores the cap and over-corrects, biasing the realised rate low
        // (fractions of a percent at the default length of 12, ~40% at 256).
        let (calm_correction, burst_factor) = match process {
            ArrivalProcess::Poisson { .. } => (1.0, 1.0),
            ArrivalProcess::Bursty { burst_prob, burst_factor, burst_length, .. } => {
                let extra = burst_prob * truncated_burst_mean(burst_length);
                ((1.0 + extra) / (1.0 + extra / burst_factor), burst_factor)
            }
        };
        let calm_gap_ms = 1000.0 / process.rate_rps() * calm_correction;
        ArrivalClock { calm_gap_ms, burst_gap_ms: calm_gap_ms / burst_factor, now_ms: 0.0 }
    }

    /// Advances the clock by `draw`'s gap and returns the arrival's
    /// timestamp (ms): the gap is `-mean · ln(1 − u)`, the product
    /// [`SimRng::exponential`] forms.
    #[inline]
    pub fn advance(&mut self, draw: ArrivalDraw) -> f64 {
        let mean_gap_ms = if draw.burst { self.burst_gap_ms } else { self.calm_gap_ms };
        self.now_ms += -mean_gap_ms * draw.ln_u;
        self.now_ms
    }
}

/// Stateful generator of arrival timestamps for an [`ArrivalProcess`]:
/// an [`ArrivalClock`] fed by [`ArrivalDraws`].
#[derive(Debug, Clone)]
pub struct ArrivalGenerator {
    draws: ArrivalDraws,
    clock: ArrivalClock,
}

impl ArrivalGenerator {
    /// Creates a generator.
    ///
    /// # Panics
    ///
    /// Panics if [`ArrivalProcess::validate`] rejects the process.
    pub fn new(process: ArrivalProcess, rng: SimRng) -> ArrivalGenerator {
        ArrivalGenerator {
            draws: ArrivalDraws::new(process, rng),
            clock: ArrivalClock::new(process),
        }
    }

    /// Timestamp (ms) of the next request arrival.
    #[inline]
    pub fn next_arrival_ms(&mut self) -> f64 {
        self.clock.advance(self.draws.next_draw())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_mean_rate_is_respected() {
        let mut g =
            ArrivalGenerator::new(ArrivalProcess::Poisson { rate_rps: 200.0 }, SimRng::new(1));
        let n = 20_000;
        let mut last = 0.0;
        for _ in 0..n {
            last = g.next_arrival_ms();
        }
        let measured_rate = n as f64 / (last / 1000.0);
        assert!((measured_rate - 200.0).abs() / 200.0 < 0.05, "rate {measured_rate}");
    }

    #[test]
    fn bursty_mean_rate_is_close_to_nominal() {
        let mut g = ArrivalGenerator::new(ArrivalProcess::bursty(100.0), SimRng::new(2));
        let n = 20_000;
        let mut last = 0.0;
        for _ in 0..n {
            last = g.next_arrival_ms();
        }
        let measured_rate = n as f64 / (last / 1000.0);
        // The calm-gap correction keeps the average rate at the nominal value.
        assert!(measured_rate > 88.0 && measured_rate < 115.0, "rate {measured_rate}");
    }

    #[test]
    fn bursty_rate_is_unbiased_across_burst_lengths() {
        // Regression for the burst-cap rate bias: the calm-gap correction
        // used the untruncated geometric mean while draws are capped at
        // BURST_CAP, so long nominal bursts (>> the cap) dragged the
        // realised rate tens of percent below nominal. The truncated-mean
        // correction keeps it within ~2% at every burst length.
        for (i, burst_length) in [4.0, 32.0, 256.0].into_iter().enumerate() {
            let p = ArrivalProcess::Bursty {
                rate_rps: 100.0,
                burst_prob: 0.08,
                burst_factor: 8.0,
                burst_length,
            };
            let mut g = ArrivalGenerator::new(p, SimRng::new(40 + i as u64));
            let n = 200_000;
            let mut last = 0.0;
            for _ in 0..n {
                last = g.next_arrival_ms();
            }
            let measured_rate = n as f64 / (last / 1000.0);
            assert!(
                (measured_rate - 100.0).abs() / 100.0 < 0.02,
                "burst_length {burst_length}: rate {measured_rate} drifted beyond 2%"
            );
        }
    }

    #[test]
    fn truncated_burst_mean_matches_closed_form_limits() {
        // Degenerate one-request bursts: the truncated mean is exactly 1.
        assert_eq!(truncated_burst_mean(1.0), 1.0);
        // Short bursts are barely truncated: mean stays within 1% of nominal.
        assert!((truncated_burst_mean(12.0) - 12.0).abs() / 12.0 < 0.01);
        // Nominal lengths far beyond the cap saturate near the cap itself.
        let long = truncated_burst_mean(1e9);
        assert!(long < BURST_CAP as f64 && long > BURST_CAP as f64 * 0.99, "mean {long}");
        // Monotone in the nominal length.
        assert!(truncated_burst_mean(32.0) < truncated_burst_mean(256.0));
        assert!(truncated_burst_mean(256.0) < BURST_CAP as f64);
    }

    #[test]
    fn arrivals_are_monotone() {
        let mut g = ArrivalGenerator::new(ArrivalProcess::bursty(50.0), SimRng::new(3));
        let mut prev = 0.0;
        for _ in 0..1000 {
            let t = g.next_arrival_ms();
            assert!(t >= prev);
            prev = t;
        }
    }

    #[test]
    fn with_rate_preserves_shape() {
        let p = ArrivalProcess::bursty(10.0).with_rate(99.0);
        assert_eq!(p.rate_rps(), 99.0);
        match p {
            ArrivalProcess::Bursty { burst_factor, .. } => assert_eq!(burst_factor, 8.0),
            _ => panic!("shape changed"),
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_rate_rejected() {
        let _ = ArrivalGenerator::new(ArrivalProcess::Poisson { rate_rps: 0.0 }, SimRng::new(1));
    }

    #[test]
    #[should_panic(expected = "burst factor")]
    fn sub_unit_burst_factor_rejected() {
        // A burst factor below 1 would make the calm-gap correction negative
        // (silent NaN timestamps before validation existed).
        let p = ArrivalProcess::Bursty {
            rate_rps: 100.0,
            burst_prob: 0.1,
            burst_factor: 0.5,
            burst_length: 8.0,
        };
        let _ = ArrivalGenerator::new(p, SimRng::new(1));
    }

    #[test]
    #[should_panic(expected = "burst probability")]
    fn out_of_range_burst_probability_rejected() {
        let p = ArrivalProcess::Bursty {
            rate_rps: 100.0,
            burst_prob: 1.5,
            burst_factor: 8.0,
            burst_length: 8.0,
        };
        let _ = ArrivalGenerator::new(p, SimRng::new(1));
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn nan_rate_rejected() {
        let _ =
            ArrivalGenerator::new(ArrivalProcess::Poisson { rate_rps: f64::NAN }, SimRng::new(1));
    }

    #[test]
    fn default_processes_validate() {
        assert!(ArrivalProcess::bursty(100.0).validate().is_ok());
        assert!(ArrivalProcess::Poisson { rate_rps: 1.0 }.validate().is_ok());
        assert!(
            ArrivalProcess::Bursty {
                rate_rps: 100.0,
                burst_prob: 0.1,
                burst_factor: 8.0,
                burst_length: 0.5,
            }
            .validate()
            .is_err(),
            "burst length below one request must be rejected"
        );
    }
}

//! Diurnal load patterns (Figure 14).
//!
//! The two curves are parametric reconstructions of the figures the paper
//! reproduces from Meisner et al. (Web Search query rate, \[9\]) and Gill et
//! al. (YouTube edge traffic, \[28\]): smooth day/night cycles normalised to
//! their peak, with the Web Search cluster spending ≈11 hours and the video
//! cluster ≈17 hours of the day below 85% of peak load.

use sim_model::{CanonicalKey, KeyEncoder};
use std::f64::consts::PI;

/// One sampled point of a diurnal curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadSample {
    /// Hour of day, `0.0 ..= 24.0`.
    pub hour: f64,
    /// Load as a fraction of the daily peak, `0.0 ..= 1.0`.
    pub load: f64,
}

/// A parametric diurnal load pattern.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DiurnalPattern {
    /// Web Search query rate: a broad daytime plateau peaking in the early
    /// afternoon, with a deep overnight trough (Figure 14a).
    WebSearch,
    /// YouTube-style video traffic: a sharper evening peak around 14:00–20:00
    /// local time with most of the day well below peak (Figure 14b).
    YouTube,
    /// A custom sinusoidal pattern: `base + amplitude * max(0, cos-shaped
    /// bump centred on `peak_hour` with the given `width` in hours)`.
    Custom {
        /// Minimum (overnight) load fraction.
        base: f64,
        /// Peak minus base.
        amplitude: f64,
        /// Hour of day at which the load peaks.
        peak_hour: f64,
        /// Width of the daytime bump in hours.
        width: f64,
    },
}

/// The control interval, in hours: how often every fleet server's monitor
/// acts, and the step at which the analytical case study samples its curve.
/// It tiles the 24-hour day exactly ([`day_steps`] intervals).
pub const INTERVAL_HOURS: f64 = 0.25;

/// Number of [`INTERVAL_HOURS`] control intervals in a 24-hour day (96), as
/// used by both the analytical sampling ([`DiurnalPattern::sample`]) and the
/// fleet simulation — one shared count, so the two routes always account
/// the same intervals.
pub const fn day_steps() -> usize {
    (24.0 / INTERVAL_HOURS) as usize
}

impl DiurnalPattern {
    /// Checks that a [`DiurnalPattern::Custom`] curve is a load curve:
    /// finite parameters, a non-negative base and amplitude whose sum is at
    /// most full load (1.0), a positive width and a peak hour in [0, 24].
    /// The built-in patterns always pass. [`DiurnalPattern::load_at`] would
    /// otherwise hide a bad value: a NaN base reads as full load at every
    /// hour, a negative one as a negative load.
    ///
    /// # Errors
    ///
    /// Returns a description of the first rule the pattern breaks.
    pub fn validate(&self) -> Result<(), String> {
        let DiurnalPattern::Custom { base, amplitude, peak_hour, width } = *self else {
            return Ok(());
        };
        if ![base, amplitude, peak_hour, width].iter().all(|x| x.is_finite()) {
            return Err(format!(
                "diurnal pattern parameters must be finite (base {base}, amplitude {amplitude}, \
                 peak hour {peak_hour}, width {width})"
            ));
        }
        if base < 0.0 || amplitude < 0.0 {
            return Err(format!(
                "diurnal base {base} and amplitude {amplitude} must not be negative"
            ));
        }
        if base + amplitude > 1.0 {
            return Err(format!(
                "diurnal base {base} plus amplitude {amplitude} exceeds full load (1.0)"
            ));
        }
        if width <= 0.0 {
            return Err(format!("diurnal width {width} h must be positive"));
        }
        if !(0.0..=24.0).contains(&peak_hour) {
            return Err(format!("diurnal peak hour {peak_hour} must be in [0, 24]"));
        }
        Ok(())
    }

    /// Load (fraction of peak) at a given hour of day.
    ///
    /// # Panics
    ///
    /// Panics if `hour` is outside `0.0 ..= 24.0`.
    pub fn load_at(&self, hour: f64) -> f64 {
        assert!((0.0..=24.0).contains(&hour), "hour {hour} outside a day");
        // A flat-topped daytime bump: full load within `plateau` hours of the
        // peak, cosine falloff to the overnight base over the next `falloff`
        // hours.
        let bump = |base: f64, amplitude: f64, peak_hour: f64, plateau: f64, falloff: f64| -> f64 {
            // Circular distance from the peak hour.
            let mut d = (hour - peak_hour).abs();
            if d > 12.0 {
                d = 24.0 - d;
            }
            let shape = if d <= plateau {
                1.0
            } else if d <= plateau + falloff {
                0.5 * (1.0 + (PI * (d - plateau) / falloff).cos())
            } else {
                0.0
            };
            (base + amplitude * shape).min(1.0)
        };
        match *self {
            // Calibrated so ~11 of 24 hours are below 85% of peak.
            DiurnalPattern::WebSearch => bump(0.42, 0.58, 14.0, 4.5, 6.0),
            // Calibrated so ~17 of 24 hours are below 85% of peak.
            DiurnalPattern::YouTube => bump(0.30, 0.70, 15.0, 2.0, 5.0),
            DiurnalPattern::Custom { base, amplitude, peak_hour, width } => {
                bump(base, amplitude, peak_hour, width / 3.0, 2.0 * width / 3.0)
            }
        }
    }

    /// Samples the curve once per [`INTERVAL_HOURS`] over 24 hours:
    /// [`day_steps`] points, starting at midnight.
    pub fn sample(&self) -> Vec<LoadSample> {
        (0..day_steps())
            .map(|i| {
                let hour = i as f64 * INTERVAL_HOURS;
                LoadSample { hour, load: self.load_at(hour) }
            })
            .collect()
    }
}

impl CanonicalKey for DiurnalPattern {
    fn encode_key(&self, enc: &mut KeyEncoder) {
        match *self {
            DiurnalPattern::WebSearch => {
                enc.tag(0);
            }
            DiurnalPattern::YouTube => {
                enc.tag(1);
            }
            DiurnalPattern::Custom { base, amplitude, peak_hour, width } => {
                enc.tag(2).f64(base).f64(amplitude).f64(peak_hour).f64(width);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loads_are_normalised_fractions() {
        for pattern in [DiurnalPattern::WebSearch, DiurnalPattern::YouTube] {
            for s in pattern.sample() {
                assert!((0.0..=1.0).contains(&s.load), "{pattern:?} at {} -> {}", s.hour, s.load);
            }
        }
    }

    #[test]
    fn peaks_reach_full_load() {
        assert!(DiurnalPattern::WebSearch.load_at(14.0) > 0.98);
        assert!(DiurnalPattern::YouTube.load_at(15.0) > 0.98);
    }

    #[test]
    fn custom_pattern_follows_its_parameters() {
        let p = DiurnalPattern::Custom { base: 0.2, amplitude: 0.8, peak_hour: 12.0, width: 4.0 };
        assert!(p.load_at(12.0) > 0.95);
        assert!(p.load_at(0.0) < 0.25);
    }

    #[test]
    fn a_custom_pattern_must_be_a_load_curve() {
        let custom = |base, amplitude, peak_hour, width| DiurnalPattern::Custom {
            base,
            amplitude,
            peak_hour,
            width,
        };
        for ok in [
            DiurnalPattern::WebSearch,
            DiurnalPattern::YouTube,
            custom(0.2, 0.8, 12.0, 4.0),
            custom(1.0, 0.0, 0.0, 6.0),
            custom(0.0, 0.0, 24.0, 0.5),
        ] {
            assert_eq!(ok.validate(), Ok(()), "{ok:?}");
        }
        for bad in [
            custom(f64::NAN, 0.2, 12.0, 6.0),
            custom(0.2, f64::INFINITY, 12.0, 6.0),
            custom(0.2, 0.2, f64::NAN, 6.0),
            custom(0.2, 0.2, 12.0, f64::NAN),
            custom(-0.5, 0.2, 12.0, 6.0),
            custom(0.2, -0.1, 12.0, 6.0),
            custom(0.5, 0.6, 12.0, 6.0),
            custom(0.2, 0.2, 12.0, 0.0),
            custom(0.2, 0.2, 12.0, -3.0),
            custom(0.2, 0.2, -1.0, 6.0),
            custom(0.2, 0.2, 24.5, 6.0),
        ] {
            assert!(bad.validate().is_err(), "{bad:?}");
        }
    }

    #[test]
    #[should_panic(expected = "outside a day")]
    fn out_of_range_hour_panics() {
        let _ = DiurnalPattern::WebSearch.load_at(25.0);
    }
}

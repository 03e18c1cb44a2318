//! Sampling methodology (§V-C of the paper).
//!
//! The paper uses SimFlex-style statistical sampling: many short samples, each
//! consisting of a functional warm-up, a detailed warm-up of core structures
//! (100 K instructions), and a 50 K-instruction measurement window. The
//! reproduction keeps the same structure with configurable sizes so that
//! tests and quick figure runs can use scaled-down versions.

use serde::{Deserialize, Serialize};

/// Describes how a simulation run is split into warm-up and measurement
/// phases, and how many samples are taken.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SamplingPlan {
    /// Number of independent samples (paper: 320 over 4 s of execution).
    pub samples: usize,
    /// Instructions (per thread) used to warm core structures before
    /// measurement inside each sample (paper: 100 K).
    pub warmup_instructions: u64,
    /// Instructions (per thread) measured in each sample (paper: 50 K).
    pub measured_instructions: u64,
}

impl SamplingPlan {
    /// The paper's full plan: 320 samples × (100 K warm-up + 50 K measured).
    pub fn paper() -> SamplingPlan {
        SamplingPlan { samples: 320, warmup_instructions: 100_000, measured_instructions: 50_000 }
    }

    /// A reduced plan for the figure-generation binaries: large enough for
    /// stable relative comparisons, small enough to run the full 4 × 29
    /// colocation matrix in minutes on a single core.
    pub fn standard() -> SamplingPlan {
        SamplingPlan { samples: 2, warmup_instructions: 10_000, measured_instructions: 20_000 }
    }

    /// A small plan for unit/integration tests and quick figure runs.
    pub fn quick() -> SamplingPlan {
        SamplingPlan { samples: 1, warmup_instructions: 3_000, measured_instructions: 8_000 }
    }

    /// Total instructions simulated per thread across all samples.
    pub fn total_instructions(&self) -> u64 {
        (self.warmup_instructions + self.measured_instructions) * self.samples as u64
    }

    /// Validates the plan.
    ///
    /// # Errors
    ///
    /// Returns an error when the plan would measure nothing.
    pub fn validate(&self) -> Result<(), String> {
        if self.samples == 0 {
            return Err("sampling plan needs at least one sample".into());
        }
        if self.measured_instructions == 0 {
            return Err("sampling plan needs a non-zero measurement window".into());
        }
        Ok(())
    }
}

impl Default for SamplingPlan {
    fn default() -> SamplingPlan {
        SamplingPlan::standard()
    }
}

/// Aggregates per-sample UIPC measurements into a single figure of merit.
///
/// The paper's figure of merit is user-level instructions per cycle (UIPC),
/// averaged across samples. Harmonic vs arithmetic averaging matters little
/// for relative comparisons; we use the ratio of totals (total instructions /
/// total cycles), which weights samples by their duration.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct UipcAccumulator {
    total_instructions: u64,
    total_cycles: u64,
    per_sample: Vec<f64>,
}

impl UipcAccumulator {
    /// Creates an empty accumulator.
    pub fn new() -> UipcAccumulator {
        UipcAccumulator::default()
    }

    /// Records one sample's instruction and cycle counts.
    pub fn record_sample(&mut self, instructions: u64, cycles: u64) {
        self.total_instructions += instructions;
        self.total_cycles += cycles;
        if cycles > 0 {
            self.per_sample.push(instructions as f64 / cycles as f64);
        }
    }

    /// Aggregate UIPC (total instructions / total cycles), or `None` if no
    /// cycles were recorded.
    pub fn uipc(&self) -> Option<f64> {
        if self.total_cycles == 0 {
            None
        } else {
            Some(self.total_instructions as f64 / self.total_cycles as f64)
        }
    }

    /// Per-sample UIPC values.
    pub fn samples(&self) -> &[f64] {
        &self.per_sample
    }

    /// Total simulated cycles.
    pub fn cycles(&self) -> u64 {
        self.total_cycles
    }

    /// Total measured instructions.
    pub fn instructions(&self) -> u64 {
        self.total_instructions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_plan_matches_methodology_section() {
        let p = SamplingPlan::paper();
        assert_eq!(p.samples, 320);
        assert_eq!(p.warmup_instructions, 100_000);
        assert_eq!(p.measured_instructions, 50_000);
        assert!(p.validate().is_ok());
    }

    #[test]
    fn total_instruction_accounting() {
        let p = SamplingPlan { samples: 2, warmup_instructions: 10, measured_instructions: 5 };
        assert_eq!(p.total_instructions(), 30);
    }

    #[test]
    fn invalid_plans_rejected() {
        let p = SamplingPlan { samples: 0, ..SamplingPlan::quick() };
        assert!(p.validate().is_err());
        let p = SamplingPlan { measured_instructions: 0, ..SamplingPlan::quick() };
        assert!(p.validate().is_err());
    }

    #[test]
    fn uipc_is_ratio_of_totals() {
        let mut acc = UipcAccumulator::new();
        acc.record_sample(100, 50);
        acc.record_sample(100, 150);
        assert_eq!(acc.uipc(), Some(1.0));
        assert_eq!(acc.samples().len(), 2);
        assert_eq!(acc.cycles(), 200);
        assert_eq!(acc.instructions(), 200);
    }

    #[test]
    fn empty_accumulator_has_no_uipc() {
        assert!(UipcAccumulator::new().uipc().is_none());
    }
}

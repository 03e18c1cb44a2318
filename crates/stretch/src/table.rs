//! Per-mode performance numbers: what each Stretch mode leaves the
//! latency-sensitive thread and buys the batch co-runner.
//!
//! A [`PerformanceTable`] is the input the cluster layer's fleet simulation
//! charges a simulated day against: the mode a server's monitor engages
//! scales its service times by the mode's retained single-thread
//! performance and credits its batch throughput with the mode's speedup.

use crate::config::StretchMode;
use sim_model::{CanonicalKey, KeyEncoder};

/// Performance of one Stretch mode relative to a stand-alone full core (for
/// the latency-sensitive thread) and to the baseline SMT partitioning (for
/// the batch thread).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModePerformance {
    /// Fraction of full-core single-thread performance retained by the
    /// latency-sensitive thread under this mode (colocation included).
    pub ls_performance: f64,
    /// Batch thread speedup over the equal-partition baseline (1.0 = no
    /// change, 1.13 = 13% faster).
    pub batch_speedup: f64,
}

impl ModePerformance {
    /// The paper's headline numbers for the three modes with the recommended
    /// skews (Figure 9 and §VI-A): baseline colocation costs the LS thread
    /// about 14%; B-mode 56-136 costs a further ~7% while buying the batch
    /// thread ~13%; Q-mode 136-56 restores ~7% of LS performance while
    /// costing the batch thread ~21%.
    pub fn paper_defaults(mode: StretchMode) -> ModePerformance {
        match mode {
            StretchMode::Baseline => ModePerformance { ls_performance: 0.86, batch_speedup: 1.0 },
            StretchMode::BatchBoost(_) => {
                ModePerformance { ls_performance: 0.80, batch_speedup: 1.13 }
            }
            StretchMode::QosBoost(_) => {
                ModePerformance { ls_performance: 0.93, batch_speedup: 0.79 }
            }
        }
    }
}

impl CanonicalKey for ModePerformance {
    fn encode_key(&self, enc: &mut KeyEncoder) {
        enc.f64(self.ls_performance).f64(self.batch_speedup);
    }
}

/// Per-mode performance table: one [`ModePerformance`] per Stretch mode.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerformanceTable {
    /// Baseline (equal partitioning) performance.
    pub baseline: ModePerformance,
    /// B-mode performance.
    pub b_mode: ModePerformance,
    /// Q-mode performance.
    pub q_mode: ModePerformance,
}

impl PerformanceTable {
    /// Table populated with the paper's headline numbers.
    pub fn paper_defaults() -> PerformanceTable {
        PerformanceTable {
            baseline: ModePerformance::paper_defaults(StretchMode::Baseline),
            b_mode: ModePerformance::paper_defaults(StretchMode::BatchBoost(
                crate::config::RobSkew::recommended_b_mode(),
            )),
            q_mode: ModePerformance::paper_defaults(StretchMode::QosBoost(
                crate::config::RobSkew::recommended_q_mode(),
            )),
        }
    }

    /// Looks up the performance of a mode.
    pub fn for_mode(&self, mode: StretchMode) -> ModePerformance {
        match mode {
            StretchMode::Baseline => self.baseline,
            StretchMode::BatchBoost(_) => self.b_mode,
            StretchMode::QosBoost(_) => self.q_mode,
        }
    }
}

impl CanonicalKey for PerformanceTable {
    fn encode_key(&self, enc: &mut KeyEncoder) {
        enc.field(&self.baseline).field(&self.b_mode).field(&self.q_mode);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn performance_table_lookup() {
        let t = PerformanceTable::paper_defaults();
        assert!(t.for_mode(StretchMode::Baseline).batch_speedup == 1.0);
        assert!(
            t.for_mode(StretchMode::BatchBoost(crate::config::RobSkew::recommended_b_mode()))
                .batch_speedup
                > 1.0
        );
        assert!(
            t.for_mode(StretchMode::QosBoost(crate::config::RobSkew::recommended_q_mode()))
                .ls_performance
                > t.baseline.ls_performance
        );
    }
}

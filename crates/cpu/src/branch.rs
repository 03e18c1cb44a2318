//! Branch prediction structures.
//!
//! Table II specifies a hybrid predictor (16 K-entry gShare plus 4 K-entry
//! bimodal with a chooser), a 2 K-entry BTB and a per-thread return address
//! stack. Predictor *tables* (gShare, bimodal, chooser, BTB) can be shared
//! between the SMT threads — in which case the threads alias into the same
//! entries and disturb each other — or private per thread. The global history
//! register and the RAS are always private, as in the paper (§V-A).

use mem_sim::Sharing;
use sim_model::{BranchPredictorConfig, ThreadId};

/// Saturating 2-bit counter helpers.
#[inline]
fn counter_taken(c: u8) -> bool {
    c >= 2
}

#[inline]
fn counter_update(c: u8, taken: bool) -> u8 {
    if taken {
        (c + 1).min(3)
    } else {
        c.saturating_sub(1)
    }
}

#[derive(Debug, Clone)]
struct PredictorTables {
    gshare: Vec<u8>,
    bimodal: Vec<u8>,
    chooser: Vec<u8>,
    btb: Vec<Option<(u64, u64)>>, // (tag, target)
}

impl PredictorTables {
    fn new(cfg: &BranchPredictorConfig) -> PredictorTables {
        PredictorTables {
            gshare: vec![1; cfg.gshare_entries],
            bimodal: vec![1; cfg.bimodal_entries],
            chooser: vec![1; cfg.chooser_entries],
            btb: vec![None; cfg.btb_entries],
        }
    }
}

/// Outcome of a branch prediction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Prediction {
    /// Predicted direction.
    pub taken: bool,
    /// Predicted target (from the BTB / RAS); `None` when no target is known.
    pub target: Option<u64>,
}

/// Per-branch statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BranchStats {
    /// Branches predicted.
    pub predictions: u64,
    /// Branches whose direction or target was mispredicted.
    pub mispredictions: u64,
}

/// The hybrid branch predictor plus BTB and RAS.
#[derive(Debug, Clone)]
pub struct BranchPredictor {
    cfg: BranchPredictorConfig,
    sharing: Sharing,
    /// One table set when shared, one per thread when private.
    tables: Vec<PredictorTables>,
    /// Per-thread global history (always private).
    history: Vec<u64>,
    /// Per-thread return address stacks (always private).
    ras: Vec<Vec<u64>>,
    stats: Vec<BranchStats>,
}

impl BranchPredictor {
    /// Builds the predictor for a core with `threads` hardware threads.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    pub fn new(cfg: BranchPredictorConfig, sharing: Sharing, threads: usize) -> BranchPredictor {
        assert!(threads >= 1, "a branch predictor needs at least one thread");
        let copies = match sharing {
            Sharing::Shared => 1,
            Sharing::PrivatePerThread => threads,
        };
        BranchPredictor {
            cfg,
            sharing,
            tables: (0..copies).map(|_| PredictorTables::new(&cfg)).collect(),
            history: vec![0; threads],
            ras: vec![Vec::new(); threads],
            stats: vec![BranchStats::default(); threads],
        }
    }

    #[inline]
    fn tables_mut(&mut self, thread: ThreadId) -> &mut PredictorTables {
        match self.sharing {
            Sharing::Shared => &mut self.tables[0],
            Sharing::PrivatePerThread => &mut self.tables[thread.index()],
        }
    }

    fn history_mask(&self) -> u64 {
        (1u64 << self.cfg.history_bits) - 1
    }

    /// Predicts the branch at `pc` for `thread`.
    ///
    /// `is_return` consults the RAS; `is_call` has no effect on prediction but
    /// is accepted for symmetry with [`BranchPredictor::update`].
    pub fn predict(
        &mut self,
        thread: ThreadId,
        pc: u64,
        _is_call: bool,
        is_return: bool,
    ) -> Prediction {
        let history = self.history[thread.index()] & self.history_mask();
        let t = self.tables_mut(thread);
        let gshare_idx = ((pc >> 2) ^ history) as usize % t.gshare.len();
        let bimodal_idx = (pc >> 2) as usize % t.bimodal.len();
        let chooser_idx = (pc >> 2) as usize % t.chooser.len();
        let use_gshare = counter_taken(t.chooser[chooser_idx]);
        let taken = if use_gshare {
            counter_taken(t.gshare[gshare_idx])
        } else {
            counter_taken(t.bimodal[bimodal_idx])
        };

        let target = if is_return {
            self.ras[thread.index()].last().copied()
        } else {
            let t = self.tables_mut(thread);
            let btb_idx = (pc >> 2) as usize % t.btb.len();
            t.btb[btb_idx].and_then(|(tag, tgt)| if tag == pc { Some(tgt) } else { None })
        };
        Prediction { taken, target }
    }

    /// Updates predictor state with the actual outcome of the branch at `pc`,
    /// and records whether the earlier prediction was correct.
    #[allow(clippy::too_many_arguments)]
    pub fn update(
        &mut self,
        thread: ThreadId,
        pc: u64,
        taken: bool,
        target: u64,
        is_call: bool,
        is_return: bool,
        prediction: Prediction,
    ) -> bool {
        let history = self.history[thread.index()] & self.history_mask();
        let hist_bits = self.cfg.history_bits;
        {
            let t = self.tables_mut(thread);
            let gshare_idx = ((pc >> 2) ^ history) as usize % t.gshare.len();
            let bimodal_idx = (pc >> 2) as usize % t.bimodal.len();
            let chooser_idx = (pc >> 2) as usize % t.chooser.len();
            let gshare_correct = counter_taken(t.gshare[gshare_idx]) == taken;
            let bimodal_correct = counter_taken(t.bimodal[bimodal_idx]) == taken;
            t.gshare[gshare_idx] = counter_update(t.gshare[gshare_idx], taken);
            t.bimodal[bimodal_idx] = counter_update(t.bimodal[bimodal_idx], taken);
            if gshare_correct != bimodal_correct {
                t.chooser[chooser_idx] = counter_update(t.chooser[chooser_idx], gshare_correct);
            }
            if taken {
                let btb_idx = (pc >> 2) as usize % t.btb.len();
                t.btb[btb_idx] = Some((pc, target));
            }
        }
        // History and RAS are per-thread.
        let h = &mut self.history[thread.index()];
        *h = ((*h << 1) | u64::from(taken)) & ((1u64 << hist_bits) - 1);
        if is_call {
            let ras = &mut self.ras[thread.index()];
            if ras.len() >= self.cfg.ras_depth {
                ras.remove(0);
            }
            ras.push(pc + 4);
        } else if is_return {
            self.ras[thread.index()].pop();
        }

        // A misprediction is a wrong direction, or a taken branch whose target
        // was unknown or wrong.
        let dir_wrong = prediction.taken != taken;
        let target_wrong = taken && prediction.target != Some(target);
        let mispredicted = dir_wrong || target_wrong;
        let s = &mut self.stats[thread.index()];
        s.predictions += 1;
        if mispredicted {
            s.mispredictions += 1;
        }
        mispredicted
    }

    /// Per-thread statistics.
    pub fn stats(&self, thread: ThreadId) -> BranchStats {
        self.stats[thread.index()]
    }

    /// Sharing mode of the predictor tables.
    pub fn sharing(&self) -> Sharing {
        self.sharing
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn predictor(sharing: Sharing) -> BranchPredictor {
        BranchPredictor::new(BranchPredictorConfig::default(), sharing, 2)
    }

    /// Runs `n` occurrences of a branch at `pc` that is always taken to
    /// `target`, returning the number of mispredictions.
    fn run_always_taken(
        p: &mut BranchPredictor,
        thread: ThreadId,
        pc: u64,
        target: u64,
        n: usize,
    ) -> u64 {
        let mut mispredicts = 0;
        for _ in 0..n {
            let pred = p.predict(thread, pc, false, false);
            if p.update(thread, pc, true, target, false, false, pred) {
                mispredicts += 1;
            }
        }
        mispredicts
    }

    #[test]
    fn learns_an_always_taken_branch() {
        let mut p = predictor(Sharing::Shared);
        let early = run_always_taken(&mut p, ThreadId::T0, 0x1000, 0x2000, 4);
        let late = run_always_taken(&mut p, ThreadId::T0, 0x1000, 0x2000, 100);
        assert!(early >= 1, "cold predictor should mispredict at least once");
        assert_eq!(late, 0, "warm predictor should not mispredict an always-taken branch");
    }

    #[test]
    fn learns_a_never_taken_branch() {
        let mut p = predictor(Sharing::Shared);
        let mut mis = 0;
        for _ in 0..100 {
            let pred = p.predict(ThreadId::T0, 0x3000, false, false);
            if p.update(ThreadId::T0, 0x3000, false, 0, false, false, pred) {
                mis += 1;
            }
        }
        assert!(mis <= 2, "not-taken branch should be learned quickly (got {mis})");
    }

    #[test]
    fn random_branches_mispredict_often() {
        let mut p = predictor(Sharing::Shared);
        let mut rng = sim_model::SimRng::new(17);
        let mut mis = 0;
        let n = 2000;
        for _ in 0..n {
            let taken = rng.chance(0.5);
            let pred = p.predict(ThreadId::T0, 0x4000, false, false);
            if p.update(ThreadId::T0, 0x4000, taken, 0x5000, false, false, pred) {
                mis += 1;
            }
        }
        let rate = mis as f64 / n as f64;
        assert!(rate > 0.25, "random branches should mispredict frequently (rate {rate})");
    }

    #[test]
    fn return_address_stack_predicts_returns() {
        let mut p = predictor(Sharing::Shared);
        // A call from 0x100 pushes 0x104; the matching return should predict 0x104.
        let pred = p.predict(ThreadId::T0, 0x100, true, false);
        p.update(ThreadId::T0, 0x100, true, 0x8000, true, false, pred);
        let pred = p.predict(ThreadId::T0, 0x8010, false, true);
        assert_eq!(pred.target, Some(0x104));
    }

    #[test]
    fn threads_have_private_history() {
        let mut p = predictor(Sharing::Shared);
        run_always_taken(&mut p, ThreadId::T0, 0x1000, 0x2000, 50);
        assert!(p.stats(ThreadId::T1).predictions == 0);
        assert!(p.stats(ThreadId::T0).predictions == 50);
    }

    #[test]
    fn shared_tables_allow_cross_thread_interference() {
        // Two threads with opposite outcomes for the same PC: sharing the
        // tables must produce more mispredictions than private tables.
        let run = |sharing: Sharing| -> u64 {
            let mut p = predictor(sharing);
            let mut mis = 0;
            for _ in 0..200 {
                for (thread, taken) in [(ThreadId::T0, true), (ThreadId::T1, false)] {
                    let pred = p.predict(thread, 0x6000, false, false);
                    if p.update(thread, 0x6000, taken, 0x7000, false, false, pred) {
                        mis += 1;
                    }
                }
            }
            mis
        };
        let shared = run(Sharing::Shared);
        let private = run(Sharing::PrivatePerThread);
        assert!(
            shared > private,
            "shared tables should alias and mispredict more (shared={shared}, private={private})"
        );
    }

    #[test]
    fn mispredict_rate_reported() {
        let mut p = predictor(Sharing::Shared);
        run_always_taken(&mut p, ThreadId::T0, 0x1000, 0x2000, 10);
        let s = p.stats(ThreadId::T0);
        assert_eq!(s.predictions, 10);
    }
}

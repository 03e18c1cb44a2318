//! Differential oracle for the cycle core's quiescence skip.
//!
//! `SmtCore::step` advances exactly one cycle and is the reference. Each case
//! builds two identical cores, advances one by plain steps and the other by
//! steps plus `SmtCore::skip_quiescent`, applies the same mode-change flush
//! to both at the same cycle, and requires every observable statistic to
//! agree bit for bit: the cycle count, each thread's `ThreadStats`, branch
//! statistics and MLP census, and the memory hierarchy's counters.
//!
//! Cases are drawn at random over real workloads, SMT widths 1–4 (with and
//! without idle thread slots), the colocation policies — equal partitioning,
//! the B- and Q-mode Stretch skews, throttled fetch, a dynamically shared
//! window with total-capacity limits and private cores — seeds, lengths and
//! the flush cycle. The debug-sized variant runs in the normal suite; the
//! ignored one runs many more and longer cases in release:
//! `cargo test --release --test warp_oracle -- --ignored`.

use stretch_repro::baselines::{DynamicSharing, FetchThrottling, FETCH_THROTTLING_RATIOS};
use stretch_repro::cpu::{BranchStats, PartitionPolicy, ThreadStats};
use stretch_repro::mem::HierarchyStats;
use stretch_repro::model::{SimRng, TraceSource};
use stretch_repro::prelude::*;
use stretch_repro::stats::Histogram;
use stretch_repro::workloads::{batch, latency_sensitive, profile_by_name};

/// One randomised configuration.
struct Case {
    /// Workloads on threads `0..names.len()`; the slots above are idle.
    names: Vec<&'static str>,
    width: usize,
    policy: Box<dyn ColocationPolicy>,
    seed: u64,
    cycles: u64,
    flush_at: u64,
    flush_to: PartitionPolicy,
}

impl std::fmt::Debug for Case {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:?} on SMT-{} under '{}', seed {}, {} cycles, flush to {:?} at {}",
            self.names,
            self.width,
            self.policy.name(),
            self.seed,
            self.cycles,
            self.flush_to,
            self.flush_at
        )
    }
}

fn pick<T: Copy>(rng: &mut SimRng, items: &[T]) -> T {
    items[rng.below(items.len() as u64) as usize]
}

fn draw(rng: &mut SimRng, max_cycles: u64) -> Case {
    let cfg = CoreConfig::default();
    let active = 1 + rng.below(4) as usize;
    // Stand-alone runs put one workload on a pair; an idle slot like that
    // appears half the time.
    let spare = active < 4 && rng.below(2) == 0;
    let width = active + usize::from(spare);
    let names: Vec<&'static str> = (0..active)
        .map(|i| {
            if i == 0 && rng.below(2) == 0 {
                pick(rng, &latency_sensitive::NAMES)
            } else {
                pick(rng, &batch::NAMES)
            }
        })
        .collect();
    let skew = |mode: fn(RobSkew) -> StretchMode, skew: RobSkew| {
        Box::new(PinnedStretch::new(mode(skew))) as Box<dyn ColocationPolicy>
    };
    let throttled = ThreadId::from_index(rng.below(width as u64) as usize);
    let ratio = pick(rng, &FETCH_THROTTLING_RATIOS);
    let policy: Box<dyn ColocationPolicy> = match rng.below(6) {
        0 => Box::new(EqualPartition),
        1 if width >= 2 => skew(StretchMode::BatchBoost, RobSkew::recommended_b_mode()),
        2 if width >= 2 => skew(StretchMode::QosBoost, RobSkew::recommended_q_mode()),
        3 => Box::new(FetchThrottling::new(throttled, ratio)),
        4 => Box::new(DynamicSharing),
        _ => Box::new(PrivateCore::with_rob(pick(rng, &[64, 192]))),
    };
    let flush_to = match rng.below(3) {
        0 => PartitionPolicy::equal_n(&cfg, width),
        1 if width >= 2 => PartitionPolicy::ls_split(&cfg, width, ThreadId::T0, 136, 56),
        _ => PartitionPolicy::Dynamic,
    };
    let cycles = 1 + rng.below(max_cycles);
    Case {
        names,
        width,
        policy,
        seed: rng.next_u64(),
        cycles,
        flush_at: rng.below(cycles),
        flush_to,
    }
}

fn build(case: &Case) -> SmtCore {
    let cfg = CoreConfig::default();
    let topology = ColocationTopology::new(case.width, ThreadId::T0);
    let setup = case.policy.setup_for(&cfg, &topology);
    let mut builder = setup.apply(SmtCoreBuilder::new(cfg)).smt_width(case.width);
    for (i, name) in case.names.iter().enumerate() {
        let profile = profile_by_name(name).expect("built-in workload");
        builder =
            builder.thread(ThreadId::from_index(i), profile.spawn_trace(case.seed ^ i as u64));
    }
    builder.build()
}

/// Every statistic the core exposes, for bit-for-bit comparison.
#[derive(Debug, PartialEq)]
struct Snapshot {
    now: u64,
    cycles: u64,
    threads: Vec<(ThreadStats, BranchStats, Histogram)>,
    mem: HierarchyStats,
}

fn snapshot(core: &SmtCore) -> Snapshot {
    Snapshot {
        now: core.now(),
        cycles: core.cycles(),
        threads: ThreadId::first_n(core.smt_width())
            .map(|t| (core.thread_stats(t), core.branch_stats(t), core.mlp_census(t).clone()))
            .collect(),
        mem: core.memory_stats(),
    }
}

fn step_to(core: &mut SmtCore, cycle: u64) {
    while core.cycles() < cycle {
        core.step();
    }
}

fn warp_to(core: &mut SmtCore, cycle: u64) {
    while core.cycles() < cycle {
        core.step();
        core.skip_quiescent(cycle - core.cycles());
    }
}

/// Runs `cases` random cases of up to `max_cycles` cycles each and returns
/// the total cycles simulated and the total skipped by the warped cores.
fn run_oracle(cases: usize, max_cycles: u64, seed: u64) -> (u64, u64) {
    let mut rng = SimRng::new(seed);
    let (mut cycles, mut warped) = (0, 0);
    for _ in 0..cases {
        let case = draw(&mut rng, max_cycles);
        let mut reference = build(&case);
        let mut fast = build(&case);
        for core in [&mut reference, &mut fast] {
            assert_eq!(core.warped_cycles(), 0);
        }
        step_to(&mut reference, case.flush_at);
        warp_to(&mut fast, case.flush_at);
        assert_eq!(snapshot(&fast), snapshot(&reference), "before the flush: {case:?}");
        reference.set_partition(case.flush_to.clone(), true);
        fast.set_partition(case.flush_to.clone(), true);
        step_to(&mut reference, case.cycles);
        warp_to(&mut fast, case.cycles);
        assert_eq!(snapshot(&fast), snapshot(&reference), "at the end: {case:?}");
        assert_eq!(reference.warped_cycles(), 0, "plain steps never skip: {case:?}");
        assert!(fast.warped_cycles() <= fast.cycles(), "{case:?}");
        cycles += fast.cycles();
        warped += fast.warped_cycles();
    }
    (cycles, warped)
}

#[test]
fn warped_cores_match_plain_steps() {
    let (cycles, warped) = run_oracle(40, 30_000, 0x5EED_0001);
    // The oracle is only meaningful if the warp actually fires.
    assert!(4 * warped > cycles, "only {warped} of {cycles} cycles were skipped");
}

#[test]
#[ignore = "release-sized oracle: cargo test --release --test warp_oracle -- --ignored"]
fn warped_cores_match_plain_steps_at_length() {
    let (cycles, warped) = run_oracle(256, 200_000, 0x5EED_0002);
    assert!(4 * warped > cycles, "only {warped} of {cycles} cycles were skipped");
}

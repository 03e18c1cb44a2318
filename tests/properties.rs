//! Property-based tests over the core data structures and invariants of the
//! reproduction, using proptest.

use proptest::prelude::*;
use stretch_repro::mem::{HierarchyConfig, LoadResult, MemoryHierarchy, Sharing};
use stretch_repro::model::{CacheConfig, CoreConfig, SimRng, ThreadId, TraceSource, WorkloadClass};
use stretch_repro::qos::{
    ArrivalClock, ArrivalDraws, ArrivalGenerator, ArrivalProcess, LatencySummary, ServerQueues,
    ServerSim, ServiceSpec, SimParams,
};
use stretch_repro::stats::percentile::{
    percentile, percentile_of_sorted, percentiles_in, percentiles_in_place,
};
use stretch_repro::stats::{DistributionSummary, Histogram, LatencyHistogram, Percentiles};
use stretch_repro::stretch::{RobSkew, StretchMode};
use stretch_repro::workloads::WorkloadProfile;

fn arb_profile() -> impl Strategy<Value = WorkloadProfile> {
    (
        0.0f64..0.45,
        0.0f64..0.25,
        0.0f64..0.25,
        0.0f64..1.0,
        0.5f64..1.0,
        1u64..64,
        1u64..256,
        (0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0),
        2u8..32,
    )
        .prop_map(
            |(load, store, branch, fp, pred, code_kb, data_mb, (hot, stride, dep), dist)| {
                WorkloadProfile {
                    name: "prop".to_string(),
                    class: WorkloadClass::Batch,
                    load_frac: load,
                    store_frac: store,
                    branch_frac: branch,
                    fp_frac: fp,
                    mul_frac: 0.05,
                    code_footprint_bytes: code_kb * 1024,
                    branch_predictability: pred,
                    data_footprint_bytes: data_mb * 1024 * 1024,
                    hot_region_bytes: 16 * 1024,
                    hot_access_frac: hot,
                    stride_frac: stride,
                    dependent_load_frac: dep,
                    dependency_distance: dist,
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // ---------------- RNG ----------------

    #[test]
    fn rng_below_always_respects_bound(seed in any::<u64>(), bound in 1u64..1_000_000) {
        let mut rng = SimRng::new(seed);
        for _ in 0..32 {
            prop_assert!(rng.below(bound) < bound);
        }
    }

    #[test]
    fn rng_is_deterministic_per_seed(seed in any::<u64>()) {
        let mut a = SimRng::new(seed);
        let mut b = SimRng::new(seed);
        for _ in 0..16 {
            prop_assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    // ---------------- statistics ----------------

    #[test]
    fn percentile_is_within_sample_range(mut xs in prop::collection::vec(-1e6f64..1e6, 1..200), p in 0.0f64..100.0) {
        let result = percentile(&xs, p).expect("non-empty samples");
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        prop_assert!(result >= xs[0] - 1e-9 && result <= xs[xs.len() - 1] + 1e-9);
    }

    #[test]
    fn percentiles_are_monotone_in_p(xs in prop::collection::vec(-1e6f64..1e6, 2..100)) {
        let p25 = percentile(&xs, 25.0).unwrap();
        let p50 = percentile(&xs, 50.0).unwrap();
        let p99 = percentile(&xs, 99.0).unwrap();
        prop_assert!(p25 <= p50 + 1e-9);
        prop_assert!(p50 <= p99 + 1e-9);
    }

    #[test]
    fn tail_percentiles_are_ordered(xs in prop::collection::vec(0.0f64..1e6, 1..300)) {
        // The fleet report's invariant: p50 <= p95 <= p99 on any sample set.
        let p50 = percentile(&xs, 50.0).unwrap();
        let p95 = percentile(&xs, 95.0).unwrap();
        let p99 = percentile(&xs, 99.0).unwrap();
        prop_assert!(p50 <= p95 + 1e-9, "p50 {p50} above p95 {p95}");
        prop_assert!(p95 <= p99 + 1e-9, "p95 {p95} above p99 {p99}");
    }

    #[test]
    fn percentiles_are_invariant_under_sample_permutation(
        xs in prop::collection::vec(-1e4f64..1e4, 2..200),
        perm_seed in any::<u64>(),
        p in 0.0f64..100.0,
    ) {
        // Deterministic Fisher–Yates permutation of the sample order.
        let mut shuffled = xs.clone();
        let mut rng = SimRng::new(perm_seed);
        for i in (1..shuffled.len()).rev() {
            let j = rng.below(i as u64 + 1) as usize;
            shuffled.swap(i, j);
        }
        let original = percentile(&xs, p).unwrap();
        let permuted = percentile(&shuffled, p).unwrap();
        prop_assert_eq!(
            original.to_bits(),
            permuted.to_bits(),
            "percentile {} changed under permutation: {} vs {}",
            p,
            original,
            permuted
        );
    }

    #[test]
    fn distribution_summary_orders_its_quantiles(xs in prop::collection::vec(-1e4f64..1e4, 1..100)) {
        let s = DistributionSummary::from_samples(&xs);
        prop_assert!(s.min <= s.p25 + 1e-9);
        prop_assert!(s.p25 <= s.median + 1e-9);
        prop_assert!(s.median <= s.p75 + 1e-9);
        prop_assert!(s.p75 <= s.max + 1e-9);
        prop_assert!(s.mean >= s.min - 1e-9 && s.mean <= s.max + 1e-9);
        prop_assert_eq!(s.count, xs.len());
    }

    #[test]
    fn histogram_fractions_are_consistent(values in prop::collection::vec(0usize..20, 1..200)) {
        let mut h = Histogram::new(10);
        for &v in &values {
            h.record(v);
        }
        prop_assert_eq!(h.total(), values.len() as u64);
        prop_assert!((h.fraction_at_least(0) - 1.0).abs() < 1e-12);
        // Cumulative fractions are non-increasing in N.
        for n in 0..10 {
            prop_assert!(h.fraction_at_least(n) + 1e-12 >= h.fraction_at_least(n + 1));
        }
    }

    /// `LatencyHistogram` stores counts only over the hull of the bins it
    /// has recorded. The reference is dense: a `Histogram` over every bin,
    /// fed the same bin indices and read by the same nearest-rank
    /// upper-edge rule. Counts and percentiles must agree bit for bit after
    /// recording, after merging in either order and after merging into an
    /// empty histogram; and since the window is exactly the hull, equal
    /// histograms are equal multisets.
    #[test]
    fn windowed_latency_histogram_matches_a_dense_reference(
        resolution in 0usize..4,
        span in 0.0f64..300.0,
        values in prop::collection::vec((0usize..12, 0.0f64..1.0, any::<bool>()), 0..200),
    ) {
        let resolution_ms = [0.25, 0.5, 1.0, 2.0][resolution];
        let max_ms = resolution_ms * (1.0 + span);
        let value = |pick: usize, u: f64| match pick {
            0 => f64::NAN,
            1 => f64::INFINITY,
            2 => -u * 50.0,
            3 => max_ms * (1.0 + u),
            _ => u * max_ms,
        };
        let (mut left, mut right) = (Vec::new(), Vec::new());
        for &(pick, u, to_left) in &values {
            if to_left { &mut left } else { &mut right }.push(value(pick, u));
        }
        let regular_bins = (max_ms / resolution_ms).ceil() as usize;
        let dense = |vs: &[f64]| {
            let mut h = Histogram::new(regular_bins);
            for &v in vs {
                h.record((v.max(0.0) / resolution_ms) as usize);
            }
            h
        };
        let dense_percentile = |h: &Histogram, p: f64| {
            let total = h.total();
            if total == 0 {
                return None;
            }
            let rank = (((p / 100.0) * total as f64).ceil() as u64).clamp(1, total);
            let mut seen = 0;
            let bin = (0..h.bins()).find(|&b| {
                seen += h.count(b);
                seen >= rank
            })?;
            Some(((bin as f64 + 1.0) * resolution_ms).to_bits())
        };
        let windowed = |vs: &[f64]| {
            let mut h = LatencyHistogram::new(resolution_ms, max_ms);
            for &v in vs {
                h.record(v);
            }
            h
        };
        let (a, b) = (windowed(&left), windowed(&right));
        let mut a_b = a.clone();
        a_b.merge(&b);
        let mut b_a = b.clone();
        b_a.merge(&a);
        let mut into_empty = LatencyHistogram::new(resolution_ms, max_ms);
        into_empty.merge(&a);
        into_empty.merge(&b);
        let all: Vec<f64> = left.iter().chain(&right).copied().collect();
        prop_assert_eq!(&a_b, &b_a);
        prop_assert_eq!(&a_b, &into_empty);
        prop_assert_eq!(&a_b, &windowed(&all));
        for (h, reference) in
            [(&a, dense(&left)), (&b, dense(&right)), (&a_b, dense(&all)), (&b_a, dense(&all))]
        {
            prop_assert_eq!(h.len() as u64, reference.total());
            prop_assert_eq!(h.is_empty(), reference.total() == 0);
            for p in [0.0, 1.0, 50.0, 90.0, 99.0, 99.9, 100.0] {
                prop_assert_eq!(
                    h.percentile(p).map(f64::to_bits),
                    dense_percentile(&reference, p),
                    "p{} of {:?}",
                    p,
                    all
                );
            }
        }
    }

    // ---------------- Stretch configuration ----------------

    #[test]
    fn any_valid_skew_maps_to_consistent_partition_limits(ls in 1usize..191) {
        let cfg = CoreConfig::default();
        let batch = cfg.rob_capacity - ls;
        let skew = RobSkew::new(ls, batch);
        for mode in [StretchMode::BatchBoost(skew), StretchMode::QosBoost(skew)] {
            for ls_thread in ThreadId::ALL {
                let policy = mode.partition_policy(&cfg, 2, ls_thread);
                let t0 = policy.rob_limit(&cfg, ThreadId::T0);
                let t1 = policy.rob_limit(&cfg, ThreadId::T1);
                prop_assert_eq!(t0 + t1, cfg.rob_capacity);
                prop_assert_eq!(policy.rob_limit(&cfg, ls_thread), ls);
                // The LSQ split never exceeds the LSQ capacity.
                prop_assert!(
                    policy.lsq_limit(&cfg, ThreadId::T0) + policy.lsq_limit(&cfg, ThreadId::T1)
                        <= cfg.lsq_capacity + 8
                );
            }
        }
    }

    #[test]
    fn selected_percentiles_equal_the_stable_sort_reference_bit_for_bit(
        picks in prop::collection::vec(0usize..20, 1..301),
        random_p in 0.0f64..100.0,
    ) {
        // A small value set keeps ties common, signed zeros, infinities and
        // NaN included; the rest is a 0.5 grid.
        let special = [-0.0, 0.0, 1.0, -1.0, f64::INFINITY, f64::NEG_INFINITY, f64::NAN];
        let xs: Vec<f64> = picks
            .iter()
            .map(|&i| special.get(i).copied().unwrap_or((i as f64 - 13.0) * 0.5))
            .collect();
        let ps = [0.0, 25.0, 50.0, 95.0, 99.0, 99.5, 100.0, random_p];
        // The whole input, and its first sample alone: a one-sample input
        // returns the sample itself, -0.0 included.
        for xs in [&xs[..], &xs[..1]] {
            let reference = |p: f64| -> Option<u64> {
                let mut sorted: Vec<f64> = xs.iter().copied().filter(|x| !x.is_nan()).collect();
                if sorted.is_empty() {
                    return None;
                }
                sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaNs were filtered"));
                Some(percentile_of_sorted(&sorted, p).to_bits())
            };
            let single = ps.map(|p| percentile(xs, p).map(f64::to_bits));
            prop_assert_eq!(single, ps.map(reference), "single-rank percentiles of {:?}", xs);
            let multi = percentiles_in(&mut Vec::new(), xs, ps)
                .map(|values| values.map(|v| Some(v.to_bits())));
            prop_assert_eq!(multi.unwrap_or([None; 8]), single, "multi-rank of {:?}", xs);
            // A reused, dirty scratch buffer changes nothing.
            let mut scratch = vec![f64::NAN, 7.0];
            let reused = percentiles_in(&mut scratch, xs, ps)
                .map(|values| values.map(|v| Some(v.to_bits())));
            prop_assert_eq!(reused, multi);
        }
    }

    #[test]
    fn in_place_selection_equals_percentile_on_any_order_and_any_gather(
        picks in prop::collection::vec(0usize..40, 1..3001),
        seed in any::<u64>(),
        random_p in 0.0f64..100.0,
    ) {
        // Few distinct values keep duplicates common; signed zeros and
        // infinities included, NaN excluded (the in-place contract).
        let special = [-0.0, 0.0, f64::INFINITY, f64::NEG_INFINITY];
        let xs: Vec<f64> = picks
            .iter()
            .map(|&i| special.get(i).copied().unwrap_or((i as f64 - 20.0) * 0.25))
            .collect();
        let ps = [0.0, 50.0, 95.0, 99.0, 100.0, random_p];
        let bits = |values: Option<[f64; 6]>| values.map(|v| v.map(f64::to_bits));
        prop_assert_eq!(percentiles_in_place(&mut [], ps), None);
        let mut rng = SimRng::new(seed);
        // The whole multiset, and its first value alone.
        for xs in [&xs[..], &xs[..1]] {
            let reference = ps.map(|p| percentile(xs, p).map(f64::to_bits).expect("non-empty"));
            // A random permutation (Fisher-Yates).
            let mut shuffled = xs.to_vec();
            for i in (1..shuffled.len()).rev() {
                shuffled.swap(i, rng.below(i as u64 + 1) as usize);
            }
            prop_assert_eq!(bits(percentiles_in_place(&mut shuffled, ps)), Some(reference));
            // A random split into runs, empty runs included (a starved
            // server-interval), gathered back in a random run order.
            let mut runs = vec![Vec::new()];
            for &x in xs {
                while rng.below(8) == 0 {
                    runs.push(Vec::new());
                }
                runs.last_mut().expect("one run at least").push(x);
            }
            for i in (1..runs.len()).rev() {
                runs.swap(i, rng.below(i as u64 + 1) as usize);
            }
            let mut gathered = runs.concat();
            prop_assert_eq!(bits(percentiles_in_place(&mut gathered, ps)), Some(reference));
        }
    }

    // ---------------- queueing kernel ----------------

    /// `ServerQueues` against plain per-server availability vectors:
    /// admission must be lowest-index earliest-worker FCFS, the idle-watermark
    /// fast path of `backlog` must return exactly what the full scan
    /// computes, and `least_loaded` must pick what `(0..n).min_by` over the
    /// scanned backlogs picks — the formula the fleet dispatched by before
    /// the worker-major sweep. Each request goes to the least-loaded server
    /// or to a random one. A quarter of the cases run one server, so every
    /// request lands in one deep queue. Times on a 1/8 ms grid make ties
    /// between workers and between servers common.
    #[test]
    fn worker_queue_matches_a_plain_earliest_worker_scan(
        one_server in 0u32..4,
        servers in 1usize..33,
        workers in 1usize..17,
        requests in prop::collection::vec(
            (0u32..8, 1u32..64, 0.0f64..1.0, any::<bool>(), any::<bool>(), 0usize..32),
            1..120,
        ),
    ) {
        let servers = if one_server == 0 { 1 } else { servers };
        let mut queues = ServerQueues::new(servers, workers);
        let mut reference = vec![vec![0.0f64; workers]; servers];
        let scan = |reference: &[Vec<f64>], s: usize, now: f64| -> f64 {
            reference[s].iter().map(|&avail| (avail - now).max(0.0)).sum()
        };
        let least_loaded = |reference: &[Vec<f64>], now: f64| -> usize {
            (0..servers)
                .min_by(|&a, &b| {
                    scan(reference, a, now)
                        .partial_cmp(&scan(reference, b, now))
                        .expect("no NaN backlogs")
                })
                .expect("at least one server")
        };
        let mut arrival = 0.0f64;
        for (gap, units, frac, off_grid, to_least_loaded, draw) in requests {
            arrival += gap as f64 * 0.125;
            let service = units as f64 * 0.125 + if off_grid { frac } else { 0.0 };
            let s = if to_least_loaded {
                let s = queues.least_loaded(arrival);
                prop_assert_eq!(s, least_loaded(&reference, arrival), "pick at {}", arrival);
                s
            } else {
                draw % servers
            };
            let sojourn = queues.admit(s, arrival, service);
            let mut w = 0;
            for (i, &avail) in reference[s].iter().enumerate() {
                if avail < reference[s][w] {
                    w = i;
                }
            }
            let done = arrival.max(reference[s][w]) + service;
            reference[s][w] = done;
            prop_assert_eq!(sojourn.to_bits(), (done - arrival).to_bits());
            let latest = reference[s].iter().copied().fold(f64::NEG_INFINITY, f64::max);
            for now in [arrival, done - 0.5 * service, done, latest - 0.0625, latest, latest + 1.0] {
                prop_assert_eq!(
                    queues.backlog(s, now).to_bits(),
                    scan(&reference, s, now).to_bits(),
                    "backlog at {}",
                    now
                );
                prop_assert_eq!(
                    queues.least_loaded(now),
                    least_loaded(&reference, now),
                    "least loaded at {}",
                    now
                );
            }
        }
    }

    // ---------------- workload generator ----------------

    #[test]
    fn every_valid_profile_generates_well_formed_deterministic_streams(
        profile in arb_profile(),
        seed in any::<u64>(),
    ) {
        prop_assume!(profile.validate().is_ok());
        let mut a = profile.spawn_trace(seed);
        let mut b = profile.spawn_trace(seed);
        for _ in 0..200 {
            let op_a = a.next_op();
            let op_b = b.next_op();
            prop_assert!(op_a.is_well_formed(), "{op_a:?}");
            prop_assert_eq!(op_a, op_b);
        }
    }

    #[test]
    fn generated_addresses_respect_the_profile_footprints(profile in arb_profile(), seed in any::<u64>()) {
        prop_assume!(profile.validate().is_ok());
        let mut gen = profile.spawn_trace(seed);
        let mut last_pc_block: Option<u64> = None;
        for _ in 0..300 {
            let op = gen.next_op();
            if let Some(mem) = op.mem {
                // Data addresses never collide with the code region.
                prop_assert!(mem.addr > 0x100_0000_0000);
            }
            last_pc_block = Some(op.pc >> 6);
        }
        prop_assert!(last_pc_block.is_some());
    }
}

/// A hierarchy small enough that a few hundred random accesses fill its
/// caches: a 32-block L1-D and a 512-block LLC split over the threads.
fn small_hierarchy(threads: usize, l1d: Sharing, mshrs: usize, slots: usize) -> MemoryHierarchy {
    let l1 = |capacity_bytes| CacheConfig {
        capacity_bytes,
        line_bytes: 64,
        ways: 4,
        banks: 1,
        hit_latency: 2,
    };
    MemoryHierarchy::new(HierarchyConfig {
        threads,
        l1i: l1(1024),
        l1d: l1(2048),
        l1i_sharing: Sharing::Shared,
        l1d_sharing: l1d,
        mshrs_per_thread: mshrs,
        prefetcher_pc_slots: slots,
        llc_capacity_bytes: 32 * 1024,
        llc_ways: 8,
        llc_latency: 28,
        mem_latency: 188,
        prefetch_queue_depth: 8,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    // ---------------- memory hierarchy ----------------

    /// `MemoryHierarchy::repeat_rejected_loads` against plain `load` calls.
    /// After a random warm-up of loads and stores, every MSHR of each
    /// retrying thread is taken and each retries one load up to three times
    /// in the core's issue rotation (zero times checks a warm-up state as it
    /// stands). Two rejections in a row must make a retry steady. Whenever every retry is steady, `k` more rounds
    /// of plain retries must all be rejected and leave the hierarchy exactly
    /// where one bulk call leaves it: caches with their clocks and LRU
    /// stamps, the prefetcher's clock and entries, MSHRs and counters.
    #[test]
    fn bulk_rejected_retries_equal_plain_retries(
        threads in 1usize..5,
        private_l1d in any::<bool>(),
        prefetcher in (0u32..3, 1usize..33),
        mshrs in 1usize..9,
        warmup in prop::collection::vec((0usize..4, 0u64..96, 0u64..6, 0u32..4, 0u64..40), 0..160),
        retries in prop::collection::vec((any::<bool>(), 0u64..128, 0u64..6), 4..5),
        settle in 0usize..4,
        k in 1u64..501,
        start in 0u64..4,
    ) {
        let sharing = if private_l1d { Sharing::PrivatePerThread } else { Sharing::Shared };
        let slots = if prefetcher.0 == 0 { 0 } else { prefetcher.1 };
        let mut mem = small_hierarchy(threads, sharing, mshrs, slots);
        let address = |block: u64, pc: u64| (0x10_0000 + block * 64, 0x400 + pc * 4);
        let mut now = 0;
        for &(t, block, pc, kind, gap) in &warmup {
            now += gap;
            mem.tick(now);
            let thread = ThreadId::from_index(t % threads);
            let (addr, pc) = address(block, pc);
            if kind == 0 {
                mem.store(thread, addr, pc, now);
            } else {
                let _ = mem.load(thread, addr, pc, now);
            }
        }
        // Thread t retries `loads[t]`, if any; thread 0 always does.
        let loads: Vec<Option<(u64, u64)>> = (0..threads)
            .map(|t| {
                let (retrying, block, pc) = retries[t];
                (retrying || t == 0).then(|| address(block, pc))
            })
            .collect();
        for (t, load) in loads.iter().enumerate() {
            if load.is_some() {
                let thread = ThreadId::from_index(t);
                for i in 0..mshrs as u64 {
                    if mem.outstanding_misses(thread) < mshrs {
                        let far = 0x4000_0000 * (t as u64 + 1) + i * 4096;
                        let r = mem.load(thread, far, 0x9000 + i * 4, now);
                        prop_assert!(matches!(r, LoadResult::Miss { .. }), "{:?}", r);
                    }
                }
            }
        }
        // The retrying loads in the issue rotation of cycle `c`.
        let rotation = |c: u64| -> Vec<(ThreadId, u64, u64)> {
            (0..threads)
                .map(|offset| (c as usize + offset) % threads)
                .filter_map(|t| loads[t].map(|(addr, pc)| (ThreadId::from_index(t), addr, pc)))
                .collect()
        };
        let mut rejections = vec![0; threads];
        for c in 0..settle as u64 {
            for (thread, addr, pc) in rotation(start + c) {
                let r = mem.load(thread, addr, pc, now);
                let streak = &mut rejections[thread.index()];
                *streak = if r == LoadResult::NoMshr { *streak + 1 } else { 0 };
            }
        }
        let order = rotation(start + settle as u64 + k - 1);
        for &(thread, addr, pc) in &order {
            let steady = mem.rejected_load_is_steady(thread, addr, pc);
            prop_assert!(steady || rejections[thread.index()] < 2, "{:?} after two rejections", thread);
            prop_assume!(steady);
        }
        let mut plain = mem.clone();
        for c in 0..k {
            for (thread, addr, pc) in rotation(start + settle as u64 + c) {
                prop_assert_eq!(plain.load(thread, addr, pc, now), LoadResult::NoMshr);
            }
        }
        mem.repeat_rejected_loads(&order, k);
        prop_assert_eq!(format!("{mem:?}"), format!("{plain:?}"));
    }
}

/// An arrival process of a random shape at `rate_rps`: Poisson, or bursty
/// with a burst probability of 0, of 1 or drawn in between.
fn arrival_process(
    rate_rps: f64,
    shape: u32,
    burst_prob: f64,
    burst_factor: f64,
    burst_length: f64,
) -> ArrivalProcess {
    let burst_prob = match shape {
        0 => return ArrivalProcess::Poisson { rate_rps },
        1 => 0.0,
        2 => 1.0,
        _ => burst_prob,
    };
    ArrivalProcess::Bursty { rate_rps, burst_prob, burst_factor, burst_length }
}

/// The arrival generator as it drew gaps before the rate-free draws were
/// split from the clock: each gap is `SimRng::exponential` at the mean of
/// the arrival's state, computed from the rate on every call.
struct LiveArrivals {
    process: ArrivalProcess,
    rng: SimRng,
    now_ms: f64,
    burst_remaining: u64,
    calm_correction: f64,
}

impl LiveArrivals {
    fn new(process: ArrivalProcess, rng: SimRng) -> LiveArrivals {
        let calm_correction = match process {
            ArrivalProcess::Poisson { .. } => 1.0,
            ArrivalProcess::Bursty { burst_prob, burst_factor, burst_length, .. } => {
                // The truncated-geometric mean of a burst capped at 64.
                let len = burst_length.max(1.0);
                let q = 1.0 - 1.0 / len;
                let mut q_cap = 1.0;
                for _ in 0..64 {
                    q_cap *= q;
                }
                let extra = burst_prob * (len * (1.0 - q_cap));
                (1.0 + extra) / (1.0 + extra / burst_factor)
            }
        };
        LiveArrivals { process, rng, now_ms: 0.0, burst_remaining: 0, calm_correction }
    }

    fn next_arrival_ms(&mut self) -> f64 {
        let mean_gap_ms = 1000.0 / self.process.rate_rps();
        let gap = match self.process {
            ArrivalProcess::Poisson { .. } => self.rng.exponential(mean_gap_ms),
            ArrivalProcess::Bursty { burst_prob, burst_factor, burst_length, .. } => {
                let calm_gap = mean_gap_ms * self.calm_correction;
                if self.burst_remaining > 0 {
                    self.burst_remaining -= 1;
                    self.rng.exponential(calm_gap / burst_factor)
                } else {
                    if self.rng.chance(burst_prob) {
                        self.burst_remaining =
                            self.rng.geometric(1.0 / burst_length.max(1.0)).min(64);
                    }
                    self.rng.exponential(calm_gap)
                }
            }
        };
        self.now_ms += gap;
        self.now_ms
    }
}

fn summary_bits(s: &LatencySummary) -> [u64; 6] {
    let ms = [s.mean_ms, s.p95_ms, s.p99_ms, s.p995_ms, s.max_ms].map(f64::to_bits);
    [ms[0], ms[1], ms[2], ms[3], ms[4], s.requests as u64]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // ---------------- request-level replay ----------------

    #[test]
    fn log_normal_is_its_median_times_the_factor(
        seed in any::<u64>(),
        median in 1e-3f64..1e4,
        sigma in 0.0f64..2.0,
    ) {
        let mut live = SimRng::new(seed);
        let mut factors = live.clone();
        for _ in 0..32 {
            prop_assert_eq!(
                live.log_normal(median, sigma).to_bits(),
                (median * factors.log_normal_factor(sigma)).to_bits()
            );
        }
    }

    /// One sequence of draws, replayed through a clock at several rates,
    /// gives at each rate the timestamps of a live `ArrivalGenerator` and of
    /// the generator as it drew before the split, bit for bit.
    #[test]
    fn replayed_arrival_draws_match_live_generators_at_any_rate(
        seed in any::<u64>(),
        shape in 0u32..4,
        burst in (0.0f64..1.0, 1.0f64..16.0, 1.0f64..100.0),
        rates in prop::collection::vec(1e-2f64..1e5, 1..4),
    ) {
        let (burst_prob, burst_factor, burst_length) = burst;
        let process = arrival_process(100.0, shape, burst_prob, burst_factor, burst_length);
        let mut draws = ArrivalDraws::new(process, SimRng::new(seed));
        let tape: Vec<_> = (0..300).map(|_| draws.next_draw()).collect();
        for rate in rates {
            let at_rate = process.with_rate(rate);
            let mut clock = ArrivalClock::new(at_rate);
            let mut live = ArrivalGenerator::new(at_rate, SimRng::new(seed));
            let mut before = LiveArrivals::new(at_rate, SimRng::new(seed));
            for &draw in &tape {
                let replayed = clock.advance(draw).to_bits();
                prop_assert_eq!(replayed, live.next_arrival_ms().to_bits(), "rate {}", rate);
                prop_assert_eq!(replayed, before.next_arrival_ms().to_bits(), "rate {}", rate);
            }
        }
    }

    /// `ServerSim::run_at_rate`, which replays a drawn tape, against the
    /// live-stream loop it replaced: arrivals and service times drawn as
    /// each request is admitted.
    #[test]
    fn run_at_rate_matches_the_live_stream_loop(
        seed in any::<u64>(),
        service in 0usize..4,
        shape in 0u32..4,
        burst in (0.0f64..1.0, 1.0f64..16.0, 1.0f64..100.0),
        load in 0.02f64..1.5,
        performance in 0.05f64..1.0,
        counts in (1usize..400, 0usize..60),
    ) {
        let spec = ServiceSpec::all().swap_remove(service);
        let (burst_prob, burst_factor, burst_length) = burst;
        let process = arrival_process(100.0, shape, burst_prob, burst_factor, burst_length);
        let params = SimParams { requests: counts.0, warmup_requests: counts.1, seed, performance_fraction: performance };
        let rate = load * spec.workers as f64 * 1000.0 / spec.mean_service_ms(performance);
        let replayed = ServerSim::new(spec.clone(), process).run_at_rate(rate, params);

        let mut rng = SimRng::new(seed);
        let mut arrivals = LiveArrivals::new(process.with_rate(rate), rng.fork(1));
        let mut service_rng = rng.fork(2);
        let median_ms = spec.service_median_ms * spec.slowdown(performance);
        let mut queue = ServerQueues::new(1, spec.workers);
        let mut sojourn = Percentiles::new();
        for i in 0..params.warmup_requests + params.requests {
            let arrival = arrivals.next_arrival_ms();
            let service_ms = service_rng.log_normal(median_ms, spec.service_sigma);
            let sojourn_ms = queue.admit(0, arrival, service_ms);
            if i >= params.warmup_requests {
                sojourn.record(sojourn_ms);
            }
        }
        let [p95_ms, p99_ms, p995_ms] =
            percentiles_in(&mut Vec::new(), sojourn.samples(), [95.0, 99.0, 99.5])
                .unwrap_or([0.0; 3]);
        let live = LatencySummary {
            mean_ms: sojourn.mean().unwrap_or(0.0),
            p95_ms,
            p99_ms,
            p995_ms,
            max_ms: sojourn.max().unwrap_or(0.0),
            requests: sojourn.len(),
        };
        prop_assert_eq!(summary_bits(&replayed), summary_bits(&live));
    }
}

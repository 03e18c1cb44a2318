//! SMT4 allocation study: offer one latency-sensitive service plus three
//! batch jobs to a 2-core SMT4 server and compare the allocation policies —
//! which thread lands on which core — with Stretch's B-mode partitioning
//! applied inside every occupied core. The two policy layers compose: the
//! `AllocationPolicy` picks the placement, the `ColocationPolicy` splits
//! each core's ROB/LSQ among its residents.
//!
//! Run with: `cargo run --release --example smt4_allocation`

use stretch_repro::cpu::{
    AllocationPolicy, Greedy, RoundRobin, Scenario, ServerScenario, ServerSpec, ServerThread,
    SimLength, SymbiosisAware, ThreadSpec,
};
use stretch_repro::model::CoreConfig;
use stretch_repro::stretch::{PinnedStretch, RobSkew, StretchMode};
use stretch_repro::workloads::profile_by_name;

fn main() {
    let cfg = CoreConfig::default();
    let spec = ServerSpec::new(2, 4);
    let length = SimLength::standard();
    let population = [("web-search", true), ("zeusmp", false), ("gcc", false), ("mcf", false)];

    // Stand-alone full-core UIPC per workload: the normalisation reference
    // for the service and the symbiosis signal for the allocator.
    let standalone: Vec<f64> = population
        .iter()
        .map(|(name, _)| {
            Scenario::standalone(profile_by_name(name).expect("known workload"))
                .config(cfg)
                .length(length)
                .seed(7)
                .run_thread0()
                .uipc
        })
        .collect();

    let threads: Vec<ThreadSpec> = population
        .iter()
        .zip(&standalone)
        .map(|((name, is_ls), &uipc)| {
            let spec = if *is_ls {
                ThreadSpec::latency_sensitive(*name)
            } else {
                ThreadSpec::batch(*name)
            };
            spec.with_standalone_uipc(uipc)
        })
        .collect();
    let allocations: [(&str, &dyn AllocationPolicy); 3] =
        [("greedy", &Greedy), ("round-robin", &RoundRobin), ("symbiosis-aware", &SymbiosisAware)];

    println!(
        "SMT4 allocation study: 1 LS + 3 batch on {} cores x SMT{}",
        spec.cores, spec.threads_per_core
    );
    println!("  partitioning inside every occupied core: Stretch B-mode 56-136");
    println!();
    println!("  allocation       placement              LS retained   batch thrpt");
    for (label, allocation) in allocations {
        let mut scenario = ServerScenario::new(spec)
            .config(cfg)
            .allocation(allocation.assign(&threads, &spec))
            .colocation(PinnedStretch::new(StretchMode::BatchBoost(RobSkew::recommended_b_mode())))
            .length(length)
            .seed(7);
        for thread in &threads {
            let source = Box::new(profile_by_name(&thread.name).expect("known workload"));
            scenario = scenario.thread(ServerThread::new(thread.clone(), source));
        }
        let result = scenario.run();
        let placement: Vec<String> = result
            .placement
            .cores()
            .iter()
            .map(|core| {
                if core.is_empty() {
                    "-".to_string()
                } else {
                    core.iter()
                        .map(|&t| if t == 0 { "LS".to_string() } else { format!("B{t}") })
                        .collect::<Vec<_>>()
                        .join("+")
                }
            })
            .collect();
        let ls_retained = result.thread_uipc(0).expect("the service ran") / standalone[0];
        println!(
            "  {label:<16} {:<22} {:>10.1}%   {:>8.3} uIPC",
            placement.join(" | "),
            ls_retained * 100.0,
            result.batch_throughput(),
        );
    }
    println!();
    println!("Greedy gives the service a core of its own; round-robin deals threads across");
    println!("cores; the symbiosis-aware allocator pairs the extremes of the batch mix with");
    println!("the service. Static partitions mean even an isolated service holds only its");
    println!("share of the core, so 'LS retained' compares against the full-core run.");
}

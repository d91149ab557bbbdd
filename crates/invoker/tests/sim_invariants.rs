//! Randomised invariant checks of the node simulations and their container
//! pool. The simulations are expensive, so their proptest case count is
//! kept small; each case still checks every call of a full (reduced) run.

use faas_core::{Policy, SchedulerConfig};
use faas_invoker::pool::ContainerId;
use faas_invoker::{
    simulate_calls_faulted, simulate_scenario, ContainerPool, NodeConfig, NodeMode,
};
use faas_simcore::time::{SimDuration, SimTime};
use faas_workload::faults::FaultSpec;
use faas_workload::scenario::BurstScenario;
use faas_workload::sebs::{Catalogue, FuncId};
use faas_workload::weight::WeightTable;
use proptest::prelude::*;

fn policies() -> Vec<NodeMode> {
    vec![
        NodeMode::Baseline,
        NodeMode::Scheduled(SchedulerConfig::paper(Policy::Fifo)),
        NodeMode::Scheduled(SchedulerConfig::paper(Policy::Sept)),
        NodeMode::Scheduled(SchedulerConfig::paper(Policy::FairChoice)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Causality, conservation and the busy-container bound hold for random
    /// (cores, intensity, seed, memory), fault-free and across a crash and
    /// restart (where `finish` also checks that no container stays leased).
    #[test]
    fn node_invariants_hold(
        cores in 2u32..8,
        intensity in prop::sample::select(vec![10u32, 20, 30]),
        memory_gb in prop::sample::select(vec![4u64, 8, 32]),
        seed in any::<u64>()
    ) {
        let catalogue = Catalogue::sebs();
        let scenario = BurstScenario::standard(cores, intensity).generate(&catalogue, seed);
        let cfg = NodeConfig::paper(cores).with_memory_mb(memory_gb * 1024);
        let calls = scenario.all_calls();
        let weights = WeightTable::uniform(catalogue.len());
        let crash = FaultSpec::crash_restart(seed, scenario.burst_start, SimDuration::from_secs(60));
        for mode in policies() {
            let result = simulate_scenario(&catalogue, &scenario, &mode, &cfg, seed);
            prop_assert_eq!(result.measured_len(), scenario.measured_len());
            for o in &result.outcomes {
                prop_assert!(o.invoker_receive >= o.release);
                prop_assert!(o.exec_start >= o.invoker_receive);
                prop_assert!(o.exec_end >= o.exec_start);
                prop_assert!(o.completion >= o.exec_end);
            }
            let crashed = simulate_calls_faulted(
                &catalogue, &calls, &mode, &cfg, &weights, &crash, seed, 0,
            );
            prop_assert_eq!(crashed.fault_stats.crashes, 1);
            prop_assert_eq!(crashed.outcomes.len() + crashed.drops.len(), calls.len());
            for r in [&result, &crashed] {
                if let NodeMode::Scheduled(_) = mode {
                    prop_assert!(
                        r.peak_concurrency <= cores as usize,
                        "busy containers {} exceed {} cores",
                        r.peak_concurrency,
                        cores
                    );
                }
                // Memory accounting: the pool can never exceed its budget,
                // so peak concurrency is also bounded by memory slots.
                let slots = (memory_gb * 1024 / 256) as usize;
                prop_assert!(r.peak_concurrency <= slots);
            }
        }
    }

    /// Pool statistics tally with per-call start kinds.
    #[test]
    fn pool_stats_match_outcomes(
        cores in 2u32..6,
        seed in any::<u64>()
    ) {
        let catalogue = Catalogue::sebs();
        let scenario = BurstScenario::standard(cores, 20).generate(&catalogue, seed);
        let cfg = NodeConfig::paper(cores);
        let mode = NodeMode::Scheduled(SchedulerConfig::paper(Policy::Fifo));
        let result = simulate_scenario(&catalogue, &scenario, &mode, &cfg, seed);
        // Every placement is attributable to exactly one call, so totals
        // over all outcomes equal the pool counters.
        use faas_workload::trace::ColdStartKind;
        let warm = result
            .outcomes
            .iter()
            .filter(|o| o.start_kind == ColdStartKind::Warm)
            .count() as u64;
        let prewarm = result
            .outcomes
            .iter()
            .filter(|o| o.start_kind == ColdStartKind::Prewarm)
            .count() as u64;
        let cold = result
            .outcomes
            .iter()
            .filter(|o| o.start_kind == ColdStartKind::Cold)
            .count() as u64;
        let stats = result.total_pool_stats;
        prop_assert_eq!(stats.warm_hits, warm);
        prop_assert_eq!(stats.prewarm_hits, prewarm);
        prop_assert_eq!(stats.cold_creates, cold);
    }
}

proptest! {
    /// The pool's lease count equals the leases still outstanding under any
    /// sequence of placements, releases, prewarm refills and crashes, and
    /// never exceeds its peak.
    #[test]
    fn pool_lease_count_matches_outstanding_leases(
        memory_units in 1u64..16,
        prewarm in 0u32..3,
        ops in prop::collection::vec((0u8..8, 0u16..4, 1u64..4), 0..300)
    ) {
        const MB: u64 = 256;
        let mut pool = ContainerPool::new(memory_units * MB, 4, prewarm, MB);
        let mut held: Vec<ContainerId> = Vec::new();
        let mut now = SimTime::ZERO;
        for (op, func, size) in ops {
            now += SimDuration::from_secs(1);
            match op {
                0 => {
                    pool.crash();
                    held.clear();
                }
                1 => {
                    pool.replenish_prewarm();
                }
                2..=4 if !held.is_empty() => {
                    let cid = held.swap_remove(func as usize % held.len());
                    pool.release_idle(cid, now);
                }
                _ => {
                    if let Some(p) = pool.place(FuncId(func), size * MB) {
                        held.push(p.container);
                    }
                }
            }
            prop_assert_eq!(pool.leased() as usize, held.len());
            prop_assert!(pool.leased() <= pool.peak_leased());
        }
    }
}
